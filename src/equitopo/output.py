"""Atomic file output and the flat key-value sidecar format."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

WRITE_SLICE = 1 << 20   # characters encoded per write: a long text is never encoded whole


def atomic_write_text(path, text: str) -> Path:
    """Write via a temp file in the same directory, then rename into place.

    The text goes out in slices of WRITE_SLICE characters, so no encoded copy
    of all of it is ever held; the bytes are those of one `write(text)`.  The
    file gets the mode `open(path, "w")` gives a new file, 0o666 less the
    umask, where `mkstemp` would leave 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for start in range(0, len(text), WRITE_SLICE):
                fh.write(text[start:start + WRITE_SLICE])
            umask = os.umask(0)   # the only way to read it; set straight back
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    if isinstance(value, (tuple, list)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def sidecar_text(fields: dict) -> str:
    """One `key = value` line per entry, skipping None values."""
    lines = [f"{key} = {format_value(value)}"
             for key, value in fields.items() if value is not None]
    return "\n".join(lines) + "\n"


def sidecar_path(out_path) -> Path:
    return Path(str(out_path) + ".meta")
