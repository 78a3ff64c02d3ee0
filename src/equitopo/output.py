"""Atomic file output and the flat key-value sidecar format."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

WRITE_SLICE = 1 << 20   # characters encoded per write: a long text is never encoded whole


def atomic_write(path, blocks: Iterable[bytes]) -> Path:
    """Write `blocks` in order to a temp file in the same directory, then rename into place.

    Each block is written and released before the next is drawn, so only one
    is held at a time.  If drawing or writing a block raises, the temp file
    is removed and the target is left as it was.  The file gets the mode
    `open(path, "w")` gives a new file, 0o666 less the umask, where `mkstemp`
    would leave 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(blocks)
            umask = os.umask(0)   # the only way to read it; set straight back
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path, text: str) -> Path:
    """`atomic_write` of `text` encoded as UTF-8, in slices of WRITE_SLICE characters.

    No encoded copy of all of the text is ever held, and the bytes are those
    of one `text.encode()`.
    """
    return atomic_write(path, (text[start:start + WRITE_SLICE].encode()
                               for start in range(0, len(text), WRITE_SLICE)))


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
