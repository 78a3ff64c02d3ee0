"""Deterministic seed derivation.

A single master seed is fanned out to per-module / per-trial generators with
a splitmix64 counter scheme: each path component (a small int or a short tag
string) is folded into the state with one splitmix64 round.  Derived seeds
are therefore stable under changes elsewhere in the program, e.g. adding
trials never shifts the seeds of existing trials.

A tag folds in only its first 8 UTF-8 bytes, the low 64 bits of its
little-endian integer, so tags that share them derive the same seeds:
"ou-equidyn" and "ou-equidyn-euclid" both fold as "ou-equid", and their
samplers draw the same (v, s) sequence from the same seed.  Folding every
byte would change each "ou-equidyn-euclid" output, so the fold stays.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _fold(component) -> int:
    if isinstance(component, str):
        return int.from_bytes(component.encode("utf-8"), "little") & _MASK
    return int(component) & _MASK


def derive_seed(master: int, *path) -> int:
    """Derive a 64-bit seed from `master` and a path of ints/tags."""
    state = _fold(master)
    for component in path:
        state = splitmix64(state ^ _fold(component))
    return splitmix64(state)


def make_rng(master: int, *path) -> np.random.Generator:
    """A PCG64 generator seeded by `derive_seed(master, *path)`."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *path)))
