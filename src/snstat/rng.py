"""Deterministic stream derivation for simulation and bootstrap code.

Streams are keyed by hashing a master seed together with structured
coordinates (cell labels, replicate indices, ...), so parallel workers
get disjoint, order-independent generators and re-running with the same
master seed reproduces every draw bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import _check_int


def derive_seed(seed, *coords) -> int:
    """Map (master seed, coordinates...) to a stable 64-bit stream seed.

    Each part is keyed by the plain value it equals: a str subclass as str, a
    NumPy scalar as its Python value (np.int64(10) as 10, np.True_ as True),
    so equal values name one stream whatever their type. The key is the
    SHA-256 of the parts' reprs, free of Python's per-process hash
    randomization. ValueError naming seed unless it is an integer, not a bool.
    """
    _check_int("seed", seed)
    parts = [str(p) if isinstance(p, str) else p.item() if isinstance(p, np.generic) else p
             for p in (seed, *coords)]
    key = "\x1f".join(map(repr, parts)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def stream(*parts) -> np.random.Generator:
    """PCG64 generator for the stream identified by the given parts."""
    return np.random.default_rng(derive_seed(*parts))
