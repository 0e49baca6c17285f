"""Deterministic random-stream derivation.

All randomness in the package flows through streams derived here.  A stream
is identified by a master seed plus a tuple of context keys (task name,
replicate index, ...).  Derivation hashes the keys with BLAKE2b, so streams
are stable across platforms and runs, and distinct contexts never share a
stream.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_seed", "stream"]


def derive_seed(master_seed: int, *keys: int | str) -> int:
    """Derive a 128-bit child seed from a master seed and context keys."""
    h = hashlib.blake2b(digest_size=16)
    h.update(int(master_seed).to_bytes(8, "little", signed=False))
    for key in keys:
        if isinstance(key, str):
            h.update(b"s" + key.encode("utf-8") + b"\x00")
        else:
            h.update(b"i" + int(key).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def stream(master_seed: int, *keys: int | str) -> random.Random:
    """Scalar random stream (fast path for tree and chain simulation)."""
    return random.Random(derive_seed(master_seed, *keys))
