"""Oracle verification of representations against a Cayley table."""

from __future__ import annotations

import numpy as np

from .base import ValidationError, check_integer
from .groups import GroupTable

Counterexample = tuple[int, int, int, int]       # (x, y, got, want)


_CHUNK = 1 << 16                                  # pairs per predict call
MAX_SEED = (1 << 32) - 1                          # numpy's RandomState bound


def _first_mismatch(rep, G: GroupTable, pairs) -> Counterexample | None:
    got = rep.predict(pairs)
    want = G.table[pairs[:, 0] - 1, pairs[:, 1] - 1]
    bad = np.nonzero(got != want)[0]
    if bad.size:
        i = int(bad[0])
        return (int(pairs[i, 0]), int(pairs[i, 1]), int(got[i]), int(want[i]))
    return None


def verify_exhaustive(rep, G: GroupTable) -> Counterexample | None:
    """Compare rep.predict with the table on all n^2 pairs.

    Returns the first mismatch as (x, y, got, want), or None.  Pairs are
    swept in row-major order, chunked to bound memory.
    """
    n = G.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    per_row = max(_CHUNK // n, 1)
    for start in range(0, n, per_row):
        rows = ids[start:start + per_row]
        pairs = np.stack([np.repeat(rows, n), np.tile(ids, len(rows))], axis=1)
        found = _first_mismatch(rep, G, pairs)
        if found is not None:
            return found
    return None


def verify_random(rep, G: GroupTable, count: int, seed: int = 0
                  ) -> Counterexample | None:
    """Compare rep.predict with the table on seeded uniform pairs."""
    count = check_integer(count, "pair count")
    seed = check_integer(seed, "seed")
    if count < 0:
        raise ValidationError(f"pair count must be >= 0, got {count}")
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    rng = np.random.RandomState(seed)
    pairs = rng.randint(1, G.n + 1, size=(count, 2)).astype(np.int64)
    return _first_mismatch(rep, G, pairs)
