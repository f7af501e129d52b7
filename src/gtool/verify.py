"""Oracle verification of representations against a Cayley table."""

from __future__ import annotations

import threading

import numpy as np

from .base import ValidationError, check_integer
from .groups import GroupTable

Counterexample = tuple[int, int, int, int]       # (x, y, got, want)


_CHUNK = 1 << 16                  # pairs per predict call or row block
MAX_SEED = (1 << 32) - 1          # numpy's RandomState bound
MAX_COUNT = (1 << 63) - 1         # most pairs per verify_random

# one legacy generator per thread, re-seeded on each call: building a
# fresh MT19937 costs far more than a 4,096-pair check
_local = threading.local()


def _generator(seed: int) -> np.random.RandomState:
    """This thread's generator, in the state ``RandomState(seed)`` starts in."""
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.RandomState(seed)
    else:
        rng.seed(seed)
    return rng


def _first_mismatch(rep, G: GroupTable, pairs) -> Counterexample | None:
    got = rep.predict(pairs)
    x, y = pairs[:, 0], pairs[:, 1]
    # one flat gather: table[x - 1, y - 1] is entry (x - 1) * n + y - 1
    want = G.table.reshape(-1)[x * G.n + y - (G.n + 1)]
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        return (int(x[i]), int(y[i]), int(got[i]), int(want[i]))
    return None


def _sweep_exhaustive(rep, G: GroupTable) -> tuple[Counterexample | None, int]:
    """The first mismatch of :func:`verify_exhaustive`, and the number of
    pairs compared."""
    n = G.n
    per_row = max(_CHUNK // n, 1)
    for start in range(0, n, per_row):
        stop = min(start + per_row, n)
        rows = np.arange(start + 1, stop + 1, dtype=np.int64)
        got = rep._predict_rows(rows, n)
        want = G.table[start:stop]
        diff = got != want
        i = int(diff.argmax())          # the first True, in row-major order
        if diff.flat[i]:
            x, y = divmod(i, n)
            return ((start + x + 1, y + 1, int(got[x, y]), int(want[x, y])),
                    stop * n)
    return None, n * n


def _sweep_random(rep, G: GroupTable, count: int, seed: int
                  ) -> tuple[Counterexample | None, int]:
    """The first mismatch of :func:`verify_random`, and the number of pairs
    compared."""
    count = check_integer(count, "pair count")
    seed = check_integer(seed, "seed")
    if count < 0:
        raise ValidationError(f"pair count must be >= 0, got {count}")
    if count > MAX_COUNT:
        raise ValidationError(
            f"pair count must be <= {MAX_COUNT}, got {count}")
    if not 0 <= seed <= MAX_SEED:
        raise ValidationError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    rng = _generator(seed)
    # one predict even for no pairs, which still checks that rep is fitted
    for start in range(0, count or 1, _CHUNK):
        size = min(_CHUNK, count - start)
        found = _first_mismatch(rep, G, rng.randint(1, G.n + 1,
                                                    size=(size, 2)))
        if found is not None:
            return found, start + size
    return None, count


def verify_exhaustive(rep, G: GroupTable) -> Counterexample | None:
    """Compare rep's answers with the table on all n^2 pairs.

    Returns the first mismatch in row-major order as (x, y, got, want), or
    None.  Rows are swept in blocks of about ``_CHUNK`` pairs, each answered
    by the representation's batch kernel on the whole block
    (``Representation._predict_rows``) and compared with the table's rows.
    """
    return _sweep_exhaustive(rep, G)[0]


def verify_random(rep, G: GroupTable, count: int, seed: int = 0
                  ) -> Counterexample | None:
    """Compare rep.predict with the table on ``count`` seeded uniform pairs.

    The pairs are those of ``np.random.RandomState(seed).randint(1, n + 1,
    size=(count, 2))``, drawn ``_CHUNK`` at a time from one generator per
    thread, so memory stays bounded for any ``count`` up to ``MAX_COUNT``.
    Returns the first mismatch in draw order as (x, y, got, want), or None.
    """
    return _sweep_random(rep, G, count, seed)[0]
