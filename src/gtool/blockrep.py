"""Block representation: tunable space/query-time tradeoff for any group.

Each element's covering bitstring is split into blocks of l bits.  For
every element g and block i the structure precomputes an array of all 2^l
products of g with that block's subset products, so a query folds through
m = ceil(k/l) array probes after a single packed word-index read.  Space
is n*2^l*m + n + O(1) slots; l = floor(delta*log2 n) interpolates between
an O(n log n)-space / O(log n)-probe regime at delta = 1/log2(n) and a
constant-probe regime at delta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base import (CapacityError, PreconditionError, Representation,
                   ValidationError, check_integer, id_dtype)
from .cubegen import CubeSequence, greedy_cube_sequence
from .groups import as_group

# The batch query widens ids by multiplying them with the stride bound as a
# 0-d int64 array (``base._const``); NumPy 1.x casts 0-d arrays by value and
# would keep the product at the id width, where it wraps.
if int(np.__version__.split(".")[0]) < 2:
    raise ImportError(f"gtool needs numpy>=2.0, found {np.__version__}")

DEFAULT_MAX_SLOTS = 1 << 29      # 512 Mi slots = 2 GiB at 4-byte ids


def parse_delta(delta) -> Fraction:
    """Accept a Fraction, an int, or a 'p/q' string; exact rationals only."""
    if isinstance(delta, Fraction):
        return delta
    if isinstance(delta, int):
        return Fraction(delta)
    if isinstance(delta, str):
        try:
            return Fraction(delta)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(
                f"delta must be an exact rational 'p/q', got {delta!r}") from None
    raise ValidationError(
        f"delta must be an exact rational (Fraction, int, or 'p/q'), "
        f"got {type(delta).__name__}")


def choose_block_length(n: int, k: int, delta) -> int:
    """l = clamp(floor(delta * log2 n), 1, k), evaluated exactly.

    The floor is computed by integer comparisons 2**(l*q) <= n**p, so no
    floating point is involved.  Requires 1/log2(n) <= delta <= 1.
    """
    n, k = check_integer(n, "group order"), check_integer(k, "cube length")
    if n < 2:
        raise PreconditionError("delta-based block choice needs n >= 2")
    frac = parse_delta(delta)
    p, q = frac.numerator, frac.denominator
    if p <= 0 or frac > 1 or (1 << q) > n ** p:
        raise ValidationError(
            f"delta={frac} out of range [1/log2({n}), 1]")
    l = 1
    while (1 << ((l + 1) * q)) <= n ** p:
        l += 1
    return max(1, min(l, k))


class BlockRep(Representation):
    """Precomputed block-product arrays with a packed per-element word index.

    Parameters
    ----------
    l : block length in bits, or None to derive it from ``delta``.
    delta : exact rational in [1/log2 n, 1]; used when ``l`` is None.
    max_slots : refuse builds whose multiplication arrays would exceed
        this many slots.

    After ``fit``: ``k_`` (cube length), ``l_``, ``m_`` (block count),
    ``generators_``, ``word_index_`` (n packed values), ``mult_arrays_``
    of shape (n, m, 2^l) with ``mult_arrays_[g-1, i, j]`` = g times the
    j-th subset product of block i.  Entry j = 0 is the empty product, so
    ``mult_arrays_[g-1, i, 0] == g`` always.  ``mult_arrays_`` is held at
    the id width ``id_dtype(n)``.  The query is one template per (m, l),
    rendered in each form on first use and bound to the arrays through
    that form's view; it reads ``mult_arrays_`` flattened, block i of x at
    the flat index ``(x - 1) * (m << l) + (i << l) + j``.  The batch form
    binds that stride as a 0-d int64 array, so the ids each level returns
    at the id width are widened before the product, which would wrap at
    uint16 on D500.
    """

    rep_kind = "block"

    def __init__(self, l: int | None = None, delta=None,
                 max_slots: int = DEFAULT_MAX_SLOTS):
        self.l = l
        self.delta = delta
        self.max_slots = max_slots

    def fit(self, group, cube: CubeSequence | None = None):
        G = as_group(group)
        if cube is None:
            cube, _ = greedy_cube_sequence(G)
        if cube.n != G.n:
            raise PreconditionError("cube sequence belongs to another group")
        k = cube.k
        if self.l is not None:
            l = check_integer(self.l, "l")
            if not 1 <= l <= max(k, 1):
                raise ValidationError(f"l={l} out of range [1, {max(k, 1)}]")
        elif self.delta is not None:
            l = choose_block_length(G.n, max(k, 1), self.delta)
        else:
            raise ValidationError("one of l or delta is required")
        m = -(-k // l)
        need = G.n * (1 << l) * m + G.n
        max_slots = check_integer(self.max_slots, "max_slots")
        if need > max_slots:
            raise CapacityError(
                f"build needs {need} slots, ceiling is {max_slots}")

        self.n_ = G.n
        self.k_ = k
        self.l_ = l
        self.m_ = m
        self.generators_ = cube.elements
        # the packed word index is the covering bitstring itself: block i
        # occupies bits (i-1)*l .. i*l-1, zero-padded past k
        self.word_index_ = cube.epsilon.astype(np.int64)
        self.word_index_.setflags(write=False)

        # subset products of all m blocks at once, doubling over the l
        # generators of each block; generators past k are the identity
        gens = np.full(m * l, G.identity, dtype=np.int64)
        gens[:k] = cube.elements
        gens = gens.reshape(m, l)
        prods = np.full((m, 1), G.identity, dtype=np.int64)
        for j in range(l):
            prods = np.hstack([prods, G.table[prods - 1, gens[:, j, None] - 1]])
        # 64 rows at a time bounds the gather below the held array
        mult = np.empty((G.n, m, 1 << l), dtype=id_dtype(G.n))
        for r in range(0, G.n, 64):
            mult[r:r + 64] = G.table[r:r + 64, prods - 1]
        mult.setflags(write=False)
        self.mult_arrays_ = mult
        return self

    # -- queries -----------------------------------------------------------

    @property
    def _reads(self) -> dict:
        return {"word_index": 1, "mult_array": self.m_}

    def _bound_arrays(self, view):
        return {"A": _flat(view(self.mult_arrays_)),
                "W": view(self.word_index_), "S": self.m_ << self.l_}

    def _template(self):
        return _kernel_source(self.m_, self.l_)

    # -- ledgers -------------------------------------------------------------

    def space_slots(self) -> dict[str, int]:
        self._require_fitted("mult_arrays_")
        return {
            "mult_arrays": self.n_ * self.m_ * (1 << self.l_),
            "word_index": self.n_,
            "meta": 4,                      # n, k, l, m
        }


def _flat(a):
    """The viewed array ``a`` in one dimension: a reshaped ndarray, or a
    memoryview cast through bytes.  A zero-size memoryview (m = 0) cannot
    be cast, and its query reads none of it."""
    if isinstance(a, np.ndarray):
        return a.reshape(-1)
    return a.cast("B").cast(a.format) if a.nbytes else a


def _kernel_source(m: int, l: int) -> list[str]:
    """The block query's lines, on the flattened arrays A and W, unrolled
    over the m blocks with the shifts, masks and offsets as literals.
    Block i reads ``A[(x - 1) * S + (i << l) + (w >> i*l & M)]`` with
    S = m << l, written ``x * S - (S - (i << l)) + ...``; for m = 2, l = 3
    the query is ``A[A[x * S - 16 + (w & 7)] * S - 8 + (w >> 3 & 7)]``
    with ``w = W[y - 1]``.
    """
    stride = m << l
    expr = "x"
    for i in range(m):
        shift = f" >> {i * l}" if i else ""
        expr = (f"A[{expr} * S - {stride - (i << l)}"
                f" + (w{shift} & {(1 << l) - 1})]")
    return ["w = W[y - 1]", f"return {expr}"]


@dataclass(frozen=True)
class TradeoffRow:
    delta: Fraction
    l: int
    m: int
    slots: int
    probes: int       # multiplication-array probes per query (= m); every
    error: str | None = None   # query adds one packed word-index read


def tradeoff_table(group, deltas, *, cube: CubeSequence | None = None,
                   max_slots: int = DEFAULT_MAX_SLOTS) -> list[TradeoffRow]:
    """Measured (not asymptotic) space/probe figures for a delta sweep.

    Failed rows (capacity or range errors) are recorded, not fatal.
    """
    G = as_group(group)
    if cube is None:
        cube, _ = greedy_cube_sequence(G)
    rows = []
    for d in deltas:
        frac = parse_delta(d)
        try:
            rep = BlockRep(delta=frac, max_slots=max_slots).fit(G, cube=cube)
            slots = sum(rep.space_slots().values())
            rows.append(TradeoffRow(delta=frac, l=rep.l_, m=rep.m_,
                                    slots=slots, probes=rep.m_))
        except (ValidationError, CapacityError) as exc:
            rows.append(TradeoffRow(delta=frac, l=0, m=0, slots=0, probes=0,
                                    error=str(exc)))
    return rows
