"""Label-in/label-out multiplication schemes with a space-accounted store.

These structures split the work between an unbounded outside user, who
compresses the group and labels its elements, and a query processing unit
(QPU) that stores only the compressed form and multiplies labels.  Only
the QPU store counts toward space; a scheme's ``multiply`` is a pure
function of (store, label, label), so a serialized store reproduces
queries exactly.  ``multiply`` checks nothing, so its labels must come
from a labeler's ``label`` or from ``multiply``.

Each scheme writes its query once, as ``_bound_kernel(view)``: a closure
over ``view`` of each of the store's arrays, whose label components may be
Python ints or int64 arrays alike, and states the store's fixed reads
once, as ``_reads``.  ``_kernel`` runs the closure bound on the arrays
themselves; ``multiply`` runs the closure bound on read-only memoryviews
(``base._view``) at its first call, so that every read gives a Python
int.  An id-level estimator's closure runs the labeler's ``labels``, the
scheme's closure and the labeler's ``elements``, each bound through the
same ``view``, and it reads what the scheme reads.

Labels are tuples of at most four unsigned integers.  Abelian labels pack
the exponent tuple over the prime-power basis into one word,
low-order factor in the low bits.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .base import (Representation, ValidationError, _Cached, _view,
                   check_element_id, check_integer, id_dtype)
from .groups import Q8_TABLE, as_group
from .structure import (AbelianCoordinates, MixedRadix, _prime_factors,
                        find_hamiltonian_decomposition,
                        find_semidirect_decomposition,
                        find_zgroup_decomposition)

FMLabel = tuple


def _frozen(arr, dtype=np.int64) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


class _Labeler(_Cached):
    """Outside-user labeling of a group's elements.

    Each labeling writes its maps once, as ``_bound_maps(view)``: a pair
    of closures over ``view`` of its arrays, ``labels`` from ids to label
    components and ``elements`` from label components back to ids.  Both
    take Python ints or int64 arrays alike and check nothing.  ``label`` and
    ``element`` are their checked one-element forms, bound once on
    read-only memoryviews (``base._Cached``), so they answer in Python ints:
    ``element`` takes exactly the tuples that ``label`` or a scheme's
    ``multiply`` returns, and ``codecs[i]`` bounds component i before
    ``elements`` reads it.  The arrays that ``elements`` reads hold ids, at
    the id width ``id_dtype(n)``; the others stay int64.
    """

    n: int
    codecs: tuple[MixedRadix, ...]

    @cached_property
    def label(self):
        """The label of an element id."""
        labels, n = self._bound_maps(_view)[0], self.n

        def label(x: int) -> FMLabel:
            return labels(check_element_id(x, n))
        return label

    @cached_property
    def element(self):
        """The element id of a label."""
        label, codecs = self.label, self.codecs
        elements = self._bound_maps(_view)[1]

        def element(lab: FMLabel) -> int:
            if type(lab) is tuple and len(lab) == len(codecs) and all(
                    isinstance(v, (int, np.integer))
                    and not isinstance(v, bool) and 0 <= v < 1 << c.bits
                    and all(f < s for f, s in zip(c.unpack(int(v)), c.sizes))
                    for v, c in zip(lab, codecs)):
                lab = tuple(map(int, lab))
                x = elements(lab)
                if label(x) == lab:
                    return x
            raise ValidationError(f"{lab!r} is not a label of this group")
        return element


def _fields(*sizes) -> tuple[MixedRadix, ...]:
    return tuple(MixedRadix((s,)) for s in sizes)


# -- abelian ------------------------------------------------------------------

class AbelianScheme(MixedRadix, _Cached):
    """QPU store for an abelian group: the cyclic factor orders alone.

    A label is one packed word of exponents, the mixed-radix codec over the
    factor orders; multiplication adds the fields mod the factor orders.
    No array is read, so a query costs zero probes and O(t) word
    operations on the packed fields.  Labels are not checked.
    """

    def __init__(self, orders):
        orders = tuple(int(d) for d in orders)
        super().__init__(orders)    # the 63-bit budget before any factoring
        for d in orders:
            if d < 2 or len(_prime_factors(d)) != 1:
                raise ValidationError(f"factor order {d} is not a prime power")
        self.orders = orders

    def _bound_kernel(self, view):
        add = self.add

        def multiply(l1, l2):
            return (add(l1[0], l2[0]),)
        return multiply

    def space_slots(self) -> dict[str, int]:
        return {"orders": len(self.orders), "meta": 1}


class AbelianLabeler(_Labeler):
    """Labeling of a table-backed abelian group: ``packed[x-1]`` is the
    label of x, and ``element_of_flat`` inverts the flat exponent index."""

    def __init__(self, scheme: AbelianScheme, packed, element_of_flat):
        self.scheme = scheme
        self.codecs = (scheme,)
        self.packed = _frozen(packed)
        self.n = len(self.packed)
        self.element_of_flat = _frozen(element_of_flat, id_dtype(self.n))

    def _bound_maps(self, view):
        packed, element_of_flat = map(view, (self.packed,
                                             self.element_of_flat))
        index = self.scheme.index

        def labels(x):
            return (packed[x - 1],)

        def elements(lab):
            return element_of_flat[index(lab[0])]
        return labels, elements


def compress_abelian(group) -> tuple[AbelianScheme, AbelianLabeler]:
    coords = AbelianCoordinates(as_group(group))
    scheme = AbelianScheme(coords.orders)
    return scheme, AbelianLabeler(scheme, coords.packed, coords.element_of_flat)


# -- Hamiltonian ----------------------------------------------------------------

class HamiltonianScheme(_Cached):
    """QPU store for Q8 x C: the fixed 8 x 8 quaternion table plus the
    abelian store for C.  A label packs the quaternion index minus one
    (three high bits) above the abelian label of the C part.  Labels are
    not checked."""

    _reads = {"table": 1}

    def __init__(self, abelian: AbelianScheme):
        self.abelian = abelian
        self.q8_table = Q8_TABLE

    def _bound_kernel(self, view):
        q8, add, bits = (view(self.q8_table), self.abelian.add,
                         self.abelian.bits)

        def multiply(l1, l2):
            w1, w2 = l1[0], l2[0]
            return (((q8[w1 >> bits, w2 >> bits] - 1) << bits) | add(w1, w2),)
        return multiply

    def space_slots(self) -> dict[str, int]:
        slots = {"q8_table": 64}
        for k, v in self.abelian.space_slots().items():
            slots[f"abelian_{k}"] = v
        return slots


class HamiltonianLabeler(_Labeler):
    """``q_of[x]`` is the quaternion index 1..8 and ``c_of[x]`` the local C
    id of element x (entry 0 unused); ``c_labels[c-1]`` is the abelian
    label of local C id c, and ``by_flat[q-1, flat]`` inverts the pairing."""

    def __init__(self, scheme, q_of, c_of, c_labels, by_flat):
        self.scheme = scheme
        # C's label, then the quaternion index minus one
        self.codecs = (MixedRadix(scheme.abelian.sizes + (8,)),)
        self.q_of = _frozen(q_of)
        self.c_of = _frozen(c_of)
        self.c_labels = _frozen(c_labels)
        self.n = len(q_of) - 1
        self.by_flat = _frozen(by_flat, id_dtype(self.n))

    def _bound_maps(self, view):
        q_of, c_of, c_labels, by_flat = map(view, (
            self.q_of, self.c_of, self.c_labels, self.by_flat))
        bits, index = self.scheme.abelian.bits, self.scheme.abelian.index

        def labels(x):
            return (((q_of[x] - 1) << bits) | c_labels[c_of[x] - 1],)

        def elements(lab):
            return by_flat[lab[0] >> bits, index(lab[0])]
        return labels, elements


def compress_hamiltonian(group) -> tuple[HamiltonianScheme, HamiltonianLabeler]:
    G = as_group(group)
    dec = find_hamiltonian_decomposition(G)
    coords = AbelianCoordinates(dec.c_table)
    scheme = HamiltonianScheme(AbelianScheme(coords.orders))
    by_flat = dec.pairing[:, coords.element_of_flat - 1]
    labeler = HamiltonianLabeler(scheme, dec.q_of, dec.c_of, coords.packed,
                                 by_flat)
    return scheme, labeler


# -- Z-groups --------------------------------------------------------------------

def _table_max(value) -> int:
    """``value`` as a sigma-table bound, which an artifact holds in 32 bits."""
    value = check_integer(value, "table_max")
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValidationError(
            f"table_max must be in [0, {0xFFFFFFFF}], got {value}")
    return value


# the largest m with m * m < 2**63: a query's i1 + s1 * i2 is at most
# m * (m - 1), and on int64 arrays it must not wrap
_ZGROUP_MAX_M = math.isqrt((1 << 63) - 1)


class ZGroupScheme(_Cached):
    """QPU store for C_m x| C_d: the two orders and the action multiplier.

    A label is (i, s, j) for the element a**i * b**j, where s indexes the
    image of the C_m generator under conjugation by b**j.  The output
    label's s component is served from a d-entry table when d is small
    (one probe) and otherwise recomputed by modular exponentiation in
    O(log d) word operations.  Labels are not checked.
    """

    def __init__(self, m: int, d: int, sigma1: int, table_max: int = 64):
        self.m = int(m)
        self.d = int(d)
        self.sigma1 = int(sigma1)
        self.table_max = _table_max(table_max)
        if self.m < 1 or self.d < 1:
            raise ValidationError(f"orders m={self.m}, d={self.d} must be >= 1")
        if self.m > _ZGROUP_MAX_M:
            raise ValidationError(f"order m={self.m} is past {_ZGROUP_MAX_M}, "
                                  f"where int64 label arithmetic wraps")
        if self.d <= self.table_max:
            self.sigma_table = _frozen(
                [pow(self.sigma1, j, self.m) for j in range(self.d)])
        else:
            self.sigma_table = None
        # action consistency: applying sigma d times is the identity map
        if self.m > 1 and pow(self.sigma1, self.d, self.m) != 1:
            raise ValidationError(
                f"multiplier {self.sigma1} does not have order dividing {self.d} mod {self.m}")

    @property
    def _reads(self) -> dict:
        return {} if self.sigma_table is None else {"table": 1}

    def _bound_sigma(self, view):
        """sigma1**j mod m for exponents j in [0, d), given as Python ints
        or int64 arrays: a read of the table, or a closure over m."""
        if self.sigma_table is not None:
            return view(self.sigma_table).__getitem__
        m, s1, steps = self.m, self.sigma1, (self.d - 1).bit_length()

        def sigma(j):
            out, sq = 1 % m, s1 % m
            for k in range(steps):
                # multiply by sq exactly when bit k of j is set
                out = out * (1 + (sq - 1) * ((j >> k) & 1)) % m
                sq = sq * sq % m
            return out
        return sigma

    def _bound_kernel(self, view):
        m, d, sigma = self.m, self.d, self._bound_sigma(view)

        def multiply(l1, l2):
            i1, s1, j1 = l1
            i2, _, j2 = l2
            j3 = (j1 + j2) % d
            return ((i1 + s1 * i2) % m, sigma(j3), j3)
        return multiply

    def space_slots(self) -> dict[str, int]:
        slots = {"meta": 3}            # m, d, sigma1
        if self.sigma_table is not None:
            slots["sigma_table"] = self.d
        return slots


class ZGroupLabeler(_Labeler):
    """``i_of[x]`` and ``j_of[x]`` are the exponents of x = a**i * b**j
    (entry 0 unused); ``pairing[i, j]`` inverts them."""

    def __init__(self, scheme, i_of, j_of, pairing):
        self.scheme = scheme
        self.codecs = _fields(scheme.m, scheme.m, scheme.d)
        self.i_of = _frozen(i_of)
        self.j_of = _frozen(j_of)
        self.n = len(i_of) - 1
        self.pairing = _frozen(pairing, id_dtype(self.n))

    def _bound_maps(self, view):
        i_of, j_of, pairing = map(view, (self.i_of, self.j_of, self.pairing))
        sigma = self.scheme._bound_sigma(view)

        def labels(x):
            j = j_of[x]
            return (i_of[x], sigma(j), j)

        def elements(lab):
            return pairing[lab[0], lab[2]]
        return labels, elements


def compress_zgroup(group, table_max: int = 64) -> tuple[ZGroupScheme, ZGroupLabeler]:
    _table_max(table_max)           # before the search
    dec = find_zgroup_decomposition(as_group(group))
    scheme = ZGroupScheme(dec.a_order, dec.b_order, dec.multiplier or 0,
                          table_max=table_max)
    labeler = ZGroupLabeler(scheme, dec.a_of, dec.j_of, dec.pairing)
    return scheme, labeler


# -- permutation powers by cycle position -----------------------------------------

class CycleStructure(_Cached):
    """Disjoint-cycle storage of a permutation for O(1) powering.

    ``cycles[j]`` lists one cycle's points in order, starting at its least
    point; ``index_[g-1]`` packs (cycle number, position).  Applying the
    d-th power of the permutation to g costs exactly two array reads: the
    position lookup and the shifted cycle entry.
    """

    def __init__(self, pi):
        pi = np.asarray(pi, dtype=np.int64)
        n = len(pi)
        if n == 0 or not np.array_equal(np.sort(pi), np.arange(1, n + 1)):
            raise ValidationError("input is not a permutation of 1..n")
        self.n_points = n
        # by pointer doubling, low[g] is the least point of g's cycle, and
        # then rank[g] the number of steps from g to the cycle's last point
        # (the one pi sends back to the least)
        succ, pts = pi - 1, np.arange(n)
        low, jump = pts, succ
        for _ in range((n - 1).bit_length()):
            low, jump = np.minimum(low, low[jump]), jump[jump]
        # cycles are numbered in the order of their least points
        j = (np.cumsum(low == pts) - 1)[low]
        self.lengths_ = np.bincount(j)
        last = succ == low
        rank, jump = (~last).astype(np.int64), np.where(last, pts, succ)
        for _ in range(int(self.lengths_.max() - 1).bit_length()):
            rank, jump = rank + rank[jump], jump[jump]
        self.offsets_ = np.concatenate([[0], np.cumsum(self.lengths_[:-1])])
        r = self.lengths_[j] - 1 - rank
        self.index_ = j * n + r
        self.flat_ = np.empty(n, dtype=np.int64)
        self.flat_[self.offsets_[j] + r] = pts + 1
        for arr in (self.lengths_, self.offsets_, self.index_, self.flat_):
            arr.setflags(write=False)

    @property
    def cycles(self) -> list[np.ndarray]:
        """Each cycle's points in order, starting at its least point."""
        return np.split(self.flat_, self.offsets_[1:])

    @cached_property
    def apply_power(self):
        """pi**d applied to g; exactly two array reads plus one modulo,
        in Python ints, so that any integer exponent is answered exactly."""
        power, n = self._bound_power(_view), self.n_points

        def apply_power(g: int, d: int) -> int:
            g = check_element_id(g, n)
            d = check_integer(d, "exponent")
            if d < 0:
                raise ValidationError("negative powers are rejected; "
                                      "normalize exponents into [0, m) first")
            return power(g, d)
        return apply_power

    def _count(self, ledger) -> None:
        """Count the reads of one ``apply_power``."""
        ledger.count("forward")
        ledger.count("backward")

    def _bound_power(self, view):
        """Unchecked ``apply_power`` for points and exponents given as
        Python ints or int64 arrays.

        The reads are the position lookup and the shifted cycle entry; a
        cycle's offset and length are its handle, as the start and length
        of a stored list would be.
        """
        index, flat, offsets, lengths = map(view, (
            self.index_, self.flat_, self.offsets_, self.lengths_))
        n = self.n_points

        def power(g, d):
            j, r = divmod(index[g - 1], n)
            return flat[offsets[j] + (r + d) % lengths[j]]
        return power

    def space_slots(self) -> dict[str, int]:
        # contents + position index + the stored length per cycle + the
        # point count read by the divmod; cycle handles are array lengths
        return {"cycles": self.n_points, "index": self.n_points,
                "lengths": len(self.lengths_), "meta": 1}


# -- semidirect A x| C_m with abelian A ---------------------------------------------

class SemidirectScheme(_Cached):
    """QPU store for G = A x| C_m with A abelian: the generator's action as
    a cycle structure, A's abelian store, the label of every A element,
    and the dense label-to-index inverse.

    A label is (abelian label of a, index of a, exponent of the cyclic
    part).  A query costs two cycle reads, one label read, and one inverse
    read.  Labels are not checked."""

    _reads = {"forward": 2, "backward": 2}

    def __init__(self, m: int, cycle: CycleStructure, abelian: AbelianScheme,
                 labels_of_a: np.ndarray, index_of_label: np.ndarray):
        self.m = int(m)
        self.cycle = cycle
        self.abelian = abelian
        self.labels_of_a = _frozen(labels_of_a)
        self.index_of_label = _frozen(index_of_label)

    @property
    def a_order(self) -> int:
        return len(self.labels_of_a)

    def _bound_kernel(self, view):
        power, add, flat_index = (self.cycle._bound_power(view),
                                  self.abelian.add, self.abelian.index)
        labels_of_a, index_of_label, m = (view(self.labels_of_a),
                                          view(self.index_of_label), self.m)

        def multiply(l1, l2):
            la1, _, k1 = l1
            la4 = add(la1, labels_of_a[power(l2[1], k1) - 1])
            return (la4, index_of_label[flat_index(la4)], (k1 + l2[2]) % m)
        return multiply

    def space_slots(self) -> dict[str, int]:
        slots = {"labels_of_a": self.a_order,
                 "index_of_label": len(self.index_of_label),
                 "meta": 1}
        for k, v in self.cycle.space_slots().items():
            slots[f"cycle_{k}"] = v
        for k, v in self.abelian.space_slots().items():
            slots[f"abelian_{k}"] = v
        return slots


class SemidirectLabeler(_Labeler):
    """``a_of[x]`` is the 0-based local A index and ``j_of[x]`` the
    C_m exponent of element x (entry 0 unused); ``pairing[a-1, j]``
    inverts them."""

    def __init__(self, scheme, a_of, j_of, pairing):
        self.scheme = scheme
        # local A ids are 1-based: 0 is in the box, and no label holds it
        self.codecs = (scheme.abelian,) + _fields(scheme.a_order + 1, scheme.m)
        self.a_of = _frozen(a_of)
        self.j_of = _frozen(j_of)
        self.n = len(a_of) - 1
        self.pairing = _frozen(pairing, id_dtype(self.n))

    def _bound_maps(self, view):
        a_of, j_of, pairing = map(view, (self.a_of, self.j_of, self.pairing))
        labels_of_a = view(self.scheme.labels_of_a)

        def labels(x):
            a = a_of[x]
            return (labels_of_a[a], a + 1, j_of[x])

        def elements(lab):
            return pairing[lab[1] - 1, lab[2]]
        return labels, elements


def compress_semidirect(group) -> tuple[SemidirectScheme, SemidirectLabeler]:
    dec = find_semidirect_decomposition(as_group(group))
    coords = AbelianCoordinates(dec.spec.A)
    pi = np.asarray(dec.spec.action, dtype=np.int64)[1 % dec.b_order]
    scheme = SemidirectScheme(dec.b_order, CycleStructure(pi),
                              AbelianScheme(coords.orders), coords.packed,
                              coords.element_of_flat)
    labeler = SemidirectLabeler(scheme, dec.a_of, dec.j_of, dec.pairing)
    return scheme, labeler


def qpu_space(scheme) -> int:
    """Exact slot count of a scheme's query-processing-unit store."""
    return sum(scheme.space_slots().values())


# -- estimator wrappers ---------------------------------------------------------------

class _FMBase(Representation):
    """Adapter exposing a scheme + labeler pair as an id-level estimator.

    A query labels both ids, multiplies the labels with the pure QPU
    scheme and maps the product label back to an id; it reads what the
    scheme reads.  ``space_slots``
    reports the QPU store alone, since the labeling cost belongs to the
    outside user in this model.
    """

    def fit(self, group):
        G = as_group(group)
        self.scheme_, self.labeler_ = self._compress(G)
        self.n_ = G.n
        return self

    @property
    def _reads(self) -> dict:
        return self.scheme_._reads

    def _bound_kernel(self, view):
        labels, elements = self.labeler_._bound_maps(view)
        multiply = self.scheme_._bound_kernel(view)

        def kernel(x, y):
            return elements(multiply(labels(x), labels(y)))
        return kernel

    def space_slots(self) -> dict[str, int]:
        self._require_fitted("scheme_")
        return self.scheme_.space_slots()


class AbelianFM(_FMBase):
    rep_kind = "fm-abelian"

    def _compress(self, G):
        return compress_abelian(G)


class HamiltonianFM(_FMBase):
    rep_kind = "fm-hamiltonian"

    def _compress(self, G):
        return compress_hamiltonian(G)


class ZGroupFM(_FMBase):
    rep_kind = "fm-zgroup"

    def __init__(self, table_max: int = 64):
        self.table_max = table_max

    def _compress(self, G):
        return compress_zgroup(G, table_max=self.table_max)


class SemidirectFM(_FMBase):
    rep_kind = "fm-semidirect"

    def _compress(self, G):
        return compress_semidirect(G)
