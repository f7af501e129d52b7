"""Label-in/label-out multiplication schemes with a space-accounted store.

These structures split the work between an unbounded outside user, who
compresses the group and labels its elements, and a query processing unit
(QPU) that stores only the compressed form and multiplies labels.  Only
the QPU store counts toward space; a scheme's ``multiply`` is a pure
function of (store, label, label), so a serialized store reproduces
queries exactly.  ``multiply`` checks nothing, so its labels must come
from a labeler's ``label`` or from ``multiply``.  A labeler's ``element``
checks a label by one guarded read and a round trip through ``label``.

Each scheme writes its label query once, as a template: ``_query()``
gives the lines that compute the product label's components (named by
``_label`` with suffix 3) from those of the two operands (suffixes 1 and
2), with its codec terms, ``ZGroupScheme``'s sigma and
``CycleStructure``'s power inlined in place of calls.  The lines read
names that ``_bound_arrays(view)`` maps to ``view`` of the store's
arrays and to its scalars, run on Python ints or int64 arrays alike, and
the store's fixed reads are stated once, as ``_reads``.  ``multiply`` is
the template rendered in the scalar form, bound on read-only memoryviews
(``base._view``) so that every read gives a Python int, and ``_kernel``
in the batch form (``base._Cached``).  An id-level estimator's query
inlines the labeler's ``_labels`` of both ids, the scheme's query and
the labeler's ``_elements`` in one frame, with the id check at its top,
and it reads what the scheme reads.

Labels are tuples of at most four unsigned integers.  Abelian labels pack
the exponent tuple over the prime-power basis into one word,
low-order factor in the low bits.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .base import (Representation, ValidationError, _Cached,
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

    Each labeling writes its maps once, as templates over the names its
    scheme gives the label components: ``_labels(x, k)`` gives the lines
    that compute the label of the id ``x`` into the components with
    suffix ``k``, and ``_elements(k)`` the id of that label, as one
    expression.  Both read names that ``_bound_arrays(view)`` binds, the
    scheme's included, run on Python ints or int64 arrays alike, and check
    nothing.  ``label`` and ``element`` are their checked one-element
    forms, rendered once in the scalar form (``base._Cached``), so they
    answer in Python ints.  ``element`` takes exactly the tuples that
    ``label`` or a scheme's ``multiply`` returns: one ``elements`` read,
    guarded against an index past an array's end, then a round trip,
    exact as labels are canonical.  A negative component that wrapped a
    read, or bits above a word's fields, fail ``label(x) == lab``.  The
    arrays that ``elements`` reads hold ids, at the id width
    ``id_dtype(n)``; the others stay int64.
    """

    n: int

    @cached_property
    def label(self):
        """The label of an element id."""
        return self._render(("x",), [
            *self._labels("x", 1), f"return {self.scheme._tuple(1)}"],
            n=self.n)

    @cached_property
    def element(self):
        """The element id of a label."""
        label, arity = self.label, len(self.scheme._label)
        elements = self._render(("lab",), [
            f"{self.scheme._tuple(1)} = lab", f"return {self._elements(1)}"])

        def element(lab: FMLabel) -> int:
            if type(lab) is tuple and len(lab) == arity:
                lab = tuple(check_integer(v, "label component") for v in lab)
                try:
                    x = elements(lab)
                except IndexError:      # a read past an array's end
                    pass
                else:
                    if label(x) == lab:
                        return x
            raise ValidationError(f"{lab!r} is not a label of this group")
        return element


class _Scheme(_Cached):
    """A QPU store whose ``multiply`` takes two labels and returns theirs.

    ``_label`` names the label components, and ``_query()`` gives the
    lines that compute the components with suffix 3 from those with
    suffixes 1 and 2.  Labels are not checked.
    """

    _args = ("l1", "l2")
    _label: tuple = ()

    def _tuple(self, k) -> str:
        """The label with suffix ``k``, as a tuple display."""
        return "(" + "".join(f"{c}{k}, " for c in self._label) + ")"

    def _template(self):
        return [
            f"{self._tuple(1)} = l1", f"{self._tuple(2)} = l2",
            *self._query(), f"return {self._tuple(3)}"]


# -- abelian ------------------------------------------------------------------

class AbelianScheme(MixedRadix, _Scheme):
    """QPU store for an abelian group: the cyclic factor orders alone.

    A label is one packed word of exponents, the mixed-radix codec over the
    factor orders; multiplication adds the fields mod the factor orders.
    No array is read, so a query costs zero probes and O(t) word
    operations on the packed fields.  Labels are not checked.
    """

    _label = ("w",)

    def __init__(self, orders):
        super().__init__(orders)    # integers in 63 bits, before any factoring
        for d in self.sizes:
            if d < 2 or len(_prime_factors(d)) != 1:
                raise ValidationError(f"factor order {d} is not a prime power")
        self.orders = self.sizes

    def _bound_arrays(self, view):
        return {}

    def _query(self):
        return [f"w3 = {self.expr('add', 'w1', 'w2')}"]

    def space_slots(self) -> dict[str, int]:
        return {"orders": len(self.orders), "meta": 1}


class AbelianLabeler(_Labeler):
    """Labeling of a table-backed abelian group: ``packed[x-1]`` is the
    label of x, and ``element_of_flat`` inverts the flat exponent index."""

    def __init__(self, scheme: AbelianScheme, packed, element_of_flat):
        self.scheme = scheme
        self.packed = _frozen(packed)
        self.n = len(self.packed)
        self.element_of_flat = _frozen(element_of_flat, id_dtype(self.n))

    def _bound_arrays(self, view):
        return {**self.scheme._bound_arrays(view), "packed": view(self.packed),
                "element_of_flat": view(self.element_of_flat)}

    def _labels(self, x, k):
        return [f"w{k} = packed[{x} - 1]"]

    def _elements(self, k):
        return f"element_of_flat[{self.scheme.expr('index', f'w{k}')}]"


def compress_abelian(group) -> tuple[AbelianScheme, AbelianLabeler]:
    coords = AbelianCoordinates(as_group(group))
    scheme = AbelianScheme(coords.orders)
    return scheme, AbelianLabeler(scheme, coords.packed, coords.element_of_flat)


# -- Hamiltonian ----------------------------------------------------------------

class HamiltonianScheme(_Scheme):
    """QPU store for Q8 x C: the fixed 8 x 8 quaternion table plus the
    abelian store for C.  A label packs the quaternion index minus one
    (three high bits) above the abelian label of the C part.  Labels are
    not checked."""

    _reads = {"table": 1}
    _label = ("w",)

    def __init__(self, abelian: AbelianScheme):
        self.abelian = abelian
        self.q8_table = Q8_TABLE

    def _bound_arrays(self, view):
        return {"q8": view(self.q8_table)}

    def _query(self):
        bits = self.abelian.bits
        return [f"w3 = ((q8[w1 >> {bits}, w2 >> {bits}] - 1) << {bits})"
                f" | {self.abelian.expr('add', 'w1', 'w2')}"]

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
        self.q_of = _frozen(q_of)
        self.c_of = _frozen(c_of)
        self.c_labels = _frozen(c_labels)
        self.n = len(q_of) - 1
        self.by_flat = _frozen(by_flat, id_dtype(self.n))

    def _bound_arrays(self, view):
        return {**self.scheme._bound_arrays(view), "q_of": view(self.q_of),
                "c_of": view(self.c_of), "c_labels": view(self.c_labels),
                "by_flat": view(self.by_flat)}

    def _labels(self, x, k):
        bits = self.scheme.abelian.bits
        return [f"w{k} = ((q_of[{x}] - 1) << {bits})"
                f" | c_labels[c_of[{x}] - 1]"]

    def _elements(self, k):
        bits, index = self.scheme.abelian.bits, self.scheme.abelian.expr
        return f"by_flat[w{k} >> {bits}, {index('index', f'w{k}')}]"


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


class ZGroupScheme(_Scheme):
    """QPU store for C_m x| C_d: the two orders and the action multiplier.

    A label is (i, s, j) for the element a**i * b**j, where s indexes the
    image of the C_m generator under conjugation by b**j.  The output
    label's s component is served from a d-entry table when d is small
    (one probe) and otherwise recomputed by modular exponentiation in
    O(log d) word operations.  Labels are not checked.
    """

    _label = ("i", "s", "j")

    def __init__(self, m: int, d: int, sigma1: int, table_max: int = 64):
        self.m, self.d, self.sigma1 = map(check_integer, (m, d, sigma1),
                                          ("order m", "order d", "multiplier"))
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

    def _bound_arrays(self, view):
        binds = {"m": self.m, "d": self.d, "sigma1": self.sigma1}
        if self.sigma_table is not None:
            binds["sigma_table"] = view(self.sigma_table)
        return binds

    def _sigma(self, out, j):
        """Lines that set ``out`` to sigma1**j mod m for the exponent ``j``
        in [0, d): a read of the table, or the exponentiation by squaring,
        unrolled over the bits of d - 1."""
        if self.sigma_table is not None:
            return [f"{out} = sigma_table[{j}]"]
        lines = [f"{out} = 1 % m", "q = sigma1 % m"]
        for k in range((self.d - 1).bit_length()):
            if k:
                lines.append("q = q * q % m")
            # multiply by q = sigma1**(2**k) exactly when bit k of j is set
            bit = f"{j} >> {k} & 1" if k else f"{j} & 1"
            lines.append(f"{out} = {out} * (1 + (q - 1) * ({bit})) % m")
        return lines

    def _query(self):
        return ["j3 = (j1 + j2) % +d", "i3 = (i1 + s1 * i2) % m",
                *self._sigma("s3", "j3")]

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
        self.i_of = _frozen(i_of)
        self.j_of = _frozen(j_of)
        self.n = len(i_of) - 1
        self.pairing = _frozen(pairing, id_dtype(self.n))

    def _bound_arrays(self, view):
        return {**self.scheme._bound_arrays(view), "i_of": view(self.i_of),
                "j_of": view(self.j_of), "pairing": view(self.pairing)}

    def _labels(self, x, k):
        return [f"j{k} = j_of[{x}]", f"i{k} = i_of[{x}]",
                *self.scheme._sigma(f"s{k}", f"j{k}")]

    def _elements(self, k):
        return f"pairing[i{k}, j{k}]"


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
        try:
            pi = np.asarray(pi)
        except ValueError:                          # ragged
            raise ValidationError("input is not a permutation of 1..n") from None
        if pi.size and pi.dtype.kind not in "iu":
            raise ValidationError(f"points must be integers, got {pi.dtype}")
        if pi.ndim != 1:
            raise ValidationError("input is not a permutation of 1..n")
        pi, n = pi.astype(np.int64), len(pi)
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
        power = self._render(("g", "d"),
                             [*self._power("p", "g", "d"), "return p"])
        n = self.n_points

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

    def _bound_arrays(self, view):
        return {"index": view(self.index_), "flat": view(self.flat_),
                "offsets": view(self.offsets_), "lengths": view(self.lengths_),
                "n_points": self.n_points}

    @staticmethod
    def _power(out, g, d):
        """Lines that set ``out`` to pi**d applied to ``g``, unchecked.

        The reads are the position lookup and the shifted cycle entry; a
        cycle's offset and length are its handle, as the start and length
        of a stored list would be.
        """
        return [f"c = index[{g} - 1]", "j = c // n_points", "r = c % n_points",
                f"{out} = flat[offsets[j] + (r + {d}) % lengths[j]]"]

    def space_slots(self) -> dict[str, int]:
        # contents + position index + the stored length per cycle + the
        # point count read by the divmod; cycle handles are array lengths
        return {"cycles": self.n_points, "index": self.n_points,
                "lengths": len(self.lengths_), "meta": 1}


# -- semidirect A x| C_m with abelian A ---------------------------------------------

class SemidirectScheme(_Scheme):
    """QPU store for G = A x| C_m with A abelian: the generator's action as
    a cycle structure, A's abelian store, the label of every A element,
    and the dense label-to-index inverse.

    A label is (abelian label of a, index of a, exponent of the cyclic
    part).  A query costs two cycle reads, one label read, and one inverse
    read.  Labels are not checked."""

    _reads = {"forward": 2, "backward": 2}
    _label = ("la", "ia", "k")

    def __init__(self, m: int, cycle: CycleStructure, abelian: AbelianScheme,
                 labels_of_a: np.ndarray, index_of_label: np.ndarray):
        self.m = check_integer(m, "order m")
        self.cycle = cycle
        self.abelian = abelian
        self.labels_of_a = _frozen(labels_of_a)
        self.index_of_label = _frozen(index_of_label)

    @property
    def a_order(self) -> int:
        return len(self.labels_of_a)

    def _bound_arrays(self, view):
        return {**self.cycle._bound_arrays(view), "m": self.m,
                "labels_of_a": view(self.labels_of_a),
                "index_of_label": view(self.index_of_label)}

    def _query(self):
        A = self.abelian
        return [*self.cycle._power("p", "ia2", "k1"),
                "b = labels_of_a[p - 1]",
                f"la3 = {A.expr('add', 'la1', 'b')}",
                f"ia3 = index_of_label[{A.expr('index', 'la3')}]",
                "k3 = (k1 + k2) % +m"]

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
        self.a_of = _frozen(a_of)
        self.j_of = _frozen(j_of)
        self.n = len(a_of) - 1
        self.pairing = _frozen(pairing, id_dtype(self.n))

    def _bound_arrays(self, view):
        return {**self.scheme._bound_arrays(view), "a_of": view(self.a_of),
                "j_of": view(self.j_of), "pairing": view(self.pairing)}

    def _labels(self, x, k):
        return [f"a{k} = a_of[{x}]", f"la{k} = labels_of_a[a{k}]",
                f"ia{k} = a{k} + 1", f"k{k} = j_of[{x}]"]

    def _elements(self, k):
        return f"pairing[ia{k} - 1, k{k}]"


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
    scheme and maps the product label back to an id, the three templates
    inlined in one body; it reads what the scheme reads.  ``space_slots``
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

    def _bound_arrays(self, view):
        return self.labeler_._bound_arrays(view)

    def _template(self):
        lab, sch = self.labeler_, self.scheme_
        return [
            *lab._labels("x", 1), *lab._labels("y", 2), *sch._query(),
            f"return {lab._elements(3)}"]

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
