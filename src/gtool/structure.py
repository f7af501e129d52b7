"""Structure discovery on Cayley tables.

Everything here runs at preprocessing time and may be superlinear: finding
abelian bases, testing for cyclic Sylow subgroups, locating semidirect and
quaternion-times-abelian decompositions, and testing simplicity.  All
searches use fixed iteration orders so results are reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .base import (PreconditionError, ValidationError, _generated,
                   _scalar_lines, check_integers)
from .groups import (Q8_TABLE, GroupTable, SemidirectSpec, _cyclic_table,
                     as_group, subgroup_closure)


# -- subgroup machinery -----------------------------------------------------

def subtable(G: GroupTable, elements) -> tuple[GroupTable, list[int]]:
    """Reindex a multiplicatively closed subset as its own group.

    Returns the local table and the local-to-global id map (local id i+1
    corresponds to ``elements[i]``).
    """
    elements = [int(e) for e in elements]
    idx = np.array(elements, dtype=np.int64)
    local = np.zeros(G.n + 1, dtype=np.int64)
    local[idx] = np.arange(1, idx.size + 1)
    sub = local[G.table[np.ix_(idx - 1, idx - 1)]]
    if sub.min() == 0:
        raise ValidationError("subset is not closed under multiplication")
    # a closed subset of a finite group is a subgroup
    return GroupTable(sub, validate=False), elements


def conjugacy_classes(G: GroupTable) -> list[list[int]]:
    """Conjugacy classes, each sorted, ordered by least member."""
    t = G.table
    inv = G.inverse
    all_idx = np.arange(G.n)
    assigned = np.zeros(G.n + 1, dtype=bool)
    classes = []
    for x in G.elements:
        if assigned[x]:
            continue
        gx = t[all_idx, x - 1]                    # g*x for all g
        conj = t[gx - 1, inv[all_idx] - 1]        # (g*x)*g^-1
        members = np.unique(conj)
        assigned[members] = True
        classes.append(members.tolist())
    return classes


def _is_normal(G: GroupTable, members, gens=None) -> int | None:
    """None if the subgroup ``members`` is normal, else the least g that
    conjugates it off itself.

    ``gens`` generate the subgroup (by default all its members): g<S>g^-1
    lies in H exactly when g s g^-1 does for every s in S.
    """
    inset = np.zeros(G.n + 1, dtype=bool)
    inset[np.asarray(members, dtype=np.int64)] = True
    s = np.asarray(members if gens is None else gens, dtype=np.int64) - 1
    # row g holds g s g^-1 for every s
    conj = G.table[G.table[:, s] - 1, G.inverse[:, None] - 1]
    bad = np.flatnonzero(~inset[conj].all(axis=1))
    return int(bad[0]) + 1 if bad.size else None


def _complement(G: GroupTable, members, d: int) -> int | None:
    """Least b of order d with <b> meeting the subgroup ``members`` only
    at the identity; all candidates walk their powers at once."""
    inset = np.zeros(G.n + 1, dtype=bool)
    inset[np.asarray(members, dtype=np.int64)] = True
    cand = np.flatnonzero(G.element_orders() == d) + 1
    cur, ok = cand, np.ones(cand.size, dtype=bool)
    for _ in range(d - 1):                  # b**1, ..., b**(d-1)
        ok &= ~inset[cur]
        cur = G.table[cur - 1, cand - 1]
    hit = np.flatnonzero(ok)
    return int(cand[hit[0]]) if hit.size else None


def _pairing(G: GroupTable, left, right):
    """(pairing, i_of, j_of) with ``pairing[i, j]`` = left[i] * right[j],
    and ``i_of`` / ``j_of`` mapping each product back to i and j (entry 0
    unused, -1); None when the products are not the group, each once."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    pairing = G.table[np.ix_(left - 1, right - 1)].astype(np.int64)
    i_of = np.full(G.n + 1, -1, dtype=np.int64)
    j_of = i_of.copy()
    i_of[pairing] = np.arange(left.size)[:, None]
    j_of[pairing] = np.arange(right.size)
    if pairing.size != G.n or i_of[1:].min() < 0:
        return None
    return pairing, i_of, j_of


# -- abelian structure ------------------------------------------------------

@dataclass(frozen=True)
class AbelianBasis:
    """Independent generators of prime-power order for an abelian group.

    Factors are grouped by ascending prime, with orders descending within
    each prime; the exponent-tuple map g -> (t_1, ..., t_k) with
    g = prod generators[i]**t_i is a bijection onto prod [0, orders[i]).
    """

    generators: tuple[int, ...]
    orders: tuple[int, ...]


def _prime_factors(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def abelian_basis(G: GroupTable) -> AbelianBasis:
    """Decompose an abelian group into independent prime-power cyclic factors.

    In each Sylow subgroup P, a step takes the least x in P whose coset xS,
    modulo the span S of the picks so far, has the largest order q, and
    picks the least element of order q in xS; it is independent of S.
    """
    G = as_group(G)
    if not G.is_abelian():
        raise PreconditionError("group is not abelian")
    orders_vec = G.element_orders()
    inset = np.zeros(G.n + 1, dtype=bool)
    gens: list[int] = []
    orders: list[int] = []
    for p, k in _prime_factors(G.n):
        P = np.flatnonzero(p ** k % orders_vec == 0) + 1
        S = np.array([G.identity])
        # each step multiplies S.size by q > 1, so this ends on any table
        while S.size < P.size:
            inset[S] = True
            # the order of xS is the least p**j with x**(p**j) in S, j <= k
            qord, cur = np.ones(P.size, dtype=np.int64), P
            for _ in range(k):
                qord[~inset[cur]] *= p
                cur = G._power(cur, p)
            inset[S] = False
            q = int(qord.max())
            coset = G.table[P[np.argmax(qord == q)] - 1, S - 1]
            hits = coset[orders_vec[coset - 1] == q]
            if not hits.size:
                raise ValidationError("a coset holds no element of its "
                                      "order: the table is not a group")
            gens.append(int(hits.min()))
            orders.append(q)
            S = G.table[np.ix_(S - 1, G.powers(gens[-1]) - 1)].ravel()
    return AbelianBasis(tuple(gens), tuple(orders))


class MixedRadix:
    """Codec for tuples in the box prod [0, sizes[i]).

    A packed word gives field i ``widths[i]`` = bits(sizes[i] - 1) bits
    starting at bit ``shifts[i]``, field 0 in the low bits.  The flat index
    is row-major, field 0 most significant (``strides``).  The methods
    ``pack``/``unpack`` (fields <-> word), ``flat``/``unflat`` (fields <->
    flat index), ``index`` (word -> flat index) and ``add`` (componentwise
    sum mod sizes of two words) take Python ints or int64 arrays alike.
    Each is generated once per ``sizes`` as one unrolled expression (see
    ``_codec_source``), cached, and bound on its first use.
    """

    def __init__(self, sizes):
        self.sizes = check_integers(sizes, "size")
        self.widths = tuple((s - 1).bit_length() for s in self.sizes)
        self.shifts = tuple(sum(self.widths[:i]) for i in range(len(self.sizes)))
        self.bits = sum(self.widths)
        if self.bits > 63:
            raise PreconditionError(
                f"packed coordinates need {self.bits} bits, max is 63")
        self.strides = tuple(math.prod(self.sizes[i + 1:])
                             for i in range(len(self.sizes)))
        # each is an int64 literal of the generated code; 2**63 fits the
        # bit budget as a size, and as a stride after fields of size 1
        if not all(0 < v < 1 << 63 for v in self.sizes + self.strides):
            raise PreconditionError(f"sizes {self.sizes} and strides "
                                    f"{self.strides} must be in [1, 2**63)")
        self.size = math.prod(self.sizes)
        self._fields = tuple(zip(self.shifts,
                                 [(1 << w) - 1 for w in self.widths],
                                 self.sizes))

    def __getattr__(self, name):    # only for a name not yet bound
        if name not in _CODEC_TERMS:
            raise AttributeError(name)
        fn = self.__dict__[name] = _generated((self.sizes, name),
                                              _codec_source, self, name)
        return fn

    def __reduce__(self):
        # rebuilt from the sizes: a generated function does not pickle
        return type(self), (self.sizes,)

    def terms(self, name: str, *args) -> list[str]:
        """The per-field terms of the method ``name`` applied to ``args``,
        with the fields' shifts, masks, sizes and strides as literals and
        no term that shifts by 0 or multiplies by 1.  ``pack`` and ``flat``
        take one sequence of field expressions, the others names."""
        params, term, op = _CODEC_TERMS[name]
        if params == "fields":
            fields, x, y = [_atom(f) for f in args[0]], "", ""
        else:
            fields, (x, y) = (), ([_atom(w) for w in args] + [""])[:2]
        return [term.format(
            field=fields[i] if fields else "", arg=x, size=size,
            shl=f" << {s}" if s else "",
            times=f" * {st}" if st > 1 else "",
            div=f" // {st}" if st > 1 else "",
            a=f"({x} >> {s} & {mask})" if s else f"({x} & {mask})",
            b=f"({y} >> {s} & {mask})" if s else f"({y} & {mask})")
            for i, ((s, mask, size), st) in enumerate(zip(self._fields,
                                                          self.strides))
            # index and add skip the 0-bit fields, which hold only 0
            if mask or op == ", " or params == "fields"]

    def expr(self, name: str, *args) -> str:
        """The method ``name`` applied to ``args`` as one parenthesized
        expression of its ``terms``, to inline in a query template;
        ``unpack`` and ``unflat`` give a tuple, and no input is the
        result."""
        params, _, op = _CODEC_TERMS[name]
        terms = self.terms(name, *args)
        if op == ", ":
            return "(" + "".join(t + ", " for t in terms) + ")"
        if params == "fields" and len(terms) == 1 and terms[0] == args[0][0]:
            return f"(+{terms[0]})"     # a new value, not the input field
        # with no term: 0, or a zero shaped like the first word
        return _atom(op.join(terms) or ("0" if params == "fields"
                                        else f"{_atom(args[0])} & 0"))

    def holds(self, words) -> bool:
        """True iff every word of the nonempty array ``words`` (>= 0) packs
        a tuple of the box: each field is below its size, and no bit is
        set above the fields."""
        *low, (top, _, top_size) = self._fields or ((0, 0, 1),)
        # the top field is read with every bit above it
        return bool((words >> top).max() < top_size) and all(
            ((words >> s) & mask).max() < size for s, mask, size in low)


# per method: its parameters, the term of field i, and how terms join (a
# tuple for ", "); {field} is field i of a field sequence, {arg} the first
# argument, {a} and {b} the field's bits in the first and second word, and
# {shl}, {times}, {div} its shift and stride, each omitted when a no-op;
# add marks its reduction as of a sum of two residues (``base._SUM_MOD``)
_CODEC_TERMS = {
    "pack": ("fields", "{field}{shl}", " | "),
    "unpack": ("word", "{a}", ", "),
    "flat": ("fields", "{field}{times}", " + "),
    "unflat": ("index", "{arg}{div} % {size}", ", "),
    "index": ("word", "{a}{times}", " + "),
    "add": ("w1, w2", "({a} + {b}) % +{size}{shl}", " | "),
}


def _atom(expr: str) -> str:
    """``expr``, parenthesized unless it is a name or a subscript of one."""
    return expr if re.fullmatch(r"\w+(\[\w+\])?", expr) else f"({expr})"


def _codec_source(box: MixedRadix, name: str) -> str:
    """``box``'s method ``name`` as one function of one expression."""
    params = _CODEC_TERMS[name][0]
    args = ([f"fields[{i}]" for i in range(len(box.sizes))],) \
        if params == "fields" else params.split(", ")
    (body,) = _scalar_lines([f"return {box.expr(name, *args)}"])
    return f"def {name}({params}):\n    {body}\n"


class AbelianCoordinates:
    """Exponent-tuple coordinate system for an abelian group.

    ``coords[g-1]`` holds the tuple (t_1, ..., t_k) with
    g = prod generators[i]**t_i.  ``codec`` is the mixed-radix codec over
    the factor orders; ``packed`` holds each element's packed tuple and
    ``element_of_flat`` is the dense inverse of the flat index.
    """

    def __init__(self, G: GroupTable, basis: AbelianBasis | None = None):
        self.basis = basis if basis is not None else abelian_basis(G)
        self.orders = self.basis.orders
        self.codec = MixedRadix(self.orders)
        n = G.n
        # the products over the box in flat order (field 0 most
        # significant): each generator's powers times every product so far
        flat = np.array([G.identity], dtype=np.int64)
        for g, d in zip(self.basis.generators, self.orders):
            flat = G.table[np.ix_(flat - 1, G.powers(g)[:d] - 1)].ravel()
        if flat.size != n or np.unique(flat).size != n:
            raise ValidationError(
                "generators are not independent: the products over the "
                "exponent box are not the group")
        self.element_of_flat = flat.astype(np.int64)
        flat_of = np.empty(n, dtype=np.int64)
        flat_of[flat - 1] = np.arange(n)
        fields = self.codec.unflat(flat_of)
        # with no factors (k = 0) fields is empty: coords has no columns,
        # and pack returns 0, which | broadcasts to n ids
        self.coords = np.array(fields, dtype=np.int64).reshape(-1, n).T.copy()
        self.packed = np.zeros(n, dtype=np.int64) | self.codec.pack(fields)


# -- Sylow / Z-group structure ----------------------------------------------

def is_z_group(G: GroupTable) -> bool:
    """True iff every Sylow subgroup is cyclic."""
    return sylow_violation(as_group(G)) is None


def sylow_violation(G: GroupTable) -> tuple[int, int] | None:
    """(p, p^k) for the first prime whose Sylow subgroup is not cyclic.

    A Sylow p-subgroup is cyclic iff some element has order p^k, the
    largest power of p dividing n: its span is a full Sylow p-subgroup,
    and all Sylow p-subgroups are conjugate.
    """
    orders = set(int(v) for v in G.element_orders())
    for p, k in _prime_factors(G.n):
        if p ** k not in orders:
            return p, p ** k
    return None


@dataclass(frozen=True)
class SemidirectDecomposition:
    """An internal decomposition G = A x| <b> with A normal and abelian.

    ``a_elements[i]`` is the global id of the local A element i+1;
    ``b_powers[j]`` is the global id of b**j.  ``pairing[i, j]`` holds the
    global id of a_elements[i] * b_powers[j]; ``a_of`` / ``j_of`` invert it.
    ``spec`` reconstructs an isomorphic abstract product via
    :func:`gtool.groups.make_semidirect`.
    """

    spec: SemidirectSpec
    a_elements: tuple[int, ...]
    b_element: int
    b_powers: tuple[int, ...]
    pairing: np.ndarray
    a_of: np.ndarray       # global id -> local A index (0-based)
    j_of: np.ndarray       # global id -> exponent of b
    cyclic_a_generator: int | None = None   # set when A is cyclic in power order
    multiplier: int | None = None           # exponent t with b a b^-1 = a**t

    @property
    def a_order(self) -> int:
        return len(self.a_elements)

    @property
    def b_order(self) -> int:
        return len(self.b_powers)


def _build_decomposition(G: GroupTable, a_elements, b: int,
                         cyclic_a: int | None) -> SemidirectDecomposition:
    """Assemble the spec/pairing bundle for a verified (A, <b>) split;
    ``a_elements`` lists A in local id order (powers of ``cyclic_a``
    when that is set)."""
    a_elements = np.asarray(a_elements, dtype=np.int64)
    b_powers = G.powers(b)
    m, d = a_elements.size, b_powers.size
    if cyclic_a is not None:
        A_t = _cyclic_table(m)
    elif np.array_equal(a_elements, G.elements):
        A_t = G                     # A = G, listed 1..n: no copy of the table
    else:
        A_t = subtable(G, a_elements)[0]
    local_a = np.zeros(G.n + 1, dtype=np.int64)
    local_a[a_elements] = np.arange(1, m + 1)
    # action[j, i] is the local id of b**j * a_i * b**-j
    ba = G.table[np.ix_(b_powers - 1, a_elements - 1)]
    action = local_a[G.table[ba - 1, G.inverse[b_powers - 1, None] - 1]]
    if action.min() == 0:
        raise ValidationError("A is not normalized by b")
    paired = _pairing(G, a_elements, b_powers)
    if paired is None:
        raise ValidationError("pairing A x <b> does not cover the group")
    pairing, a_of, j_of = paired
    multiplier = None
    if cyclic_a is not None:
        # image of the A generator (local id 2 = a**1) under conjugation by b
        multiplier = int(action[1 % d, 1]) - 1 if m > 1 else 0
    return SemidirectDecomposition(
        spec=SemidirectSpec(A_t, _cyclic_table(d), action),
        a_elements=tuple(a_elements.tolist()), b_element=b,
        b_powers=tuple(b_powers.tolist()), pairing=pairing, a_of=a_of,
        j_of=j_of, cyclic_a_generator=cyclic_a, multiplier=multiplier)


def find_zgroup_decomposition(G: GroupTable) -> SemidirectDecomposition:
    """Split a group with cyclic Sylow subgroups as C_m x| C_d.

    Searches cyclic subgroups <a> by descending order and ascending
    generator id, keeps normal ones, and pairs them with the first
    complement generator of matching order.
    """
    G = as_group(G)
    violation = sylow_violation(G)
    if violation is not None:
        p, pk = violation
        raise PreconditionError(
            f"Sylow {p}-subgroup not cyclic: no element of order {pk}")
    orders = G.element_orders()
    for m in sorted(set(orders.tolist()), reverse=True):
        for a in (np.flatnonzero(orders == m) + 1).tolist():
            members = G.powers(a)
            if _is_normal(G, members, [a]) is not None:
                continue
            b = _complement(G, members, G.n // m)
            if b is not None:
                return _build_decomposition(G, members, b, cyclic_a=a)
    raise PreconditionError(
        "no cyclic-by-cyclic decomposition found despite cyclic Sylow "
        "subgroups; the Sylow test misreported")


def find_semidirect_decomposition(G: GroupTable) -> SemidirectDecomposition:
    """Split G as A x| C_d with A abelian normal and cyclic complement.

    An abelian G splits as A = G with b = e.  Otherwise the candidate
    subgroups A are the normal closures of single elements whose conjugacy
    class commutes pairwise (these are the abelian ones, never G), tried
    by descending size then ascending closure generator.  Raises when no
    such split exists.
    """
    G = as_group(G)
    candidates: list[tuple[int, int, tuple[int, ...]]] = []
    if G.is_abelian():
        candidates.append((-G.n, 0, tuple(G.elements)))
    else:
        seen = set()
        for cls in conjugacy_classes(G):
            c = np.asarray(cls) - 1
            among = G.table[np.ix_(c, c)]
            if not np.array_equal(among, among.T):
                continue
            members = tuple(subgroup_closure(G, cls))
            if members not in seen:
                seen.add(members)
                candidates.append((-len(members), cls[0], members))
        candidates.sort()
    orders = G.element_orders()
    for _, _, members in candidates:
        m = len(members)
        b = _complement(G, members, G.n // m)
        if b is None:
            continue
        # A is cyclic when it holds an element of order m: take the least
        members = np.array(members, dtype=np.int64)
        full = members[orders[members - 1] == m]
        if full.size:
            cyc = int(full[0])
            return _build_decomposition(G, G.powers(cyc), b, cyclic_a=cyc)
        return _build_decomposition(G, members, b, cyclic_a=None)
    raise PreconditionError(
        "no abelian-normal-by-cyclic decomposition exists for this group")


# -- Hamiltonian structure ----------------------------------------------------

@dataclass(frozen=True)
class HamiltonianDecomposition:
    """Internal direct-product split G = Q x C with Q quaternion, C abelian.

    ``q8_embedding[q-1]`` maps the canonical quaternion numbering into G;
    ``c_elements`` lists the complement.  ``pairing[q-1, c-1]`` is the
    global id of embedding(q) * c_elements[c-1]; ``q_of`` / ``c_of``
    invert it.
    """

    q8_embedding: tuple[int, ...]
    c_table: GroupTable
    c_elements: tuple[int, ...]
    pairing: np.ndarray
    q_of: np.ndarray
    c_of: np.ndarray


def dedekind_violation(G: GroupTable) -> tuple[int, int] | None:
    """(x, g) with g<x>g^-1 not in <x>, or None when all cyclic subgroups
    are normal (which makes every subgroup normal)."""
    for x in G.elements:
        g = _is_normal(G, G.powers(x), [x])
        if g is not None:
            return x, g
    return None


def _q8_embedding(G: GroupTable) -> list[int] | None:
    """The first (x, y), ascending, with x and y of order 4, y outside <x>,
    y^2 = x^2 and y x = x^3 y whose products realize ``Q8_TABLE``, as the
    images of the canonical numbering e, x, x^2, x^3, y, xy, x^2y, x^3y."""
    t = G.table
    ys = np.flatnonzero(G.element_orders() == 4) + 1
    for x in ys.tolist():
        px = G.powers(x)                        # e, x, x^2, x^3
        ok = ((t[ys - 1, ys - 1] == px[2]) & ~np.isin(ys, px)
              & (t[ys - 1, x - 1] == t[px[3] - 1, ys - 1]))
        for y in ys[ok].tolist():
            emb = np.concatenate([px, t[px - 1, y - 1]])
            if np.unique(emb).size == 8 and np.array_equal(
                    t[np.ix_(emb - 1, emb - 1)], emb[Q8_TABLE - 1]):
                return emb.tolist()
    return None


def find_hamiltonian_decomposition(G: GroupTable) -> HamiltonianDecomposition:
    """Split a nonabelian Dedekind group as quaternion times abelian."""
    G = as_group(G)
    if G.is_abelian():
        raise PreconditionError("group is abelian, not Hamiltonian")
    witness = dedekind_violation(G)
    if witness is not None:
        x, g = witness
        raise PreconditionError(
            f"subgroup <{x}> is not normal: conjugation by {g} leaves it")
    if G.n % 8:
        raise PreconditionError("order not divisible by 8")
    emb = _q8_embedding(G)
    if emb is None:
        raise PreconditionError("no quaternion subgroup found")

    t = G.table
    x, y = emb[1], emb[4]
    idx = np.arange(G.n)
    cent = np.nonzero((t[idx, x - 1] == t[x - 1, idx]) &
                      (t[idx, y - 1] == t[y - 1, idx]))[0] + 1
    Z, z_globals = subtable(G, cent)
    if not Z.is_abelian() or Z.n * 4 != G.n:
        raise PreconditionError("centralizer of the quaternion part is malformed")
    coords = AbelianCoordinates(Z)
    for d in coords.orders:
        if d % 2 == 0 and d != 2:
            raise PreconditionError(
                "2-part of the centralizer is not elementary abelian")
    z_local = z_globals.index(emb[2]) + 1      # x^2 inside Z
    ztup = coords.coords[z_local - 1]
    pivots = [i for i, d in enumerate(coords.orders)
              if d == 2 and ztup[i] == 1]
    if not pivots:
        raise PreconditionError("central involution has no order-2 coordinate")
    drop = pivots[0]
    gens = [g for i, g in enumerate(coords.basis.generators) if i != drop]
    c_local = subgroup_closure(Z, gens)
    c_globals = sorted(z_globals[v - 1] for v in c_local)
    C, _ = subtable(G, c_globals)
    paired = _pairing(G, emb, c_globals)
    if paired is None:
        raise PreconditionError("quaternion and complement do not cover the group")
    pairing, q_of, c_of = paired
    q_of[1:] += 1                               # 1-based ids
    c_of[1:] += 1
    return HamiltonianDecomposition(
        q8_embedding=tuple(emb), c_table=C, c_elements=tuple(c_globals),
        pairing=pairing, q_of=q_of, c_of=c_of)


# -- simplicity ---------------------------------------------------------------

def is_simple(G: GroupTable) -> bool:
    """Standard definition: no proper nontrivial normal subgroup.

    Abelian groups are simple exactly at prime order.  For nonabelian
    groups it suffices to check that the normal closure of each nontrivial
    conjugacy class is the whole group.
    """
    G = as_group(G)
    if G.n == 1:
        return False
    if G.is_abelian():
        return len(_prime_factors(G.n)) == 1 and _prime_factors(G.n)[0][1] == 1
    for cls in conjugacy_classes(G):
        if cls == [G.identity]:
            continue
        if len(subgroup_closure(G, cls)) != G.n:
            return False
    return True
