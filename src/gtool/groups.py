"""Cayley-table groups: loading, validation, and standard constructions.

Elements of a group of order n are the integers 1..n.  The table is the
ground truth every other data structure in this package is verified
against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .base import (ParseError, ValidationError, check_cayley_table,
                   check_element_id, check_integer, check_pairs)


class GroupTable:
    """A finite group given by its full n x n multiplication table.

    ``table[x-1, y-1]`` holds the product x*y.  Validation always checks
    the Latin-square property, a two-sided identity, and two-sided
    inverses; the O(n^3) associativity check runs only with ``strict=True``
    (or via :meth:`check_associativity`); ``validate=False`` skips every
    check, for tables that are groups by construction, and derives the
    identity and inverses the same way.  Loaded tables may place the
    identity anywhere; the constructors in this module put it at 1.

    Instances are immutable after construction and safe to share across
    threads.
    """

    rep_kind = "cayley"

    def __init__(self, table, *, strict: bool = False, validate: bool = True):
        self.table = check_cayley_table(table)
        self.table.setflags(write=False)
        self.n = int(self.table.shape[0])
        self._orders = None
        self._abelian = None
        t = self.table
        ids = np.arange(1, self.n + 1, dtype=np.int32)
        if validate:
            _check_latin(t, ids)
        # in a Latin square at most one row equals the ids: the left identity
        id_rows = np.nonzero((t == ids).all(axis=1))[0]
        self.identity = int(id_rows[0]) + 1 if id_rows.size else 1
        self.inverse = (1 + np.argmax(t == self.identity, axis=1)).astype(np.int32)
        self.inverse.setflags(write=False)
        if not validate:
            return

        e = self.identity
        if not id_rows.size:
            raise ValidationError("no two-sided identity element",
                                  axiom="identity", witness=None)
        bad = np.nonzero(t[:, e - 1] != ids)[0]
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"element {e} is a left identity but "
                f"{x + 1}*{e} = {t[x, e - 1]}",
                axiom="identity", witness=(x + 1, e, int(t[x, e - 1])))

        inv = self.inverse
        left = t[inv - 1, np.arange(self.n)]
        bad = np.nonzero(left != e)[0]
        if bad.size:
            x = int(bad[0])
            raise ValidationError(
                f"right inverse of {x + 1} is {inv[x]} but "
                f"{inv[x]}*{x + 1} = {left[x]}",
                axiom="inverse", witness=(x + 1, int(inv[x]), int(left[x])))

        if strict:
            self.check_associativity()

    def check_associativity(self) -> None:
        """O(n^3) check of (x*y)*z = x*(y*z); raises with the first witness."""
        t0 = self.table.astype(np.intp) - 1
        for x in range(self.n):
            left = self.table[t0[x], :]          # (y, z) -> (x*y)*z
            right = self.table[x, t0]            # (y, z) -> x*(y*z)
            if not np.array_equal(left, right):
                y, z = map(int, np.argwhere(left != right)[0])
                raise ValidationError(
                    f"({x + 1}*{y + 1})*{z + 1} = {left[y, z]} but "
                    f"{x + 1}*({y + 1}*{z + 1}) = {right[y, z]}",
                    axiom="associativity", witness=(x + 1, y + 1, z + 1))

    # -- arithmetic ------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def mult(self, x: int, y: int) -> int:
        x = check_element_id(x, self.n)
        y = check_element_id(y, self.n)
        return int(self.table[x - 1, y - 1])

    # estimator-style aliases so a bare table can serve as a baseline rep
    multiply = mult

    def power(self, x: int, e: int) -> int:
        """x**e for e >= 0 by square-and-multiply on the table."""
        x = check_element_id(x, self.n)
        e = check_integer(e, "exponent")
        if e < 0:
            x, e = int(self.inverse[x - 1]), -e
        return int(self._power(x, e))

    def _power(self, x, e: int):
        """x**e for e >= 0 and validated ids given as an int or an array."""
        acc, base = self.identity, x
        while e:
            if e & 1:
                acc = self.table[acc - 1, base - 1]
            base = self.table[base - 1, base - 1]
            e >>= 1
        return acc

    def element_order(self, x: int) -> int:
        x = check_element_id(x, self.n)
        cur, k = x, 1
        while cur != self.identity:
            cur = int(self.table[cur - 1, x - 1])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, index x-1; cached.

        Every order divides n, so for each divisor d of n in ascending
        order x**d is computed for all x still unresolved at once, by
        square-and-multiply over the table, and x gets the least d with
        x**d = e.  That is :meth:`element_order` whenever the table is
        associative; an element of a non-associative table that no
        divisor resolves falls back to it.
        """
        if self._orders is None:
            orders = np.zeros(self.n, dtype=np.int64)
            todo = np.arange(1, self.n + 1, dtype=np.int64)
            for d in [k for k in range(1, self.n + 1) if self.n % k == 0]:
                hit = self._power(todo, d) == self.identity
                orders[todo[hit] - 1] = d
                todo = todo[~hit]
                if not todo.size:
                    break
            for x in todo.tolist():
                orders[x - 1] = self.element_order(x)
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def powers(self, x: int) -> np.ndarray:
        """x**0, ..., x**(o-1) as int64, for the order o of x.

        Each step doubles the known powers: x**k, ..., x**(2k-1) is one
        gather of the first k times x**k.
        """
        x = check_element_id(x, self.n)
        o = int(self.element_orders()[x - 1])
        out = np.array([self.identity], dtype=np.int64)
        step = x                                    # x ** out.size
        while out.size < o:
            out = np.concatenate([out, self.table[out - 1, step - 1]])
            step = int(self.table[step - 1, step - 1])
        return out[:o]

    def is_abelian(self) -> bool:
        """Whether the table is symmetric; cached."""
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def predict(self, X) -> np.ndarray:
        pairs = check_pairs(X, self.n)
        return self.table[pairs[:, 0] - 1, pairs[:, 1] - 1].astype(np.int64)

    def space_slots(self) -> dict[str, int]:
        return {"table": self.n * self.n, "inverse": self.n, "meta": 2}

    def _count(self, ledger, y) -> None:
        ledger.count("table")

    def probe_bounds(self) -> tuple[int, int]:
        return (1, 1)

    # -- text interchange format ------------------------------------------

    def dumps(self) -> str:
        lines = [str(self.n)]
        lines.extend(" ".join(map(str, row)) for row in self.table)
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    def __repr__(self) -> str:
        return f"GroupTable(n={self.n}, identity={self.identity})"


def _check_latin(t, ids) -> None:
    """Raise at the first row, else the first column, that is not a
    permutation of ``ids``.  Rows of ``t`` and then of ``t.T`` are sorted
    64 at a time, which bounds the sort's copy at 64 lines."""
    n = len(ids)
    for kind, across, axiom, lines in (("row", "columns", "latin-row", t),
                                       ("column", "rows", "latin-col", t.T)):
        for i0 in range(0, n, 64):
            bad = np.nonzero((np.sort(lines[i0:i0 + 64]) != ids).any(axis=1))[0]
            if bad.size:
                i = i0 + int(bad[0])
                a, b = _duplicate_positions(lines[i])
                raise ValidationError(
                    f"{kind} {i + 1} is not a permutation of 1..{n}: "
                    f"{across} {a + 1} and {b + 1} both hold {lines[i, a]}",
                    axiom=axiom, witness=(i + 1, a + 1, b + 1) if kind == "row"
                    else (a + 1, b + 1, i + 1))


def _duplicate_positions(vec) -> tuple[int, int]:
    seen = {}
    for j, v in enumerate(vec):
        v = int(v)
        if v in seen:
            return seen[v], j
        seen[v] = j
    raise AssertionError("no duplicate found in non-permutation row")


def load_cayley_table(text, *, strict: bool = False) -> GroupTable:
    """Parse the text interchange format.

    Line 1 holds n; lines 2..n+1 hold n whitespace-separated ids in
    [1, n], where row i column j is the product i*j.  A trailing newline
    is optional; blank interior lines are rejected.  The body is parsed
    by numpy as int64, so a token must be an optional sign and ASCII
    digits: a token that Python's ``int()`` accepts but numpy does not
    (``0_1``, non-ASCII digits) is a :class:`ParseError`, as is one
    outside the int64 range.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not ASCII: {exc}") from None
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"header is not an integer: {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"order must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = lines[1:]
    try:
        table = np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        table = None
    if table is None or table.shape != (n, n):
        # numpy skips blank lines and names no row; find the first bad one
        raise ParseError(_row_fault(rows, n))
    return GroupTable(table, strict=strict)


_INT64_TOKEN = re.compile(r"[+-]?[0-9]+")


def _row_fault(rows: list[str], n: int) -> str:
    for i, line in enumerate(rows, start=1):
        parts = line.split()
        if len(parts) != n:
            return f"row {i} has {len(parts)} entries, expected {n}"
        for p in parts:
            if not _INT64_TOKEN.fullmatch(p):
                return f"row {i} contains a non-integer entry {p!r}"
            if not -(1 << 63) <= int(p) < (1 << 63):
                return f"row {i} holds {p}, outside the int64 range"
    return "table body is not an n x n integer array"


def load_cayley_file(path, *, strict: bool = False) -> GroupTable:
    with open(path, "rb") as fh:
        return load_cayley_table(fh.read(), strict=strict)


def as_group(X) -> GroupTable:
    """Coerce a GroupTable or raw n x n array-like into a GroupTable."""
    if isinstance(X, GroupTable):
        return X
    return GroupTable(X)


# -- constructions ---------------------------------------------------------

def make_cyclic(n: int) -> GroupTable:
    """Cyclic group of order n; element i+1 represents g**i, identity 1."""
    n = check_integer(n, "cyclic order")
    if n < 1:
        raise ValidationError(f"cyclic order must be >= 1, got {n}")
    i = np.arange(n, dtype=np.int64)
    table = (i[:, None] + i[None, :]) % n + 1
    return GroupTable(table)


def make_direct(A: GroupTable, B: GroupTable) -> GroupTable:
    """Direct product; the pair (a, b) is numbered (a-1)*|B| + b."""
    nA, nB = A.n, B.n
    n = nA * nB
    if n > np.iinfo(np.int32).max:
        raise ValidationError(f"order {n} exceeds the supported id width")
    ta = A.table.astype(np.int64) - 1
    tb = B.table.astype(np.int64)
    table = (ta[:, None, :, None] * nB + tb[None, :, None, :]).reshape(n, n)
    return GroupTable(table)


@dataclass(frozen=True)
class SemidirectSpec:
    """Ingredients of a semidirect product A x| B.

    ``action[b-1]`` is the permutation of [1, |A|] realizing the
    automorphism of A associated with b; it must be a table automorphism,
    the map b -> action[b] must be a homomorphism, and the identity of B
    must act trivially.
    """

    A: GroupTable
    B: GroupTable
    action: np.ndarray  # (|B|, |A|), values in 1..|A|

    def validate(self) -> None:
        act = np.asarray(self.action, dtype=np.int64)
        nA, nB = self.A.n, self.B.n
        if act.shape != (nB, nA):
            raise ValidationError(
                f"action must have shape ({nB}, {nA}), got {act.shape}")
        ids = np.arange(1, nA + 1)
        ta = self.A.table
        for b in range(nB):
            perm = act[b]
            if not np.array_equal(np.sort(perm), ids):
                raise ValidationError(
                    f"action of {b + 1} is not a permutation of 1..{nA}",
                    axiom="action-permutation", witness=(b + 1,))
            lhs = perm[ta - 1]
            rhs = ta[np.ix_(perm - 1, perm - 1)]
            if not np.array_equal(lhs, rhs):
                x, y = map(int, np.argwhere(lhs != rhs)[0])
                raise ValidationError(
                    f"action of {b + 1} is not an automorphism: maps "
                    f"{x + 1}*{y + 1} to {lhs[x, y]} but products map to {rhs[x, y]}",
                    axiom="action-automorphism", witness=(b + 1, x + 1, y + 1))
        eB = self.B.identity
        if not np.array_equal(act[eB - 1], ids):
            raise ValidationError("identity of B must act trivially",
                                  axiom="action-identity", witness=(eB,))
        for b1 in range(nB):
            for b2 in range(nB):
                b12 = int(self.B.table[b1, b2])
                composed = act[b1][act[b2] - 1]
                if not np.array_equal(act[b12 - 1], composed):
                    a = int(np.nonzero(act[b12 - 1] != composed)[0][0])
                    raise ValidationError(
                        f"action is not a homomorphism at ({b1 + 1}, {b2 + 1}): "
                        f"action[{b12}]({a + 1}) = {act[b12 - 1][a]} but "
                        f"composition gives {composed[a]}",
                        axiom="action-homomorphism",
                        witness=(b1 + 1, b2 + 1, a + 1))


def make_semidirect(spec: SemidirectSpec) -> GroupTable:
    """Semidirect product with rule (a1, b1)*(a2, b2) = (a1*phi(b1)(a2), b1*b2).

    Numbering matches :func:`make_direct`, so a trivial action reproduces
    the direct-product table exactly.
    """
    spec.validate()
    nA, nB = spec.A.n, spec.B.n
    n = nA * nB
    act = np.asarray(spec.action, dtype=np.int64)
    ta = spec.A.table.astype(np.int64)
    tb = spec.B.table.astype(np.int64)
    table = np.empty((n, n), dtype=np.int64)
    for b1 in range(nB):
        phi = act[b1]                       # (nA,), image of each a2
        ra = ta[:, phi - 1]                 # (a1, a2) -> a1 * phi(a2)
        rb = tb[b1]                         # (b2,) -> b1 * b2
        vals = (ra[:, :, None] - 1) * nB + rb[None, None, :]
        rows = np.arange(nA) * nB + b1      # rows owned by (a1, b1)
        table[rows, :] = vals.reshape(nA, nA * nB)
    return GroupTable(table)


def make_quaternion() -> GroupTable:
    """The order-8 quaternion group.

    Canonical numbering 1:e, 2:a, 3:a^2, 4:a^3, 5:b, 6:ab, 7:a^2b, 8:a^3b
    under the relations a^4 = e, b^2 = a^2, and b*a = a^3*b.
    """
    def mul(p, q):
        i1, j1 = p
        i2, j2 = q
        if j1 == 0:
            return ((i1 + i2) % 4, j2)
        if j2 == 0:
            return ((i1 - i2) % 4, 1)
        return ((i1 - i2 + 2) % 4, 0)

    elems = [(i, j) for j in (0, 1) for i in range(4)]
    index = {p: 1 + t for t, p in enumerate(elems)}
    table = [[index[mul(p, q)] for q in elems] for p in elems]
    return GroupTable(np.array(table, dtype=np.int64))


# the canonical quaternion table, built and validated once; int64, as
# the Hamiltonian kernel shifts its entries
Q8_TABLE = make_quaternion().table.astype(np.int64)
Q8_TABLE.setflags(write=False)


def make_dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m as the split extension of C_m by inversion."""
    if m < 1:
        raise ValidationError(f"dihedral parameter must be >= 1, got {m}")
    A = make_cyclic(m)
    B = make_cyclic(2)
    inversion = 1 + (-np.arange(m, dtype=np.int64)) % m
    action = np.stack([np.arange(1, m + 1, dtype=np.int64), inversion])
    return make_semidirect(SemidirectSpec(A, B, action))


def make_abelian(orders) -> GroupTable:
    """Direct product of cyclic groups with the given orders."""
    orders = [check_integer(d, "factor order") for d in orders]
    if not orders:
        raise ValidationError("need at least one cyclic factor")
    G = make_cyclic(orders[0])
    for d in orders[1:]:
        G = make_direct(G, make_cyclic(d))
    return G


def _perm_table(perms: np.ndarray) -> GroupTable:
    """Table of the permutations ``perms`` (rows, in lexicographic order).

    Entry (i, j, t) of ``P[:, P]`` is (p_i * p_j)(t); each permutation is
    coded as a base-k integer, and ``ids`` maps codes back.  64 rows at a
    time bound the temporaries below the table.
    """
    n, k = perms.shape
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int32)
    ids = np.zeros(k ** k, dtype=np.int32)
    ids[perms @ weights] = np.arange(1, n + 1)
    table = np.empty((n, n), dtype=np.int32)
    for r in range(0, n, 64):
        table[r:r + 64] = ids[perms[r:r + 64][:, perms] @ weights]
    return GroupTable(table)


def make_symmetric(k: int) -> GroupTable:
    """Symmetric group S_k on lexicographically ordered permutations.

    Products compose left-to-right as functions: (p*q)(t) = p(q(t)).
    """
    k = check_integer(k, "symmetric degree")
    if not 1 <= k <= 7:
        raise ValidationError(f"symmetric degree must be in [1, 7], got {k}")
    return _perm_table(np.array(list(permutations(range(k))), dtype=np.int32))


def make_alternating(k: int) -> GroupTable:
    """Alternating group A_k (even permutations, lexicographic order)."""
    k = check_integer(k, "alternating degree")
    if not 1 <= k <= 7:
        raise ValidationError(f"alternating degree must be in [1, 7], got {k}")
    perms = np.array(list(permutations(range(k))), dtype=np.int32)
    i, j = np.triu_indices(k, 1)
    inversions = np.count_nonzero(perms[:, i] > perms[:, j], axis=1)
    return _perm_table(perms[inversions % 2 == 0])


def make_psl2(p: int) -> GroupTable:
    """PSL(2, p) for prime p: 2x2 determinant-1 matrices mod p, mod +-I.

    Each class {M, -M} is represented by its lexicographically smaller
    entry tuple; the identity is numbered 1 and the rest follow in sorted
    order.
    """
    p = check_integer(p, "prime p")
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValidationError(f"{p} is not prime")

    def canon(a, b, c, d):
        # the base-p code of (a, b, c, d) ascends with the tuple order
        code = ((a % p * p + b % p) * p + c % p) * p + d % p
        neg = ((-a % p * p + -b % p) * p + -c % p) * p + -d % p
        return np.minimum(code, neg)

    a, b, c, d = np.indices((p,) * 4).reshape(4, -1)
    det1 = (a * d - b * c) % p == 1
    codes = np.unique(canon(a[det1], b[det1], c[det1], d[det1]))
    ident = int(canon(1, 0, 0, 1))
    ordered = np.concatenate(([ident], codes[codes != ident]))
    ids = np.zeros(p ** 4, dtype=np.int32)
    ids[ordered] = np.arange(1, ordered.size + 1)
    # int32: codes stay below p**4 < 2**31 for any p that can be enumerated
    entries = [(ordered // p ** (3 - i) % p).astype(np.int32) for i in range(4)]
    e, f, g, h = (x[None, :] for x in entries)
    # 64 rows of products at a time bound the temporaries below the table
    table = np.empty((ordered.size, ordered.size), dtype=np.int32)
    for r in range(0, ordered.size, 64):
        a, b, c, d = (x[r:r + 64, None] for x in entries)
        table[r:r + 64] = ids[canon(a * e + b * g, a * f + b * h,
                                    c * e + d * g, c * f + d * h)]
    return GroupTable(table)
