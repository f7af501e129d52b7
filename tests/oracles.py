"""Independent brute-force oracles used to derive expected test values.

Everything here works directly off raw tables or permutations and never
calls the code paths under test.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np


def parse_table_rows(text: str) -> list[list[int]]:
    """Per-token parse of the Cayley-table text format with Python ``int``.

    Returns the body rows; raises ``ValueError`` where the format is broken.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty input")
    n = int(lines[0].strip())
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the header, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if len(parts) != n:
            raise ValueError(f"row {i} has {len(parts)} entries, expected {n}")
        rows.append([int(p) for p in parts])
    return rows


def subgroup_closure(table: np.ndarray, identity: int, gens) -> list[int]:
    """Elements of <gens>, ascending, by one walk from the identity that
    multiplies every element reached by every generator."""
    seen = np.zeros(table.shape[0] + 1, dtype=bool)
    seen[identity] = True
    work = [identity]
    gens = [int(g) for g in gens]
    while work:
        x = work.pop()
        for g in gens:
            y = int(table[x - 1, g - 1])
            if not seen[y]:
                seen[y] = True
                work.append(y)
    return [int(v) for v in np.nonzero(seen)[0]]


def naive_order(table: np.ndarray, identity: int, x: int) -> int:
    cur, k = x, 1
    while cur != identity:
        cur = int(table[cur - 1, x - 1])
        k += 1
    return k


def order_multiset(table: np.ndarray, identity: int) -> list[int]:
    n = table.shape[0]
    return sorted(naive_order(table, identity, x) for x in range(1, n + 1))


def find_identity(table: np.ndarray) -> int | None:
    n = table.shape[0]
    ids = np.arange(1, n + 1)
    for r in range(n):
        if np.array_equal(table[r], ids) and np.array_equal(table[:, r], ids):
            return r + 1
    return None


def first_assoc_violation(table: np.ndarray) -> tuple[int, int, int] | None:
    n = table.shape[0]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = int(table[x - 1, y - 1])
            for z in range(1, n + 1):
                if table[xy - 1, z - 1] != table[x - 1, table[y - 1, z - 1] - 1]:
                    return (x, y, z)
    return None


# loops: Latin squares with a two-sided identity and two-sided inverses
# that are not associative.  The order-6 one is commutative, the smallest
# such loop; in the commutative order-8 one squaring 2, 3 or 7 cycles
# without reaching the identity
LOOPS = {
    5: [[1, 2, 3, 4, 5], [2, 1, 4, 5, 3], [3, 5, 1, 2, 4], [4, 3, 5, 1, 2],
        [5, 4, 2, 3, 1]],
    6: [[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 4, 5, 6, 1, 2],
        [4, 3, 6, 5, 2, 1], [5, 6, 1, 2, 4, 3], [6, 5, 2, 1, 3, 4]],
    8: [[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 7, 3, 8, 5, 6, 1],
        [3, 7, 8, 2, 1, 4, 5, 6], [4, 3, 2, 7, 6, 8, 1, 5],
        [5, 8, 1, 6, 4, 7, 3, 2], [6, 5, 4, 8, 7, 1, 2, 3],
        [7, 6, 5, 1, 3, 2, 8, 4], [8, 1, 6, 5, 2, 3, 4, 7]],
}


def validate_reference(table) -> tuple[str, tuple | None, str] | None:
    """The first group axiom a square integer ``table`` breaks, as
    (axiom, witness, message), or None for a group.

    Plain loops, in this order: every entry in [1, n]; each row, then each
    column, a permutation (named by its first repeated value); a row equal
    to 1..n whose column is too (the identity); for each x, the first y
    with x*y = e also has y*x = e; then the lexicographically first
    (x, y, z) with (x*y)*z != x*(y*z).
    """
    t = np.asarray(table).tolist()
    n = len(t)
    for i in range(n):
        for j in range(n):
            if not 1 <= t[i][j] <= n:
                return ("range", (i + 1, j + 1),
                        f"entry at row {i + 1}, column {j + 1} is outside [1, {n}]")
    cols = [[t[i][j] for i in range(n)] for j in range(n)]
    for kind, across, axiom, lines in (("row", "columns", "latin-row", t),
                                       ("column", "rows", "latin-col", cols)):
        for i, line in enumerate(lines):
            first = {}
            for b, v in enumerate(line):
                if v in first:
                    a = first[v]
                    return (axiom, (i + 1, a + 1, b + 1) if kind == "row"
                            else (a + 1, b + 1, i + 1),
                            f"{kind} {i + 1} is not a permutation of 1..{n}: "
                            f"{across} {a + 1} and {b + 1} both hold {v}")
                first[v] = b
    ids = list(range(1, n + 1))
    e = next((r + 1 for r in range(n) if t[r] == ids), None)
    if e is None:
        return ("identity", None, "no two-sided identity element")
    for x in range(1, n + 1):
        if t[x - 1][e - 1] != x:
            v = t[x - 1][e - 1]
            return ("identity", (x, e, v),
                    f"element {e} is a left identity but {x}*{e} = {v}")
    for x in range(1, n + 1):
        y = t[x - 1].index(e) + 1
        if t[y - 1][x - 1] != e:
            v = t[y - 1][x - 1]
            return ("inverse", (x, y, v),
                    f"right inverse of {x} is {y} but {y}*{x} = {v}")
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = t[x - 1][y - 1]
            for z in range(1, n + 1):
                left, right = t[xy - 1][z - 1], t[x - 1][t[y - 1][z - 1] - 1]
                if left != right:
                    return ("associativity", (x, y, z),
                            f"({x}*{y})*{z} = {left} but {x}*({y}*{z}) = {right}")
    return None


def subset_products(table: np.ndarray, identity: int,
                    gens: tuple[int, ...]) -> set[int]:
    """All 2^k left-to-right subset products, by direct enumeration."""
    out = set()
    for mask in range(1 << len(gens)):
        acc = identity
        for i, g in enumerate(gens):
            if (mask >> i) & 1:
                acc = int(table[acc - 1, g - 1])
        out.add(acc)
    return out


def metacyclic_product(m: int, d: int, multiplier: int, x: int, y: int) -> int:
    """x*y in C_m x| C_d, where b a b^-1 = a**multiplier and the id
    i*d + j + 1 names a**i * b**j: (a**i1 b**j1)(a**i2 b**j2) is
    a**(i1 + multiplier**j1 * i2) b**(j1 + j2)."""
    i1, j1 = divmod(x - 1, d)
    i2, j2 = divmod(y - 1, d)
    return (i1 + pow(multiplier, j1, m) * i2) % m * d + (j1 + j2) % d + 1


def iterate_permutation(pi: np.ndarray, g: int, d: int) -> int:
    """pi**d (g) by d explicit applications."""
    cur = g
    for _ in range(d):
        cur = int(pi[cur - 1])
    return cur


def brute_sylow_cyclic(table: np.ndarray, identity: int, p: int) -> bool:
    """Build one Sylow p-subgroup by greedy extension and test cyclicity.

    Extends a p-subgroup by any p-element whose join with it stays a
    p-group; Sylow theory guarantees this reaches full order.
    """
    n = table.shape[0]
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    if pk == 1:
        return True
    orders = {x: naive_order(table, identity, x) for x in range(1, n + 1)}
    p_elems = [x for x, o in orders.items() if _is_p_power(o, p)]

    def close(gens: set[int]) -> set[int]:
        out = {identity}
        work = [identity]
        while work:
            a = work.pop()
            for g in gens:
                b = int(table[a - 1, g - 1])
                if b not in out:
                    out.add(b)
                    work.append(b)
        return out

    current: set[int] = {identity}
    gens: set[int] = set()
    while len(current) < pk:
        for x in p_elems:
            if x in current:
                continue
            trial = close(gens | {x})
            if _is_p_power(len(trial), p):
                gens.add(x)
                current = trial
                break
        else:
            raise AssertionError("could not extend the p-subgroup")
    return any(orders[x] == pk for x in current)


def _is_p_power(v: int, p: int) -> bool:
    while v % p == 0:
        v //= p
    return v == 1


def cycle_walk(pi) -> tuple[list[list[int]], np.ndarray]:
    """Cycles of the permutation ``pi`` of 1..n, each starting at its least
    point and listed in the order of those points, by walking every cycle
    from its least point; and ``index[g-1] = cycle * n + position``."""
    n = len(pi)
    seen = np.zeros(n + 1, dtype=bool)
    cycles: list[list[int]] = []
    index = np.zeros(n, dtype=np.int64)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = int(pi[start - 1])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = int(pi[cur - 1])
        for r, g in enumerate(cyc):
            index[g - 1] = len(cycles) * n + r
        cycles.append(cyc)
    return cycles, index


def quotient_table(table: np.ndarray, normal_elements):
    """(quotient table, coset representatives, coset id per element) of
    the group ``table`` by a normal subgroup, by scanning the elements in
    ascending order and giving each one not yet placed a new coset."""
    n = table.shape[0]
    coset_of = np.zeros(n + 1, dtype=np.int64)
    reps: list[int] = []
    nelems = np.array(sorted(int(e) for e in normal_elements)) - 1
    for x in range(1, n + 1):
        if coset_of[x]:
            continue
        reps.append(x)
        coset_of[table[x - 1, nelems]] = len(reps)
    q = len(reps)
    qt = np.empty((q, q), dtype=np.int64)
    for i, r in enumerate(reps):
        qt[i] = coset_of[table[r - 1, np.array(reps) - 1]]
    return qt, reps, coset_of


def power_walk(table: np.ndarray, identity: int, x: int) -> list[int]:
    """x**0, x**1, ... up to the last power before the identity returns."""
    out = [identity]
    cur = x
    while cur != identity:
        out.append(cur)
        cur = int(table[cur - 1, x - 1])
    return out


def normality_witness(table: np.ndarray, inverse: np.ndarray,
                      members) -> int | None:
    """None if the subgroup ``members`` is normal, else the least g with
    g H g^-1 outside H, by conjugating every member by each g in turn."""
    inset = np.zeros(table.shape[0] + 1, dtype=bool)
    inset[list(members)] = True
    arr = np.array(list(members), dtype=np.int64) - 1
    for g in range(1, table.shape[0] + 1):
        conj = table[table[g - 1, arr] - 1, inverse[g - 1] - 1]
        if not inset[conj].all():
            return g
    return None


def simple_pair_scan(table: np.ndarray,
                     identity: int) -> tuple[int, tuple[int, int]] | None:
    """(diameter, (a, b)) of the first pair a < b of non-identity elements,
    in lexicographic order, whose Cayley graph has the least diameter, by
    one BFS per pair; None when no pair generates.

    Conjugating a pair maps its Cayley graph isomorphically, so only pairs
    whose a is the least member of its conjugacy class are searched.
    """
    n = table.shape[0]
    inverse = np.argmax(table == identity, axis=1)
    all_idx = np.arange(n)
    best = None
    for a in range(1, n + 1):
        conj = table[table[all_idx, a - 1] - 1, inverse]   # g a g^-1
        if a == identity or conj.min() != a:
            continue
        for b in range(a + 1, n + 1):
            if b == identity:
                continue
            d = _bfs_diameter(table, identity, (a, b))
            if d is not None and (best is None or d < best[0]):
                best = (d, (a, b))
    return best


def _bfs_diameter(table: np.ndarray, identity: int, gens) -> int | None:
    n = table.shape[0]
    gidx = np.array(gens, dtype=np.int64) - 1
    dist = np.full(n, -1, dtype=np.int32)
    dist[identity - 1] = 0
    frontier = np.array([identity], dtype=np.int64)
    level = 0
    while frontier.size:
        nxt = np.unique(table[np.ix_(frontier - 1, gidx)])
        nxt = nxt[dist[nxt - 1] < 0]
        level += 1
        dist[nxt - 1] = level
        frontier = nxt
    return None if (dist < 0).any() else int(dist.max())


def fifo_paths(table: np.ndarray, identity: int,
               gens) -> tuple[np.ndarray, np.ndarray]:
    """(dist, path) of a FIFO BFS from the identity that tries generators in
    index order, so each element keeps its first-found parent and label;
    ``path[g-1]`` packs the labels from the identity to g, the first step
    in the lowest bits, ``max(bits(|gens| - 1), 1)`` bits each."""
    n = table.shape[0]
    wl = max((len(gens) - 1).bit_length(), 1)
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.zeros(n, dtype=np.int64)
    label = np.zeros(n, dtype=np.int64)
    dist[identity - 1] = 0
    queue = [identity]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for i, g in enumerate(gens):
            w = int(table[v - 1, g - 1])
            if dist[w - 1] < 0:
                dist[w - 1] = dist[v - 1] + 1
                parent[w - 1] = v
                label[w - 1] = i
                queue.append(w)
    path = np.zeros(n, dtype=np.int64)
    for g in range(1, n + 1):
        labels = []
        cur = g
        while cur != identity:
            labels.append(int(label[cur - 1]))
            cur = int(parent[cur - 1])
        packed = 0
        for pos, lab in enumerate(reversed(labels)):
            packed |= lab << (pos * wl)
        path[g - 1] = packed
    return dist, path


def perm_table_loops(perms) -> np.ndarray:
    """Table of the permutation tuples ``perms`` by composing every pair,
    (p*q)(t) = p(q(t)), and looking the product up by tuple."""
    index = {p: 1 + t for t, p in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        table[i] = [index[tuple(map(p.__getitem__, q))] for q in perms]
    return table


def even_permutations(k: int) -> list[tuple[int, ...]]:
    """The even permutations of range(k) in lexicographic order, by
    counting inversions pair by pair."""
    return [p for p in permutations(range(k))
            if sum(p[i] > p[j] for i in range(k)
                   for j in range(i + 1, k)) % 2 == 0]


def psl2_loops(p: int) -> np.ndarray:
    """PSL(2, p) by enumerating determinant-1 matrices entry by entry,
    each class {M, -M} taken at its lexicographically smaller tuple, the
    identity first and the rest in sorted order; each product is looked up
    under both of its signs."""
    def canon(m):
        return min(m, tuple((-v) % p for v in m))

    reps = set()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        reps.add(canon((a, b, c, d)))
    ident = canon((1, 0, 0, 1))
    ordered = [ident] + sorted(m for m in reps if m != ident)
    index = {}
    for t, m in enumerate(ordered):
        index[m] = index[tuple((-v) % p for v in m)] = 1 + t
    table = np.empty((len(ordered), len(ordered)), dtype=np.int64)
    for i, (a, b, c, d) in enumerate(ordered):
        table[i] = [index[((a * e + b * g) % p, (a * f + b * h) % p,
                           (c * e + d * g) % p, (c * f + d * h) % p)]
                    for e, f, g, h in ordered]
    return table


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p**k) for each prime p dividing n, ascending, by trial division."""
    out = []
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            pk = p
            while n % (pk * p) == 0:
                pk *= p
            out.append((p, pk))
    return out


def abelian_basis(table: np.ndarray, identity: int):
    """(generators, orders) of an abelian group by maximal-order picks in
    quotient tables, one Sylow subgroup at a time.

    The Sylow subgroup is reindexed as its own table, ascending.  At each
    step the quotient by the span of the picks so far is built by
    :func:`quotient_table`; the first coset of the largest order is lifted
    to its least member of that order, and the span is closed again.
    """
    n = table.shape[0]
    orders = [naive_order(table, identity, x) for x in range(1, n + 1)]
    gens, out = [], []
    for _, pk in _prime_powers(n):
        members = [x for x in range(1, n + 1) if pk % orders[x - 1] == 0]
        local = {g: i + 1 for i, g in enumerate(members)}
        H = np.array([[local[int(table[a - 1, b - 1])] for b in members]
                      for a in members])
        e = local[identity]
        span, basis = [e], []
        while len(span) < len(members):
            qt, reps, coset_of = quotient_table(H, span)
            qorders = [naive_order(qt, int(coset_of[e]), c)
                       for c in range(1, len(reps) + 1)]
            target = max(qorders)
            cid = qorders.index(target) + 1
            pick = min(x for x in range(1, len(members) + 1)
                       if coset_of[x] == cid
                       and naive_order(H, e, x) == target)
            basis.append(pick)
            out.append(target)
            span = subgroup_closure(H, e, basis)
        gens.extend(members[b - 1] for b in basis)
    return tuple(gens), tuple(out)


def semidirect_split(table: np.ndarray, identity: int):
    """(a_elements, b_element, multiplier) of the first split A x| <b>
    with A abelian normal: the closures of the conjugacy classes, each
    kept when it is not the group and its sub-table is symmetric, by
    descending size then least
    class member; for each, the least b of order |G|/|A| whose powers meet
    A only at the identity.  A cyclic A is listed as the powers of its
    least element of order |A|, with the t of b a b^-1 = a**t; any other
    A ascending, with no multiplier.  None when no split exists.
    """
    n = table.shape[0]
    inverse = [int(np.flatnonzero(table[x - 1] == identity)[0]) + 1
               for x in range(1, n + 1)]
    if np.array_equal(table, table.T):
        candidates = [(-n, 0, list(range(1, n + 1)))]
    else:
        inv = np.array(inverse) - 1
        classes = {}
        for x in range(1, n + 1):
            cls = np.unique(table[table[:, x - 1] - 1, inv]).tolist()
            classes.setdefault(tuple(cls), cls)
        candidates, seen = [], set()
        for cls in sorted(classes.values()):
            members = subgroup_closure(table, identity, cls)
            if tuple(members) in seen or len(members) == n:
                continue
            seen.add(tuple(members))
            idx = np.array(members) - 1
            sub = table[np.ix_(idx, idx)]
            if np.array_equal(sub, sub.T):
                candidates.append((-len(members), cls[0], members))
        candidates.sort()
    orders = [naive_order(table, identity, x) for x in range(1, n + 1)]
    for _, _, members in candidates:
        m, inA = len(members), set(members)
        b = next((b for b in range(1, n + 1) if orders[b - 1] == n // m
                  and not inA & set(power_walk(table, identity, b)[1:])), None)
        if b is None:
            continue
        cyc = next((a for a in members if orders[a - 1] == m), None)
        if cyc is None:
            return tuple(members), b, None
        powers = power_walk(table, identity, cyc)
        conj = int(table[table[b - 1, cyc - 1] - 1, inverse[b - 1] - 1])
        return tuple(powers), b, powers.index(conj) if m > 1 else 0
    return None


class LoopMixedRadix:
    """The mixed-radix codec over the box prod [0, sizes[i]) written as
    one loop over the fields per call: field i takes bits(sizes[i] - 1)
    bits, field 0 lowest in a packed word and most significant in the
    row-major flat index.  Every method takes Python ints or int64 arrays
    alike."""

    def __init__(self, sizes):
        self.sizes = tuple(int(s) for s in sizes)
        widths = [(s - 1).bit_length() for s in self.sizes]
        self.shifts = [sum(widths[:i]) for i in range(len(widths))]
        self.masks = [(1 << w) - 1 for w in widths]
        self.strides = [math.prod(self.sizes[i + 1:])
                        for i in range(len(widths))]

    def pack(self, fields):
        out = 0
        for v, s in zip(fields, self.shifts):
            out = out | (v << s)
        return out

    def unpack(self, word) -> tuple:
        return tuple((word >> s) & mask
                     for s, mask in zip(self.shifts, self.masks))

    def flat(self, fields):
        out = 0
        for v, st in zip(fields, self.strides):
            out = out + v * st
        return out

    def unflat(self, index) -> tuple:
        return tuple((index // st) % s
                     for s, st in zip(self.sizes, self.strides))

    def index(self, word):
        out = word & 0              # zero shaped like word, even with no fields
        for s, mask, st in zip(self.shifts, self.masks, self.strides):
            out = out + ((word >> s) & mask) * st
        return out

    def add(self, w1, w2):
        out = w1 & 0
        for s, mask, size in zip(self.shifts, self.masks, self.sizes):
            out = out | ((((w1 >> s) & mask) + ((w2 >> s) & mask)) % size << s)
        return out


def loop_block_kernel(mult_arrays, word_index, m: int, l: int, x, y):
    """The block query as one loop over the m blocks: block i of y's word
    (bits i*l .. i*l+l-1) picks the column of array i that x, then each
    product so far, is multiplied by.  Takes Python ints on memoryviews or
    int64 arrays on ndarrays alike."""
    w = word_index[y - 1]
    mask = (1 << l) - 1
    cur = x
    for i in range(m):
        cur = mult_arrays[cur - 1, i, (w >> (i * l)) & mask]
    return cur


def masked_path_fold(path, path_len, steps, label_bits: int, diameter: int,
                     pairs):
    """The simple rep's batch query as a masked fold over all ``diameter``
    steps: every pair takes every step through the (n, |S|) step table,
    and keeps its value once its own path has ended (labels past the end
    are 0 and index a valid column)."""
    packed = path[pairs[:, 1] - 1]
    ends = path_len[pairs[:, 1] - 1]
    mask = (1 << label_bits) - 1
    cur = pairs[:, 0]
    for pos in range(diameter):
        nxt = steps[cur - 1, (packed >> (pos * label_bits)) & mask]
        cur = np.where(pos < ends, nxt, cur)
    return cur.astype(np.int64)
