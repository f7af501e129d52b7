"""Independent brute-force oracles used to derive expected test values.

Everything here works directly off raw tables or permutations and never
calls the code paths under test.
"""

from __future__ import annotations

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
