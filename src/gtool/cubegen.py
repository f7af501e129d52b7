"""Greedy construction of short covering generator sequences.

A sequence (g_1, ..., g_k) covers the group when every element equals some
subset product g_1^e1 * ... * g_k^ek with e_i in {0, 1}, evaluated left to
right.  The builder grows the covered set stage by stage, always choosing
the element that sends the most covered elements outside the current set,
and freezes one bitstring per group element recording which generators
appear in its product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ParseError, ValidationError, check_element_id
from .groups import GroupTable


@dataclass(frozen=True)
class GreedyTrace:
    """Stage-by-stage covered-set sizes and the chosen cut sizes.

    ``sizes[0]`` is 1 (the identity alone); ``sizes[i]`` is the covered
    count after stage i and ``cuts[i-1]`` the number of new elements the
    stage's pick reached.  The greedy guarantee
    n * (n - sizes[i]) <= (n - sizes[i-1])**2 holds at every stage.
    """

    sizes: tuple[int, ...]
    cuts: tuple[int, ...]


@dataclass(frozen=True)
class CubeSequence:
    """k generator ids plus one fixed k-bit decomposition per element.

    ``epsilon[g-1]`` packs the bits low-to-high: bit i-1 tells whether
    g_i participates in the product for g.
    """

    n: int
    k: int
    elements: tuple[int, ...]
    epsilon: np.ndarray     # (n,) int64, read-only

    def decompose(self, g: int) -> int:
        """The frozen packed bitstring for element g."""
        g = check_element_id(g, self.n)
        return int(self.epsilon[g - 1])

    def bits(self, g: int) -> str:
        """Decomposition as a k-character 0/1 string, first generator first."""
        e = self.decompose(g)
        return "".join("1" if (e >> i) & 1 else "0" for i in range(self.k))


def greedy_cube_sequence(G: GroupTable) -> tuple[CubeSequence, GreedyTrace]:
    """Build a covering sequence of length O(log n) in O(n^2 log n) time.

    Stage i scans every candidate g, counts covered elements a with a*g
    uncovered, and picks the maximizer (ties to the lowest id).  Newly
    covered elements inherit the discoverer's bitstring with bit i set;
    first discovery wins, and within a stage the products of distinct
    covered elements are distinct, so assignments are unambiguous.
    """
    n = G.n
    t = G.table
    in_a = np.zeros(n + 1, dtype=bool)
    in_a[G.identity] = True
    eps = np.zeros(n + 1, dtype=np.int64)
    members = np.array([G.identity], dtype=np.int64)
    elements: list[int] = []
    cuts: list[int] = []
    sizes: list[int] = [1]
    stage = 0
    while members.size < n:
        rows = t[members - 1]                  # (|A|, n): a*g per column g
        cut = (~in_a[rows]).sum(axis=0)        # new elements per candidate
        gi = int(np.argmax(cut)) + 1           # argmax returns the lowest id
        prods = rows[:, gi - 1]
        new_mask = ~in_a[prods]
        new = prods[new_mask]
        eps[new] = eps[members[new_mask]] | (1 << stage)
        in_a[new] = True
        members = np.sort(np.concatenate([members, new]))
        elements.append(gi)
        cuts.append(int(cut[gi - 1]))
        sizes.append(int(members.size))
        stage += 1
    epsilon = eps[1:].copy()
    epsilon.setflags(write=False)
    seq = CubeSequence(n=n, k=stage, elements=tuple(elements), epsilon=epsilon)
    return seq, GreedyTrace(sizes=tuple(sizes), cuts=tuple(cuts))


def verify_cube(G: GroupTable, seq: CubeSequence) -> bool:
    """True iff the 2^k subset products, as a set, are exactly the group.

    Guarded at k <= 30; the check enumerates products incrementally, so it
    costs O(2^k) table lookups.
    """
    if seq.k > 30:
        raise ValidationError(f"k={seq.k} exceeds the enumeration guard of 30")
    prods = np.array([G.identity], dtype=np.int64)
    for gi in seq.elements:
        prods = np.concatenate([prods, G.table[prods - 1, gi - 1]])
    return bool(np.array_equal(np.unique(prods), np.arange(1, G.n + 1)))


def dump_cube_sequence(seq: CubeSequence) -> str:
    """Textual form: 'k n' header, k generator ids, then n 'g bits' lines."""
    lines = [f"{seq.k} {seq.n}"]
    lines.extend(str(g) for g in seq.elements)
    lines.extend(f"{g} {seq.bits(g)}" for g in range(1, seq.n + 1))
    return "\n".join(lines) + "\n"


def load_cube_sequence(text: str) -> CubeSequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        k, n = map(int, lines[0].split())
    except (ValueError, IndexError):
        raise ParseError("malformed cube-sequence header") from None
    if len(lines) != 1 + k + n:
        raise ParseError(f"expected {1 + k + n} lines, got {len(lines)}")
    elements = tuple(int(ln) for ln in lines[1:1 + k])
    epsilon = np.zeros(n, dtype=np.int64)
    for ln in lines[1 + k:]:
        gs, bits = ln.split()
        g = int(gs)
        if len(bits) != k:
            raise ParseError(f"element {g} has {len(bits)} bits, expected {k}")
        epsilon[g - 1] = int(bits[::-1], 2) if k else 0
    epsilon.setflags(write=False)
    return CubeSequence(n=n, k=k, elements=elements, epsilon=epsilon)
