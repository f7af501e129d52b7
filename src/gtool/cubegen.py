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

from .groups import GroupTable, as_group


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


def greedy_cube_sequence(G: GroupTable) -> tuple[CubeSequence, GreedyTrace]:
    """Build a covering sequence of length O(log n) in O(n^2 log n) time.

    Stage i scans every candidate g, counts covered elements a with a*g
    uncovered, and picks the maximizer (ties to the lowest id).  Newly
    covered elements inherit the discoverer's bitstring with bit i set;
    first discovery wins, and within a stage the products of distinct
    covered elements are distinct, so assignments are unambiguous.
    """
    G = as_group(G)
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
