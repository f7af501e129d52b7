import math

import numpy as np
import pytest

import gtool as gt
from gtool import cubegen as cg

from oracles import subset_products


def test_c2_sequence():
    G = gt.make_cyclic(2)
    seq, trace = cg.greedy_cube_sequence(G)
    assert seq.k == 1
    assert seq.elements == (2,)
    assert seq.epsilon.tolist() == [0, 1]
    assert trace.sizes == (1, 2)


def test_c4_full_coverage_by_enumeration():
    G = gt.make_cyclic(4)
    seq, _ = cg.greedy_cube_sequence(G)
    assert seq.k == 2
    # oracle: enumerate all 2^k subset products directly off the table
    assert subset_products(G.table, G.identity, seq.elements) == {1, 2, 3, 4}


def test_q8_bound_and_coverage():
    G = gt.make_quaternion()
    seq, _ = cg.greedy_cube_sequence(G)
    assert seq.k <= math.ceil(math.log2(8 * math.log(8))) + 2 == 7
    assert subset_products(G.table, G.identity, seq.elements) == set(range(1, 9))


def test_identity_decomposition_is_empty_product():
    G = gt.make_symmetric(4)
    seq, _ = cg.greedy_cube_sequence(G)
    assert seq.epsilon[G.identity - 1] == 0


def test_first_generator_bit():
    G = gt.make_symmetric(3)
    seq, _ = cg.greedy_cube_sequence(G)
    g1 = seq.elements[0]
    assert seq.epsilon[g1 - 1] == 1


def test_decomposition_replay_s3():
    G = gt.make_symmetric(3)
    seq, _ = cg.greedy_cube_sequence(G)
    for g in G.elements:
        mask = int(seq.epsilon[g - 1])
        acc = G.identity
        for i, gi in enumerate(seq.elements):
            if (mask >> i) & 1:
                acc = G.mult(acc, gi)
        assert acc == g


def test_decompose_deterministic_across_calls():
    G = gt.make_dihedral(6)
    seq, _ = cg.greedy_cube_sequence(G)
    first = seq.epsilon.tolist()
    with pytest.raises(ValueError):         # the decompositions are frozen
        seq.epsilon[0] = 1
    assert seq.epsilon.tolist() == first


def test_greedy_is_reproducible():
    G = gt.make_alternating(4)
    s1, t1 = cg.greedy_cube_sequence(G)
    s2, t2 = cg.greedy_cube_sequence(G)
    assert s1.elements == s2.elements
    assert np.array_equal(s1.epsilon, s2.epsilon)
    assert t1 == t2


def test_greedy_bound_per_stage_exact_integers(corpus):
    for name in ("C17", "C64", "S4", "A5", "Q8xC3", "D12"):
        G = corpus.table(name)
        _, trace = corpus.cube(name)
        n = G.n
        for prev, cur in zip(trace.sizes, trace.sizes[1:]):
            assert n * (n - cur) <= (n - prev) ** 2, (name, prev, cur)


def test_k_bounds_on_sample(corpus):
    for name in ("C2", "C37", "C100", "C1024", "S4", "A5", "PSL(2,7)"):
        seq, _ = corpus.cube(name)
        n = corpus.table(name).n
        assert seq.k >= math.ceil(math.log2(n))
        assert seq.k <= math.ceil(math.log2(n * math.log(n))) + 2


def test_trivial_group():
    seq, trace = cg.greedy_cube_sequence(gt.make_cyclic(1))
    assert seq.k == 0
    assert trace.sizes == (1,)
    assert subset_products(np.array([[1]]), 1, seq.elements) == {1}


def test_verify_cube_accepts_greedy_output(corpus):
    for name in ("C6", "C30", "Q8", "S4", "A4", "D8"):
        G = corpus.table(name)
        seq, _ = corpus.cube(name)
        assert subset_products(G.table, G.identity, seq.elements) == \
            set(G.elements), name


def test_dump_golden_s3():
    G = gt.make_symmetric(3)
    seq, _ = cg.greedy_cube_sequence(G)
    # frozen golden: correctness of the content is covered by the replay
    # test above; this pins the generators and every decomposition
    assert seq.elements == (2, 3, 2)
    assert seq.epsilon.tolist() == [0, 1, 2, 6, 3, 7]
