import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtool as gt
from gtool.audit import measure, probe_counted_multiply
from gtool.base import PreconditionError
from gtool.special import CompositeRep, CyclicRep, SimpleRep
from gtool.verify import verify_exhaustive, verify_random

from oracles import fifo_paths, masked_path_fold, simple_pair_scan


# -- cyclic ------------------------------------------------------------------

def test_cyclic_identity_neutral():
    rep = CyclicRep().fit(gt.make_cyclic(9))
    for x in range(1, 10):
        assert rep.multiply(1, x) == x


def test_cyclic_c12_index_arithmetic():
    G = gt.make_cyclic(12)
    rep = CyclicRep(generator=2).fit(G)
    # elements are g^i at id i+1, so F[g^7] = 7 and B[(7+8) % 12] = g^3
    assert rep.F_[8 - 1] == 7
    assert rep.B_[(7 + 8) % 12] == 4
    assert rep.multiply(8, 9) == 4


def test_cyclic_exhaustive_c360(corpus):
    G = corpus.table("C360")
    assert verify_exhaustive(corpus.rep("C360", "cyclic"), G) is None


def test_cyclic_probe_and_slot_ledger(corpus):
    rep = corpus.rep("C100", "cyclic")
    _, ledger = probe_counted_multiply(rep, 17, 85)
    assert ledger["forward"] == 2 and ledger["backward"] == 1
    assert ledger.total() == 3
    assert sum(rep.space_slots().values()) == 2 * 100 + 2


def test_cyclic_rejects_bad_generator():
    G = gt.make_cyclic(12)
    with pytest.raises(PreconditionError):
        CyclicRep(generator=3).fit(G)     # order 6, not 12
    with pytest.raises(PreconditionError):
        CyclicRep().fit(gt.make_abelian([2, 2]))


@settings(max_examples=30)
@given(n=st.integers(1, 200), seed=st.integers(0, 10))
def test_cyclic_matches_modular_addition(n, seed):
    G = gt.make_cyclic(n)
    rep = CyclicRep().fit(G)
    rng = np.random.RandomState(seed)
    for _ in range(20):
        i, j = int(rng.randint(n)), int(rng.randint(n))
        assert rep.multiply(i + 1, j + 1) == (i + j) % n + 1


# -- composite ----------------------------------------------------------------

def test_composite_identity_right(corpus):
    G = corpus.table("S3")
    rep = corpus.rep("S3", "composite")
    for g in G.elements:
        assert rep.multiply(g, G.identity) == g


def test_composite_s3_twist(corpus):
    G = corpus.table("S3")
    rep = corpus.rep("S3", "composite")
    assert verify_exhaustive(rep, G) is None


def test_composite_exhaustive_sample(corpus):
    for name in ("C15", "A4", "D4", "D12", "C7:C3", "C5:C4", "C2^4",
                 "C2xC4xC9"):
        G = corpus.table(name)
        assert verify_exhaustive(corpus.rep(name, "composite"), G) is None, name


def test_zgroup_rep_is_cyclic_by_cyclic(corpus):
    rep = corpus.rep("C7:C3", "zgroup")
    assert len(rep.sizes_) == 2           # one coordinate per cyclic factor
    assert rep.sizes_ == (7, 3)
    assert verify_exhaustive(rep, corpus.table("C7:C3")) is None


def test_zgroup_probes_within_budget(corpus):
    for name in ("S3", "C12", "C5:C4"):
        rep = corpus.rep(name, "zgroup")
        _, ledger = probe_counted_multiply(rep, 2, 2)
        assert ledger.total() <= 8
        assert ledger["forward"] == 2
        assert ledger["action"] == 1
        assert ledger["backward"] == 1


def test_zgroup_slots_linear(corpus):
    for name in ("S3", "C12", "C5:C4", "C7:C3", "C360"):
        G = corpus.table(name)
        rep = corpus.rep(name, "zgroup")
        assert sum(rep.space_slots().values()) <= 8 * G.n, name


def test_zgroup_rejects_klein():
    with pytest.raises(PreconditionError, match="Sylow 2-subgroup not cyclic"):
        CompositeRep(mode="zgroup").fit(gt.make_abelian([2, 2]))


def test_composite_rejects_undecomposable(corpus):
    with pytest.raises(PreconditionError):
        CompositeRep().fit(corpus.table("S4"))


def test_composite_roundtrip_pairing_random(corpus):
    G = corpus.table("C1024")
    rep = corpus.rep("C1024", "composite")
    assert verify_random(rep, G, 100_000, seed=1) is None


def test_c1024_random_sweep_all_table_kinds(corpus):
    # larger corpus members get 10^5 seeded random pairs per applicable kind
    G = corpus.table("C1024")
    for kind in ("cyclic", "zgroup", "composite"):
        rep = corpus.rep("C1024", kind)
        assert verify_random(rep, G, 100_000, seed=3) is None, kind


def test_composite_forward_backward_invert(corpus):
    # the dense inverse undoes the packed coordinate map on every element
    for name in ("A4", "S3", "C2xC4xC9", "D8"):
        rep = corpus.rep(name, "composite")
        for g in range(1, rep.n_ + 1):
            w = int(rep.forward_[g - 1])
            a, j = rep.codec_.unpack(w), w >> rep.codec_.bits
            flat = rep.codec_.flat(a) * rep.d_ + j
            assert int(rep.backward_[flat]) == g


# -- simple ---------------------------------------------------------------------

def test_simple_prime_delegates_to_cyclic():
    rep = SimpleRep().fit(gt.make_cyclic(5))
    assert rep.cyclic_ is not None
    assert verify_exhaustive(rep, gt.make_cyclic(5)) is None


def test_simple_rejects_composite_groups(corpus):
    with pytest.raises(PreconditionError):
        SimpleRep().fit(gt.make_cyclic(6))
    with pytest.raises(PreconditionError):
        SimpleRep().fit(corpus.table("S4"))


def test_simple_a5(corpus):
    G = corpus.table("A5")
    rep = corpus.rep("A5", "simple")
    assert len(rep.generators_) == 2
    assert rep.diameter_ <= 10 * math.log2(60)
    assert verify_exhaustive(rep, G) is None


def test_simple_a5_path_replay(corpus):
    # replaying path[g] through the step table from the identity yields g
    G = corpus.table("A5")
    rep = corpus.rep("A5", "simple")
    for g in G.elements:
        assert rep.multiply(G.identity, g) == g
        assert rep.path_len_[g - 1] <= rep.diameter_


def test_simple_probes_bounded_by_diameter(corpus):
    G = corpus.table("A5")
    rep = corpus.rep("A5", "simple")
    rng = np.random.RandomState(3)
    worst = 0
    for _ in range(300):
        x, y = (int(v) for v in rng.randint(1, 61, 2))
        res, ledger = probe_counted_multiply(rep, x, y)
        assert res == G.mult(x, y)
        assert ledger["table"] <= rep.diameter_
        worst = max(worst, ledger["table"])
    assert worst <= rep.diameter_


def test_simple_h_identity_zero_probes(corpus):
    rep = corpus.rep("A5", "simple")
    res, ledger = probe_counted_multiply(rep, 42, 1)
    assert res == 42 and ledger["table"] == 0


def test_simple_psl27_exhaustive(corpus):
    G = corpus.table("PSL(2,7)")
    rep = corpus.rep("PSL(2,7)", "simple")
    assert rep.diameter_ <= 10 * math.log2(168)
    # the lexicographically first minimum-diameter pair
    assert rep.generators_ == (4, 11) and rep.diameter_ == 8
    assert verify_exhaustive(rep, G) is None


def test_simple_space_ledger(corpus):
    rep = corpus.rep("A5", "simple")
    s = len(rep.generators_)
    slots = rep.space_slots()
    assert slots["path"] == 60 and slots["path_len"] == 60
    assert slots["steps"] == 60 * s
    assert sum(slots.values()) <= 2 * 60 + 60 * s + 8


def test_simple_deterministic_choice(corpus):
    G = corpus.table("A5")
    r1 = SimpleRep().fit(G)
    r2 = SimpleRep().fit(G)
    assert r1.generators_ == r2.generators_
    assert np.array_equal(r1.path_, r2.path_)


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6"])
def test_simple_matches_pair_scan_and_fifo_paths(corpus, name):
    # one BFS per pair and a FIFO queue; too slow to run past A6
    G = corpus.table(name)
    rep = corpus.rep(name, "simple")
    diameter, gens = simple_pair_scan(G.table, G.identity)
    dist, path = fifo_paths(G.table, G.identity, gens)
    assert rep.generators_ == gens and rep.diameter_ == diameter
    assert np.array_equal(rep.path_, path)
    assert np.array_equal(rep.path_len_, dist)


@pytest.mark.parametrize("name, gens, diameter", [
    ("A6", (17, 90), 10),
    ("PSL(2,11)", (5, 71), 10),
    ("PSL(2,13)", (4, 58), 11),
])
def test_simple_large_groups(corpus, name, gens, diameter):
    # conftest.LARGE_SIMPLE: outside the standard corpus
    G = corpus.table(name)
    rep = corpus.rep(name, "simple")
    assert rep.generators_ == gens and rep.diameter_ == diameter
    assert verify_exhaustive(rep, G) is None
    # the farthest element costs the whole probe bound
    far = int(np.argmax(rep.path_len_)) + 1
    _, ledger = probe_counted_multiply(rep, 2, far)
    assert ledger.total() == rep.probe_bounds()[1] == 2 + rep.diameter_


def _simple_batch(rep, G, batch, rng) -> np.ndarray:
    """A (q, 2) batch of pairs of one of the named shapes."""
    q = {"empty": 0, "one": 1}.get(batch, 64)
    x = rng.integers(1, G.n, size=q, endpoint=True)
    y = rng.integers(1, G.n, size=q, endpoint=True)
    if batch == "identity":                     # every path of length 0
        y[:] = G.identity
    elif batch == "one length" and rep.cyclic_ is None:
        length = rng.integers(1, rep.diameter_, endpoint=True)
        y = rng.choice(np.flatnonzero(rep.path_len_ == length) + 1, size=q)
    return np.stack([x, y], axis=1)


@settings(max_examples=40, deadline=None)
@given(batch=st.sampled_from(["empty", "one", "64", "identity",
                              "one length"]),
       dtype=st.sampled_from([np.int64, np.int32, np.uint16]),
       seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("name", ["A5", "A6", "PSL(2,7)", "C5"])
def test_simple_predict_matches_the_masked_fold(corpus, name, batch, dtype,
                                                seed):
    # predict folds only the pairs whose path is still running, sorted by
    # path length; the masked fold runs every pair through every step
    G = corpus.table(name)
    rep = corpus.rep(name, "simple")
    pairs = _simple_batch(rep, G, batch,
                          np.random.default_rng(seed)).astype(dtype)
    before = pairs.copy()
    got = rep.predict(pairs)
    assert got.dtype == np.int64 and got.shape == (len(pairs),)
    assert np.array_equal(pairs, before) and pairs.dtype == dtype
    if rep.cyclic_ is None:                     # C5 delegates to CyclicRep
        assert np.array_equal(got, masked_path_fold(
            rep.path_, rep.path_len_, rep.M_, rep.label_bits_,
            rep.diameter_, pairs.astype(np.int64)))
    assert np.array_equal(got, G.table[pairs[:, 0] - 1, pairs[:, 1] - 1])


# -- estimator conventions ---------------------------------------------------------

def test_get_set_params():
    rep = CompositeRep(mode="zgroup")
    assert rep.get_params() == {"mode": "zgroup"}
    rep.set_params(mode="auto")
    assert rep.mode == "auto"
    with pytest.raises(ValueError):
        rep.set_params(bogus=1)


def test_repr_shows_params():
    assert "mode='zgroup'" in repr(CompositeRep(mode="zgroup"))
