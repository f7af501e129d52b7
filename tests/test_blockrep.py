import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gtool as gt
from gtool.audit import measure, probe_counted_multiply
from gtool.base import CapacityError, NotFittedError, ValidationError, _view
from gtool.blockrep import BlockRep, choose_block_length, parse_delta, tradeoff_table
from gtool.cubegen import greedy_cube_sequence
from gtool.verify import verify_exhaustive, verify_random

from oracles import loop_block_kernel


def test_import_refuses_numpy_1():
    # the kernel's int64 stride widens ids only under NEP 50 promotion
    src = str(Path(gt.__file__).parents[1])
    code = ("import numpy; numpy.__version__ = '1.26.4'\n"
            "try:\n    import gtool.blockrep\n"
            "except ImportError as exc:\n    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert "numpy>=2.0" in out


def test_choose_block_length_examples():
    assert choose_block_length(1024, 14, Fraction(1, 2)) == 5
    assert choose_block_length(1024, 14, "1/10") == 1      # 1/log2 n
    assert choose_block_length(1024, 14, 1) == 10          # clamps at floor(log2 n)


def test_choose_block_length_range_errors():
    with pytest.raises(ValidationError):
        choose_block_length(1024, 14, "1/11")     # below 1/log2 n
    with pytest.raises(ValidationError):
        choose_block_length(1024, 14, "3/2")      # above 1
    with pytest.raises(ValidationError):
        parse_delta(0.5)                          # floats are ambiguous
    for text in ("abc", "1/0", "1/x", ""):        # not rationals
        with pytest.raises(ValidationError):
            parse_delta(text)


@settings(max_examples=60)
@given(n=st.integers(4, 100000), p=st.integers(1, 24), q=st.integers(1, 24))
def test_choose_block_length_exact_floor(n, p, q):
    # oracle: l is the exact floor iff 2^(l q) <= n^p < 2^((l+1) q)
    if p > q or (1 << q) > n ** p:
        return
    l = choose_block_length(n, 64, Fraction(p, q))
    assert (1 << (l * q)) <= n ** p
    assert (1 << ((l + 1) * q)) > n ** p or l == 64


def test_c2_block_arrays():
    G = gt.make_cyclic(2)
    rep = BlockRep(l=1).fit(G)
    assert rep.m_ == 1
    assert rep.mult_arrays_[0, 0].tolist() == [1, 2]
    assert rep.mult_arrays_[1, 0].tolist() == [2, 1]


def test_empty_block_entry_is_identity(corpus):
    G = corpus.table("S3")
    rep = corpus.rep("S3", "block", l=1)
    for g in G.elements:
        assert all(rep.mult_arrays_[g - 1, i, 0] == g for i in range(rep.m_))


def test_s3_slot_count_exact(corpus):
    rep = corpus.rep("S3", "block", l=2)
    got = sum(rep.space_slots().values())
    assert got == 6 * (1 << 2) * rep.m_ + 6 + 4


def test_multiply_identity_cases(corpus):
    G = corpus.table("S4")
    rep = corpus.rep("S4", "block", l=2)
    for g in (1, 7, 24):
        assert rep.multiply(G.identity, g) == g
        assert rep.multiply(g, G.identity) == g


def test_s4_exhaustive_oracle_sweep(corpus):
    G = corpus.table("S4")
    for l in (1, 2, 3, 5):
        rep = corpus.rep("S4", "block", l=l)
        assert verify_exhaustive(rep, G) is None


def test_probe_counts(corpus):
    rep = corpus.rep("S4", "block", l=2)
    res, ledger = probe_counted_multiply(rep, 5, 9)
    assert res == corpus.table("S4").mult(5, 9)
    assert ledger["word_index"] == 1
    assert ledger["mult_array"] == rep.m_


def test_degenerate_full_block(corpus):
    # l = k collapses every query to one probe
    G = corpus.table("C16")
    cube, _ = corpus.cube("C16")
    rep = BlockRep(l=cube.k).fit(G, cube=cube)
    assert rep.m_ == 1
    assert verify_exhaustive(rep, G) is None
    _, ledger = probe_counted_multiply(rep, 3, 14)
    assert ledger["mult_array"] == 1


def test_capacity_ceiling():
    G = gt.make_cyclic(64)
    with pytest.raises(CapacityError, match="slots"):
        BlockRep(l=6, max_slots=100).fit(G)


def test_not_fitted():
    with pytest.raises(NotFittedError):
        BlockRep(l=1).multiply(1, 1)


def test_requires_l_or_delta():
    with pytest.raises(ValidationError):
        BlockRep().fit(gt.make_cyclic(4))
    # l is an integer: 2.7 is not fitted as 2, nor True as 1
    for bad in (2.7, True, "2", np.float64(2.0)):
        with pytest.raises(ValidationError, match="l must be an int"):
            BlockRep(l=bad).fit(gt.make_cyclic(4))
    assert BlockRep(l=np.int64(2)).fit(gt.make_cyclic(4)).l_ == 2


def test_wrong_cube_rejected():
    cube, _ = greedy_cube_sequence(gt.make_cyclic(4))
    with pytest.raises(gt.PreconditionError):
        BlockRep(l=1).fit(gt.make_cyclic(8), cube=cube)


def test_tradeoff_monotone_on_c256(corpus):
    G = corpus.table("C256")
    cube, _ = corpus.cube("C256")
    rows = tradeoff_table(G, [Fraction(p, 8) for p in range(1, 9)], cube=cube)
    assert all(r.error is None for r in rows)
    slots = [r.slots for r in rows]
    probes = [r.probes for r in rows]
    assert slots == sorted(slots)
    assert probes == sorted(probes, reverse=True)
    assert rows[-1].l == cube.k and rows[-1].probes == 1     # l = k: one probe
    assert rows[0].l == 1 and rows[0].probes == cube.k       # l = 1: k probes


def test_tradeoff_records_row_failures():
    G = gt.make_cyclic(64)
    rows = tradeoff_table(G, [Fraction(1, 6), Fraction(1, 100)])
    assert rows[0].error is None
    assert rows[1].error is not None


def test_random_verify_on_c1024(corpus):
    G = corpus.table("C1024")
    rep = corpus.rep("C1024", "block", delta=Fraction(1, 2))
    assert verify_random(rep, G, 100_000, seed=0) is None
    assert verify_random(rep, G, 0) is None
    with pytest.raises(ValidationError):
        verify_random(rep, G, -5)
    for seed in (-1, 1 << 32):          # outside numpy's seed range
        with pytest.raises(ValidationError, match="seed"):
            verify_random(rep, G, 10, seed=seed)
    assert verify_random(rep, G, 10, seed=(1 << 32) - 1) is None
    # a count or seed is an integer, never truncated
    for bad in (2.5, True, "10"):
        with pytest.raises(ValidationError, match="pair count"):
            verify_random(rep, G, bad)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValidationError, match="seed"):
            verify_random(rep, G, 10, seed=bad)
    assert verify_random(rep, G, np.int64(10), seed=np.uint32(3)) is None


def test_trivial_group_block():
    G = gt.make_cyclic(1)
    rep = BlockRep(l=1).fit(G)
    assert rep.m_ == 0
    assert rep.multiply(1, 1) == 1
    _, ledger = probe_counted_multiply(rep, 1, 1)
    assert ledger["word_index"] == 1 and ledger["mult_array"] == 0


def _same(got, want) -> bool:
    """Equal, of the same type, and for arrays of the same dtype and shape."""
    if isinstance(want, np.ndarray):
        return (type(got) is np.ndarray and got.dtype == want.dtype
                and got.shape == want.shape and np.array_equal(got, want))
    return type(got) is type(want) and got == want


@settings(max_examples=200, deadline=None)
@given(m=st.integers(0, 12), l=st.integers(1, 9), n=st.integers(1, 40),
       dtype=st.sampled_from([np.uint8, np.uint16, np.uint32]),
       seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(), (0,), (7,), (2, 3)]))
# flat indexes past the id width, n * (m << l) = 153,600 and 245,760 at
# uint16 and 3,060 at uint8; each seed draws x and y that reach n
@example(m=2, l=8, n=300, dtype=np.uint16, seed=272, shape=(7,))
@example(m=12, l=9, n=40, dtype=np.uint16, seed=133, shape=(2, 3))
@example(m=3, l=2, n=255, dtype=np.uint8, seed=1292, shape=(2, 3))
# m = 0: a zero-size memoryview, which the query never reads
@example(m=0, l=3, n=7, dtype=np.uint16, seed=0, shape=())
@example(m=0, l=1, n=1, dtype=np.uint8, seed=0, shape=())
def test_unrolled_kernel_matches_loop_reference(m, l, n, dtype, seed, shape):
    # random arrays, not a group: the kernel only indexes.  Shape () runs
    # Python ints on views of the arrays, as multiply does; every shape
    # runs on the ndarrays of the id width, as predict does
    rng = np.random.default_rng(seed)
    A = rng.integers(1, n, size=(n, m, 1 << l), dtype=dtype, endpoint=True)
    W = rng.integers(0, 1 << 63, size=n, dtype=np.int64)    # up to 63 bits
    x, y = (rng.integers(1, n, size=shape, dtype=np.int64, endpoint=True)
            for _ in range(2))
    rep = BlockRep(l=l)
    rep.n_, rep.m_, rep.l_, rep.mult_arrays_, rep.word_index_ = n, m, l, A, W
    if shape == ():
        x, y = int(x), int(y)
        want = loop_block_kernel(_view(A), _view(W), m, l, x, y)
        assert _same(rep.multiply(x, y), want)
    want = loop_block_kernel(A, W, m, l, x, y)
    assert _same(rep._kernel(x, y), want)


def test_d500_delta_one_is_exact_past_the_uint16_index():
    # n = 1000 and m << l = 1024: the flat index reaches 1,024,000, which
    # wraps in uint16 unless each level widens x to int64
    G = gt.make_dihedral(500)
    rep = BlockRep(delta=1).fit(G)
    assert rep.mult_arrays_.dtype == np.uint16
    assert rep.n_ * (rep.m_ << rep.l_) == 1_024_000
    assert verify_exhaustive(rep, G) is None


def test_space_report_fields(corpus):
    rep = corpus.rep("S4", "block", l=2)
    report = measure(rep)
    assert report.rep_type == "block"
    assert report.n == 24
    assert report.bits_per_slot == 5
    assert report.baseline_cayley_slots == 576
    assert report.probes_min == report.probes_max == 1 + rep.m_
    assert "l=2" in report.params


def test_fit_peak_stays_near_the_arrays():
    G = gt.make_cyclic(1024)
    cube, _ = greedy_cube_sequence(G)
    tracemalloc.start()
    try:
        rep = BlockRep(delta=1).fit(G, cube=cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rep.mult_arrays_.nbytes
