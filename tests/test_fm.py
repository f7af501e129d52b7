import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtool as gt
from gtool import fm
from gtool import serialize as ser
from gtool.audit import ProbeLedger, probe_counted_multiply
from gtool.base import GtoolError, PreconditionError, ValidationError, _view
from gtool.corpus import make_metacyclic
from gtool.verify import verify_exhaustive

from oracles import cycle_walk, iterate_permutation, metacyclic_product


# -- abelian scheme ------------------------------------------------------------

def test_abelian_identity_label_neutral(corpus):
    G = corpus.table("C2xC4xC9")
    rep = corpus.rep("C2xC4xC9", "fm-abelian")
    le = rep.labeler_.label(G.identity)
    assert le == (0,)
    for x in (1, 5, 30, 72):
        assert rep.scheme_.multiply(rep.labeler_.label(x), le) == \
            rep.labeler_.label(x)


def test_abelian_c2xc4_componentwise():
    # exponents (1,3) + (1,2) componentwise mod (2,4) give (0,1)
    s = fm.AbelianScheme((2, 4))
    l1 = (s.pack((1, 3)),)
    l2 = (s.pack((1, 2)),)
    assert s.unpack(s.multiply(l1, l2)[0]) == (0, 1)


def test_abelian_label_homomorphism_exhaustive(corpus):
    G = corpus.table("C2xC4xC9")
    rep = corpus.rep("C2xC4xC9", "fm-abelian")
    lab = rep.labeler_
    sch = rep.scheme_
    for x in G.elements:
        for y in G.elements:
            got = sch.multiply(lab.label(x), lab.label(y))
            assert lab.element(got) == G.mult(x, y)


def test_abelian_zero_probes(corpus):
    rep = corpus.rep("C2xC4xC9", "fm-abelian")
    _, ledger = probe_counted_multiply(rep, 3, 9)
    assert ledger.total() == 0


def test_abelian_rejects_nonabelian():
    with pytest.raises(PreconditionError):
        fm.compress_abelian(gt.make_quaternion())


def test_abelian_qpu_space_examples(corpus):
    rep = corpus.rep("C100", "fm-abelian")
    assert fm.qpu_space(rep.scheme_) <= 4 + 1      # two factors: 25 and 4
    single = corpus.rep("C64", "fm-abelian")
    assert fm.qpu_space(single.scheme_) <= 4


def _flat_product(scheme, x, y):
    """The product of ids x and y of the group of ``scheme``, with the id
    1 + i naming the exponent tuple at flat index i of the scheme's box."""
    l1, l2 = ((scheme.pack(scheme.unflat(v - 1)),) for v in (x, y))
    return 1 + scheme.index(scheme.multiply(l1, l2)[0])


def test_abelian_virtual_large_orders():
    # no table at this scale: the store is built from the orders alone
    scheme = fm.AbelianScheme((16384,))
    assert fm.qpu_space(scheme) <= 80
    rng = np.random.RandomState(0)
    for _ in range(200):
        x, y = (int(v) for v in rng.randint(1, 16385, 2))
        want = (x - 1 + y - 1) % 16384 + 1
        assert _flat_product(scheme, x, y) == want
    two = fm.AbelianScheme((4096, 4))
    assert fm.qpu_space(two) <= 80
    for _ in range(200):
        x, y = (int(v) for v in rng.randint(1, 16385, 2))
        e1 = divmod(x - 1, 4)
        e2 = divmod(y - 1, 4)
        want = ((e1[0] + e2[0]) % 4096) * 4 + (e1[1] + e2[1]) % 4 + 1
        assert _flat_product(two, x, y) == want


def test_abelian_from_orders_rejects_composite_factor():
    with pytest.raises(ValidationError):
        fm.AbelianScheme((6,))
    for bad in ((4.7,), (2, True), ("4",), (np.float64(4),)):
        with pytest.raises(ValidationError, match="must be an integer"):
            fm.AbelianScheme(bad)
    assert fm.AbelianScheme((np.int64(4), 3)).orders == (4, 3)


def test_abelian_bit_budget_checked_before_factoring(monkeypatch):
    # 63 copies of the prime 2**32 - 5 need 2016 bits; rejecting them must
    # not wait for 63 trial divisions up to 2**16
    def no_factoring(n):
        raise AssertionError("factored before the bit budget was checked")

    monkeypatch.setattr(fm, "_prime_factors", no_factoring)
    with pytest.raises(PreconditionError, match="2016 bits"):
        fm.AbelianScheme([4294967291] * 63)
    # the prime power 2**63 fits 63 bits but no int64 modulo
    with pytest.raises(PreconditionError, match=r"\[1, 2\*\*63\)"):
        fm.AbelianScheme((2**63,))


# -- hamiltonian -----------------------------------------------------------------

def test_hamiltonian_aa_gives_a_squared():
    Q = gt.make_quaternion()
    rep = fm.HamiltonianFM().fit(Q)
    # from the defining relations: a*a = a^2 (canonical ids 2 and 3)
    la = rep.labeler_.label(2)
    out = rep.scheme_.multiply(la, la)
    assert rep.labeler_.element(out) == 3


def test_hamiltonian_identity_neutral(corpus):
    G = corpus.table("Q8xC3")
    rep = corpus.rep("Q8xC3", "fm-hamiltonian")
    le = rep.labeler_.label(G.identity)
    for x in (2, 9, 17):
        assert rep.labeler_.element(
            rep.scheme_.multiply(rep.labeler_.label(x), le)) == x


def test_hamiltonian_exhaustive_label_sweep(corpus):
    G = corpus.table("Q8xC3")
    rep = corpus.rep("Q8xC3", "fm-hamiltonian")
    lab, sch = rep.labeler_, rep.scheme_
    for x in G.elements:
        for y in G.elements:
            assert lab.element(sch.multiply(lab.label(x), lab.label(y))) == \
                G.mult(x, y)


def test_hamiltonian_store_is_64_plus_abelian(corpus):
    rep = corpus.rep("Q8xC2xC5", "fm-hamiltonian")
    slots = rep.scheme_.space_slots()
    assert slots["q8_table"] == 64
    assert fm.qpu_space(rep.scheme_) <= 80


def test_hamiltonian_rejects_s3():
    with pytest.raises(PreconditionError):
        fm.HamiltonianFM().fit(gt.make_symmetric(3))


# -- z-groups ----------------------------------------------------------------------

def test_zgroup_s3_label_example(corpus):
    # with C3 = <g> acted on by inversion: the label of (g, h) is (1, 2, 1),
    # the label of (g, e) is (1, 1, 0), and their product labels (e, h)
    rep = corpus.rep("S3", "fm-zgroup")
    sch = rep.scheme_
    assert (sch.m, sch.d, sch.sigma1) == (3, 2, 2)
    assert sch.multiply((1, 2, 1), (1, 1, 0)) == (0, 2, 1)


def test_zgroup_right_identity_returns_left(corpus):
    rep = corpus.rep("C7:C3", "fm-zgroup")
    lab = rep.labeler_
    le = lab.label(1)
    assert le[0] == 0 and le[2] == 0
    for x in range(1, 22):
        lx = lab.label(x)
        assert rep.scheme_.multiply(lx, le) == lx


def test_zgroup_exhaustive_label_sweep(corpus):
    for name in ("S3", "C7:C3", "C5:C4", "C30", "D7"):
        G = corpus.table(name)
        rep = corpus.rep(name, "fm-zgroup")
        lab, sch = rep.labeler_, rep.scheme_
        for x in G.elements:
            for y in G.elements:
                assert lab.element(sch.multiply(lab.label(x), lab.label(y))) \
                    == G.mult(x, y), (name, x, y)


def test_zgroup_small_d_uses_table_probe(corpus):
    rep = corpus.rep("S3", "fm-zgroup")
    assert rep.scheme_.sigma_table is not None
    _, ledger = probe_counted_multiply(rep, 4, 5)
    assert ledger["table"] == 1 and ledger.total() == 1


def test_zgroup_large_d_falls_back_to_exponentiation():
    G = gt.make_cyclic(130)      # decomposes with d possibly above the cap
    rep = fm.ZGroupFM(table_max=0).fit(G)
    assert rep.scheme_.sigma_table is None
    _, ledger = probe_counted_multiply(rep, 100, 99)
    assert ledger.total() == 0
    assert verify_exhaustive(rep, G) is None


def test_zgroup_store_bound(corpus):
    for name in ("S3", "C5:C4", "C7:C3", "C1024", "C360"):
        rep = corpus.rep(name, "fm-zgroup")
        assert fm.qpu_space(rep.scheme_) <= 80, name


def test_zgroup_virtual_large():
    # C_8191 x| C_2 with inverting action, 8190^2 = 1 mod 8191, and no
    # table: the id i*d + j + 1 names a**i * b**j
    scheme = fm.ZGroupScheme(8191, 2, 8190)
    assert fm.qpu_space(scheme) <= 80
    d, sigma = scheme.d, scheme._bound_sigma(np.asarray)

    def label(x):
        i, j = divmod(x - 1, d)
        return (i, sigma(j), j)

    rng = np.random.RandomState(5)
    for _ in range(300):
        x, y = (int(v) for v in rng.randint(1, 8191 * 2 + 1, 2))
        i, _, j = scheme.multiply(label(x), label(y))
        assert i * d + j + 1 == metacyclic_product(8191, d, 8190, x, y)


def test_zgroup_action_consistency_checked():
    with pytest.raises(ValidationError):
        fm.ZGroupScheme(7, 3, 3)     # 3^3 = 27 = 6 mod 7, not an order-3 action
    for m, d in ((0, 3), (7, 0)):    # orders below 1
        with pytest.raises(ValidationError):
            fm.ZGroupScheme(m, d, 1)


def test_zgroup_orders_whose_products_wrap_int64_are_rejected():
    # a query computes i1 + s1 * i2, up to m * (m - 1), which int64 arrays
    # hold exactly when m <= 3,037,000,499 (m * m < 2**63)
    def u32(*vals):
        return b"".join(v.to_bytes(4, "little") for v in vals)

    # S3's store: m, d, sigma1 and table_max, a table flag, sigma_table
    s3 = ser.to_bytes(fm.ZGroupFM().fit(gt.make_symmetric(3)))
    assert s3[4:29] == u32(3, 2, 2, 64) + b"\x01" + u32(1, 2)
    for m in (3_037_000_500, 4_294_967_291):
        with pytest.raises(ValidationError, match="wraps"):
            fm.ZGroupScheme(m, 2, m - 1)
        # the store of C_m x| C_2, inverting: m, sigma1 and sigma_table[1]
        data = bytearray(s3)
        for at, v in ((4, m), (12, m - 1), (25, m - 1)):
            data[at:at + 4] = u32(v)
        with pytest.raises(ValidationError, match="wraps"):
            ser.fm_store_from_bytes(bytes(data))
    m = 3_037_000_499
    scheme = fm.ZGroupScheme(m, 2, m - 1)
    lab = (m - 1, m - 1, 1)         # a**(m-1) * b: its square is e
    assert scheme.multiply(lab, lab) == (0, 1, 0)
    col = tuple(np.array([v], dtype=np.int64) for v in lab)
    assert tuple(int(c[0]) for c in scheme._kernel(col, col)) == (0, 1, 0)


def test_zgroup_table_max_is_range_checked_before_the_search():
    # Klein has no Z-group split: the bound is rejected before the search
    for bad in (-1, 1 << 32, 64.5, True, "64"):
        with pytest.raises(ValidationError, match="table_max"):
            fm.ZGroupFM(table_max=bad).fit(gt.make_abelian([2, 2]))
        with pytest.raises(ValidationError, match="table_max"):
            fm.ZGroupScheme(7, 3, 2, table_max=bad)
    # so are the orders and the multiplier, never truncated
    for args in ((7.9, 3, 2), (7, 3.0, 2), (7, 3, 2.9), (7, True, 2),
                 ("7", 3, 2)):
        with pytest.raises(ValidationError, match="must be an integer"):
            fm.ZGroupScheme(*args)
    scheme = fm.SemidirectFM().fit(gt.make_symmetric(3)).scheme_
    with pytest.raises(ValidationError, match="order m must be an integer"):
        fm.SemidirectScheme(2.5, scheme.cycle, scheme.abelian,
                            scheme.labels_of_a, scheme.index_of_label)
    # make_metacyclic(7, 3, True) built C7 x C3, and (7.0, 3, 2) raised
    # TypeError
    for args in ((7, 3, True), (7.0, 3, 2), (7, 3.0, 2), (7, 3, "2")):
        with pytest.raises(ValidationError, match="must be an integer"):
            make_metacyclic(*args)
    for ok in (0, (1 << 32) - 1):
        rep = fm.ZGroupFM(table_max=ok).fit(gt.make_symmetric(3))
        assert ser.from_bytes(ser.to_bytes(rep)).scheme_.table_max == ok


def test_zgroup_rejects_klein():
    with pytest.raises(PreconditionError, match="Sylow"):
        fm.ZGroupFM().fit(gt.make_abelian([2, 2]))


# -- cycle structure ---------------------------------------------------------------

def test_cycle_structure_example():
    pi = np.array([2, 3, 1, 5, 4])      # cycles (1 2 3)(4 5)
    cs = fm.CycleStructure(pi)
    # oracle: iterate the permutation explicitly
    assert cs.apply_power(1, 4) == iterate_permutation(pi, 1, 4) == 2
    assert cs.apply_power(4, 2) == iterate_permutation(pi, 4, 2) == 4
    assert cs.apply_power(3, 0) == 3


def test_cycle_structure_partition_invariant():
    rng = np.random.RandomState(1)
    pi = rng.permutation(50) + 1
    cs = fm.CycleStructure(pi)
    assert sum(len(c) for c in cs.cycles) == 50
    for cyc in cs.cycles:
        assert cyc[0] == min(cyc)
        for r in range(len(cyc)):
            assert pi[cyc[r] - 1] == cyc[(r + 1) % len(cyc)]


def test_cycle_structure_probe_count():
    cs = fm.CycleStructure(np.array([3, 1, 2, 4]))
    ledger = ProbeLedger()
    assert cs.apply_power(2, 9) == iterate_permutation([3, 1, 2, 4], 2, 9)
    cs._count(ledger)
    assert ledger.total() == 2
    assert ledger.counts["forward"] == ledger.counts["backward"] == 1


def test_cycle_structure_rejects():
    with pytest.raises(ValidationError):
        fm.CycleStructure(np.array([1, 1, 3]))
    # points are integers, never truncated: [2.7, 1] was read as (2, 1)
    for bad in ([2.7, 1], [2.0, 1.0], [True, False], ["2", "1"], [],
                [1 << 70, 1]):
        with pytest.raises(ValidationError):
            fm.CycleStructure(bad)
    assert fm.CycleStructure(np.array([2, 1], dtype=np.uint8)).n_points == 2
    cs = fm.CycleStructure(np.array([2, 1]))
    with pytest.raises(ValidationError):
        cs.apply_power(3, 1)
    with pytest.raises(ValidationError):
        cs.apply_power(1, -1)


def test_cycle_structure_answers_or_rejects_each_exponent():
    # an exponent is answered exactly in Python ints, or rejected as an id
    # is: never truncated, taken for 1, or failed with a non-library error
    pi = np.array([2, 3, 1, 5, 4])      # cycles (1 2 3)(4 5)
    cs = fm.CycleStructure(pi)
    for d in (True, False, 2.5, 2.0, np.float64(2.0), "1", None, [1]):
        with pytest.raises(ValidationError, match="exponent must be an int"):
            cs.apply_power(1, d)
    for d in (-1, np.int64(-1), -(10 ** 30)):
        with pytest.raises(ValidationError, match="negative powers"):
            cs.apply_power(1, d)
    for d in (np.int64(4), np.uint8(4), np.int32(4), np.uint64(4)):
        got = cs.apply_power(1, d)
        assert got == 2 and type(got) is int
    # the cycles have lengths 3 and 2, so powers repeat every 6
    for d in (10 ** 30, 2 ** 64 + 1, 2 ** 63):
        for g in range(1, 6):
            got = cs.apply_power(g, d)
            assert type(got) is int
            assert got == iterate_permutation(pi, g, d % 6), (g, d)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cycle_structure_matches_iteration(data):
    n = data.draw(st.integers(1, 30))
    perm = data.draw(st.permutations(list(range(1, n + 1))))
    pi = np.array(perm)
    cs = fm.CycleStructure(pi)
    g = data.draw(st.integers(1, n))
    d = data.draw(st.integers(0, 500))
    assert cs.apply_power(g, d) == iterate_permutation(pi, g, d)


def _assert_cycles_match_walk(pi):
    cs = fm.CycleStructure(pi)
    cycles, index = cycle_walk(pi)
    assert [c.tolist() for c in cs.cycles] == cycles
    assert cs.index_.tolist() == index.tolist()
    assert cs.lengths_.tolist() == [len(c) for c in cycles]
    assert cs.flat_.tolist() == [g for c in cycles for g in c]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cycle_structure_matches_cycle_walk(data):
    # random permutations, with many fixed points, and one long cycle
    n = data.draw(st.integers(1, 200))
    order = np.array(data.draw(st.permutations(range(1, n + 1))))
    shape = data.draw(st.sampled_from(["random", "fixed points", "one cycle"]))
    pi = order
    if shape == "fixed points":
        moved = order[:data.draw(st.integers(0, n))]
        pi = np.arange(1, n + 1)
        pi[moved - 1] = data.draw(st.permutations(moved.tolist()))
    elif shape == "one cycle":
        pi = np.empty(n, dtype=np.int64)
        pi[order - 1] = np.roll(order, -1)
    _assert_cycles_match_walk(pi)


def test_cycle_structure_edge_cases():
    _assert_cycles_match_walk(np.array([1]))
    _assert_cycles_match_walk(np.arange(1, 10))
    _assert_cycles_match_walk(np.roll(np.arange(1, 1001), 1))
    _assert_cycles_match_walk(np.random.RandomState(3).permutation(1000) + 1)


# -- semidirect -------------------------------------------------------------------

def test_semidirect_right_identity(corpus):
    G = corpus.table("A4")
    rep = corpus.rep("A4", "fm-semidirect")
    le = rep.labeler_.label(G.identity)
    for x in G.elements:
        lx = rep.labeler_.label(x)
        assert rep.scheme_.multiply(lx, le) == lx


def test_semidirect_s3_agrees_with_zgroup_scheme(corpus):
    G = corpus.table("S3")
    rs = corpus.rep("S3", "fm-semidirect")
    rz = corpus.rep("S3", "fm-zgroup")
    for x in G.elements:
        for y in G.elements:
            assert rs.multiply(x, y) == rz.multiply(x, y) == G.mult(x, y)


def test_semidirect_a4_exhaustive_label_sweep(corpus):
    G = corpus.table("A4")
    rep = corpus.rep("A4", "fm-semidirect")
    lab, sch = rep.labeler_, rep.scheme_
    for x in G.elements:
        for y in G.elements:
            got = lab.element(sch.multiply(lab.label(x), lab.label(y)))
            assert got == G.mult(x, y)


def test_semidirect_store_bound(corpus):
    for name in ("A4", "S3", "D16", "C2^6"):
        rep = corpus.rep(name, "fm-semidirect")
        assert fm.qpu_space(rep.scheme_) <= 8 * rep.scheme_.a_order, name


def test_semidirect_probe_count(corpus):
    rep = corpus.rep("A4", "fm-semidirect")
    _, ledger = probe_counted_multiply(rep, 5, 9)
    assert ledger.total() == 4


def test_semidirect_store_cannot_be_written_in_place():
    G = make_metacyclic(127, 7, 2)
    rep = fm.SemidirectFM().fit(G)
    with pytest.raises(ValueError):
        rep.scheme_.labels_of_a[0] += 1
    assert rep.multiply(2, 3) == G.mult(2, 3) == 4


def test_semidirect_rejects_s4(corpus):
    with pytest.raises(PreconditionError):
        fm.SemidirectFM().fit(corpus.table("S4"))


def test_c1024_random_sweep_fm_kinds(corpus):
    G = corpus.table("C1024")
    from gtool.verify import verify_random
    for kind in ("fm-abelian", "fm-zgroup", "fm-semidirect"):
        rep = corpus.rep("C1024", kind)
        assert verify_random(rep, G, 100_000, seed=4) is None, kind


# -- purity ------------------------------------------------------------------------

def test_scheme_multiply_is_pure(corpus):
    rep = corpus.rep("C7:C3", "fm-zgroup")
    sch = rep.scheme_
    l1 = rep.labeler_.label(5)
    l2 = rep.labeler_.label(18)
    first = sch.multiply(l1, l2)
    for _ in range(5):
        assert sch.multiply(l1, l2) == first


# one small group per scheme, with the reads of one query; C7:C3 has d = 3,
# so table_max = 0 sends its sigma to the exponentiation
FM_SCHEMES = [
    ("C2xC4xC9", "fm-abelian", {}, {}),
    ("Q8xC3", "fm-hamiltonian", {}, {"table": 1}),
    ("C7:C3", "fm-zgroup", {}, {"table": 1}),
    ("C7:C3", "fm-zgroup", {"table_max": 0}, {}),
    ("A4", "fm-semidirect", {}, {"forward": 2, "backward": 2}),
]
FM_IDS = ["abelian", "hamiltonian", "zgroup", "zgroup-no-table", "semidirect"]


def _all_label_pairs(corpus, name, rep):
    """Every pair of labels, and the label of each pair's product."""
    G, lab = corpus.table(name), rep.labeler_
    ids = range(1, G.n + 1)
    pairs = [(lab.label(x), lab.label(y)) for x in ids for y in ids]
    return pairs, [lab.label(G.mult(x, y)) for x in ids for y in ids]


def _assert_scheme_answers(sch, pairs, want):
    """``multiply`` gives ``want`` in Python ints, and so does ``_kernel``
    on Python ints and, column by column, on int64 arrays."""
    got = [sch.multiply(l1, l2) for l1, l2 in pairs]
    assert got == want
    assert all(type(v) is int for lab in got for v in lab)
    assert [sch._kernel(l1, l2) for l1, l2 in pairs] == want
    l1s, l2s = ([np.array(c, dtype=np.int64) for c in zip(*side)]
                for side in zip(*pairs))
    cols = sch._kernel(tuple(l1s), tuple(l2s))
    assert [tuple(lab) for lab in zip(*(c.tolist() for c in cols))] == want


@pytest.mark.parametrize("name, kind, params, reads", FM_SCHEMES, ids=FM_IDS)
def test_scheme_multiply_is_the_kernel_bound_on_a_twin(corpus, name, kind,
                                                       params, reads):
    rep = copy.deepcopy(corpus.rep(name, kind, **params))
    if kind == "fm-zgroup":
        assert (rep.scheme_.sigma_table is None) == ("table_max" in params)
    pairs, want = _all_label_pairs(corpus, name, rep)
    sch = rep.scheme_
    _assert_scheme_answers(sch, pairs, want)
    # the first calls bound the closures; a lookup returns each as is, and
    # no pickle or copy carries them
    bound = vars(sch)["multiply"]
    assert sch.multiply is bound and callable(bound)
    assert callable(vars(sch)["_kernel"])
    store = ser.fm_store_from_bytes(ser.to_bytes(rep))
    for other in (pickle.loads(pickle.dumps(sch)), copy.copy(sch),
                  copy.deepcopy(sch), pickle.loads(pickle.dumps(rep)).scheme_,
                  store):
        assert type(other) is type(sch)
        assert not {"multiply", "_kernel"} & set(vars(other))
        _assert_scheme_answers(other, pairs, want)
    # setting or deleting any attribute drops the closure
    name0 = next(iter(vars(sch)))
    value = getattr(sch, name0)
    setattr(sch, name0, value)
    assert not {"multiply", "_kernel"} & set(vars(sch))
    _assert_scheme_answers(sch, pairs, want)
    delattr(sch, name0)
    assert not {"multiply", "_kernel"} & set(vars(sch))
    setattr(sch, name0, value)
    _assert_scheme_answers(sch, pairs, want)


BOUND = {"label", "element", "apply_power"}


def _labels_and_powers(lab, cycle):
    """Every label, the element of each, and each point's power 0, 1
    and 5 of the cycle structure."""
    labels = [lab.label(x) for x in range(1, lab.n + 1)]
    return labels, [lab.element(v) for v in labels], [
        cycle.apply_power(g, d)
        for g in range(1, cycle.n_points + 1) for d in (0, 1, 5)]


@pytest.mark.parametrize("name, kind, params, reads", FM_SCHEMES, ids=FM_IDS)
def test_labeler_and_cycle_maps_are_bound_once(
        monkeypatch, corpus, name, kind, params, reads):
    rep = copy.deepcopy(corpus.rep(name, kind, **params))
    lab = rep.labeler_
    pi = np.random.RandomState(lab.n).permutation(lab.n) + 1
    cycle = fm.CycleStructure(pi)
    runs = {"_bound_maps": 0, "_bound_power": 0}
    for cls, binder in ((type(lab), "_bound_maps"),
                        (fm.CycleStructure, "_bound_power")):
        def counted(self, view, bind=getattr(cls, binder), binder=binder):
            runs[binder] += 1
            return bind(self, view)
        monkeypatch.setattr(cls, binder, counted)
    want = _labels_and_powers(lab, cycle)
    labels, elements, powers = want
    assert elements == list(range(1, lab.n + 1))
    assert powers == [iterate_permutation(pi, g, d)
                      for g in range(1, lab.n + 1) for d in (0, 1, 5)]
    assert all(type(v) is int
               for v in [*elements, *powers, *(u for t in labels for u in t)])
    # the first label and element bound the maps, and the first
    # apply_power the cycle reads; later calls run no binder
    assert runs == {"_bound_maps": 2, "_bound_power": 1}
    assert _labels_and_powers(lab, cycle) == want
    assert runs == {"_bound_maps": 2, "_bound_power": 1}
    assert set(vars(lab)) >= {"label", "element"}
    assert "apply_power" in vars(cycle)
    # no pickle or copy carries a bound closure
    for obj in (lab, cycle):
        for other in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                      copy.deepcopy(obj)):
            assert type(other) is type(obj) and not BOUND & set(vars(other))
    twins = (pickle.loads(pickle.dumps(lab)), copy.deepcopy(cycle))
    assert _labels_and_powers(*twins) == want
    # setting or deleting any attribute drops the closures
    for obj, name0 in ((lab, "n"), (cycle, "n_points")):
        value = getattr(obj, name0)
        setattr(obj, name0, value)
        assert not BOUND & set(vars(obj))
        delattr(obj, name0)
        assert not BOUND & set(vars(obj))
        setattr(obj, name0, value)
    assert _labels_and_powers(lab, cycle) == want
    # the two twins, then the dropped closures, bound once each
    assert runs == {"_bound_maps": 6, "_bound_power": 3}


@pytest.mark.parametrize("name, kind, params, reads", FM_SCHEMES, ids=FM_IDS)
def test_probe_ledgers_stay_out_of_the_bound_closures(corpus, name, kind,
                                                      params, reads):
    # scalar id and label queries bind the closures first; a counted
    # query runs the same closure and counts the scheme's stated reads
    rep = copy.deepcopy(corpus.rep(name, kind, **params))
    G = corpus.table(name)
    rep.multiply(1, G.n)
    rep.scheme_.multiply(rep.labeler_.label(1), rep.labeler_.label(G.n))
    assert callable(vars(rep)["multiply"])
    assert callable(vars(rep.scheme_)["multiply"])
    lo, hi = rep.probe_bounds()
    for x in range(1, G.n + 1):
        for y in range(1, G.n + 1):
            z, ledger = probe_counted_multiply(rep, x, y)
            assert z == G.mult(x, y)
            assert lo == ledger.total() == hi
            assert {k: v for k, v in ledger.counts.items() if v} == reads


# -- checked labels ----------------------------------------------------------------

def _labeler(corpus, scheme):
    name = {"abelian": "C2xC4xC9", "hamiltonian": "Q8xC2xC5",
            "zgroup": "C7:C3", "semidirect": "A4"}[scheme]
    return corpus.rep(name, f"fm-{scheme}").labeler_


def _malformed(lab, rng):
    """Labels made from the valid ``lab``: one component shifted, widened,
    negated or retyped, the arity changed, or another container."""
    i = int(rng.randint(len(lab)))
    v = lab[i]
    swaps = [v + 1, v - 1, v + 1000, -1, -v - 1, 2 * v + 1, 1 << 20,
             1 << 62, 1 << 63, 1 << 70, -(1 << 70), float(v), v + 0.5,
             True, False, str(v), None, np.int64(v), np.uint64(v),
             np.float64(v), int(rng.randint(1 << 16))]
    out = [lab[:i] + (s,) + lab[i + 1:] for s in swaps]
    out += [lab[:-1], lab + (0,), (), list(lab), lab[0], None, "label",
            np.array(lab), tuple(float(u) for u in lab)]
    return out


@pytest.mark.parametrize("scheme", ["abelian", "hamiltonian", "zgroup",
                                    "semidirect"])
def test_label_fuzz_answers_exactly_or_raises(corpus, scheme):
    # element takes back every label, and takes no tuple that is not one:
    # whatever else it is given, and whatever id label is given, either
    # answers exactly or raises a GtoolError
    lab = _labeler(corpus, scheme)
    rng = np.random.RandomState(12)
    for x in range(1, lab.n + 1):
        assert lab.element(lab.label(x)) == x, (scheme, x)
    for x in (0, -1, lab.n + 1, 1 << 70, 1.0, True, None, "1"):
        with pytest.raises(GtoolError):
            lab.label(x)
    for x in rng.randint(1, lab.n + 1, 40).tolist():
        for bad in _malformed(lab.label(x), rng):
            try:
                y = lab.element(bad)
            except GtoolError:
                continue
            assert lab.label(y) == tuple(int(v) for v in bad), (scheme, bad)


def test_element_rejects_labels_that_crashed_or_lied(corpus):
    abelian = corpus.rep("C2xC4xC9", "fm-abelian").labeler_
    for bad in ((1 << 20,), (-1,), (1.5,)):
        with pytest.raises(ValidationError):
            abelian.element(bad)
    with pytest.raises(ValidationError):
        corpus.rep("A4", "fm-semidirect").labeler_.element((0, 0, 0))
    with pytest.raises(ValidationError):
        corpus.rep("S3", "fm-zgroup").labeler_.element((0, 99, 1))
    # per labeler, the components its elements map indexes with: a short
    # tuple or a huge component reads past an end, and -1 may wrap a read
    # onto an element, even the one whose label it imitates; the round
    # trip rejects every one of them
    indexed = {"abelian": (0,), "hamiltonian": (0,), "zgroup": (0, 2),
               "semidirect": (1, 2)}
    for scheme, components in indexed.items():
        lab = _labeler(corpus, scheme)
        elements = lab._bound_maps(_view)[1]
        for x in (1, lab.n):
            good = lab.label(x)
            short = good[:max(components)]
            with pytest.raises(IndexError):
                elements(short)
            bad = [short]
            for i in components:
                bad += [good[:i] + (v,) + good[i + 1:] for v in (-1, 1 << 70)]
            for b in bad:
                with pytest.raises(ValidationError, match="not a label"):
                    lab.element(b)
            assert lab.element(tuple(map(np.int64, good))) == x
    zgroup = _labeler(corpus, "zgroup")     # C7:C3
    assert zgroup.label(21) == (6, 4, 2)
    assert zgroup._bound_maps(_view)[1]((-1, 4, 2)) == 21
