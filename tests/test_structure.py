import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import gtool as gt
from gtool import structure as st
from gtool.base import GtoolError, PreconditionError

from conftest import _CACHE, small_entries
from oracles import (abelian_basis, brute_sylow_cyclic, normality_witness,
                     order_multiset, power_walk, semidirect_split,
                     subgroup_closure)


def test_abelian_basis_c6():
    b = st.abelian_basis(gt.make_cyclic(6))
    assert sorted(b.orders) == [2, 3]


def test_abelian_basis_c2xc4():
    # n = 8 with a maximal element order of 4 forces factor orders {4, 2}
    G = gt.make_direct(gt.make_cyclic(2), gt.make_cyclic(4))
    assert max(order_multiset(G.table, G.identity)) == 4
    b = st.abelian_basis(G)
    assert sorted(b.orders) == [2, 4]


def test_abelian_basis_elementary():
    b = st.abelian_basis(gt.make_abelian([2, 2, 2]))
    assert sorted(b.orders) == [2, 2, 2]


def test_abelian_basis_rejects_nonabelian():
    with pytest.raises(PreconditionError):
        st.abelian_basis(gt.make_quaternion())


@pytest.mark.parametrize("orders", [[4], [2, 4], [3, 9], [2, 4, 9],
                                    [2, 2, 2, 2], [8, 3, 5], [16, 27]])
def test_abelian_coordinates_bijective_reconstruction(orders):
    G = gt.make_abelian(orders)
    co = st.AbelianCoordinates(G)
    n = 1
    for d in co.orders:
        n *= d
    assert n == G.n
    assert all(len(st._prime_factors(d)) == 1 for d in co.orders)
    # exponent tuples are unique and reconstruct every element
    seen = set()
    for x in G.elements:
        tup = tuple(int(v) for v in co.coords[x - 1])
        assert tup not in seen
        seen.add(tup)
        acc = G.identity
        for gen, e in zip(co.basis.generators, tup):
            for _ in range(int(e)):
                acc = G.mult(acc, gen)
        assert acc == x


def test_abelian_basis_order_convention():
    co = st.AbelianCoordinates(gt.make_abelian([2, 4, 9]))
    # primes ascending, powers descending within a prime
    assert co.orders == (4, 2, 9)


@pytest.mark.parametrize("name, expected", [
    ("S3", True), ("Klein", False), ("C12", True), ("Q8", False),
    ("S4", False), ("A4", False), ("C7:C3", True), ("D5", True), ("D4", False),
])
def test_is_z_group(name, expected):
    groups = {
        "S3": gt.make_symmetric(3),
        "Klein": gt.make_abelian([2, 2]),
        "C12": gt.make_cyclic(12),
        "Q8": gt.make_quaternion(),
        "S4": gt.make_symmetric(4),
        "A4": gt.make_alternating(4),
        "C7:C3": _g21(),
        "D5": gt.make_dihedral(5),
        "D4": gt.make_dihedral(4),
    }
    assert st.is_z_group(groups[name]) == expected


def _g21():
    act = np.array([[(i * pow(2, j, 7)) % 7 + 1 for i in range(7)]
                    for j in range(3)])
    return gt.make_semidirect(
        gt.SemidirectSpec(gt.make_cyclic(7), gt.make_cyclic(3), act))


def test_is_z_group_agrees_with_brute_force_sylow(corpus):
    from conftest import small_entries
    for e in small_entries(200):
        G = corpus.table(e.name)
        primes = {p for p, _ in st._prime_factors(G.n)}
        brute = all(brute_sylow_cyclic(G.table, G.identity, p)
                    for p in primes)
        assert st.is_z_group(G) == brute == e.flags["z_group"], e.name


def test_zgroup_decomposition_s3():
    G = gt.make_symmetric(3)
    d = st.find_zgroup_decomposition(G)
    assert (d.a_order, d.b_order) == (3, 2)
    # conjugation by the order-2 complement inverts the normal C3
    assert d.multiplier == 2


def test_zgroup_decomposition_c6():
    d = st.find_zgroup_decomposition(gt.make_cyclic(6))
    assert d.a_order * d.b_order == 6
    assert d.a_order in (6, 3)


def test_zgroup_decomposition_order21():
    G = _g21()
    d = st.find_zgroup_decomposition(G)
    assert (d.a_order, d.b_order) == (7, 3)


def test_zgroup_decomposition_roundtrip_through_semidirect(corpus):
    # feeding the found spec back through the constructor must give a group
    # whose pairing map is a homomorphism onto the original
    for name in ("S3", "C12", "C7:C3", "C5:C4", "D5"):
        G = corpus.table(name)
        d = st.find_zgroup_decomposition(G)
        H = gt.make_semidirect(d.spec)
        nB = d.b_order
        for x in range(1, H.n + 1):
            ax, bx = divmod(x - 1, nB)
            gx = int(d.pairing[ax, bx])
            for y in range(1, H.n + 1):
                ay, by = divmod(y - 1, nB)
                gy = int(d.pairing[ay, by])
                z = H.mult(x, y)
                az, bz = divmod(z - 1, nB)
                assert G.mult(gx, gy) == int(d.pairing[az, bz])


def test_zgroup_decomposition_rejects_klein():
    with pytest.raises(PreconditionError, match="Sylow 2"):
        st.find_zgroup_decomposition(gt.make_abelian([2, 2]))


def test_hamiltonian_q8():
    d = st.find_hamiltonian_decomposition(gt.make_quaternion())
    assert d.c_table.n == 1


def test_hamiltonian_q8xc3():
    G = gt.make_direct(gt.make_quaternion(), gt.make_cyclic(3))
    d = st.find_hamiltonian_decomposition(G)
    assert d.c_table.n == 3
    assert d.c_table.is_abelian()
    # embedding realizes the canonical quaternion table
    Q = gt.make_quaternion()
    for p in range(1, 9):
        for q in range(1, 9):
            lhs = G.mult(d.q8_embedding[p - 1], d.q8_embedding[q - 1])
            assert lhs == d.q8_embedding[Q.mult(p, q) - 1]


def test_hamiltonian_pairing_componentwise(corpus):
    G = corpus.table("Q8xC2xC5")
    d = st.find_hamiltonian_decomposition(G)
    assert d.c_table.n == 10
    Q = gt.make_quaternion()
    rng = np.random.RandomState(7)
    for _ in range(500):
        q1, q2 = rng.randint(1, 9, 2)
        c1, c2 = rng.randint(1, d.c_table.n + 1, 2)
        g1 = int(d.pairing[q1 - 1, c1 - 1])
        g2 = int(d.pairing[q2 - 1, c2 - 1])
        q3, c3 = Q.mult(q1, q2), d.c_table.mult(c1, c2)
        assert G.mult(g1, g2) == int(d.pairing[q3 - 1, c3 - 1])


def test_hamiltonian_rejects_s3_with_witness():
    # the cyclic subgroup generated by a transposition is not normal
    with pytest.raises(PreconditionError, match="not normal"):
        st.find_hamiltonian_decomposition(gt.make_symmetric(3))


def test_hamiltonian_rejects_abelian():
    with pytest.raises(PreconditionError):
        st.find_hamiltonian_decomposition(gt.make_cyclic(8))


@pytest.mark.parametrize("n, expected", [(1, False), (2, True), (3, True),
                                         (4, False), (5, True), (6, False)])
def test_is_simple_cyclic(n, expected):
    assert st.is_simple(gt.make_cyclic(n)) == expected


def test_is_simple_nonabelian(corpus):
    assert st.is_simple(corpus.table("A5"))
    assert st.is_simple(corpus.table("PSL(2,7)"))
    assert not st.is_simple(corpus.table("A4"))
    assert not st.is_simple(corpus.table("S4"))
    assert not st.is_simple(corpus.table("Q8"))


def test_semidirect_decomposition_a4(corpus):
    d = st.find_semidirect_decomposition(corpus.table("A4"))
    assert (d.a_order, d.b_order) == (4, 3)
    assert d.spec.A.is_abelian()


def test_semidirect_decomposition_abelian_whole():
    d = st.find_semidirect_decomposition(gt.make_cyclic(15))
    assert d.a_order == 15 and d.b_order == 1


def test_semidirect_decomposition_rejects(corpus):
    for name in ("S4", "Q8", "A5", "Q8xC3"):
        with pytest.raises(PreconditionError):
            st.find_semidirect_decomposition(corpus.table(name))


def test_corpus_flags_match_detectors(corpus):
    from conftest import small_entries
    for e in small_entries(512):
        G = corpus.table(e.name)
        assert G.is_abelian() == e.flags["abelian"], e.name
        # the vectorized orders against the scalar walk, element by element
        assert G.element_orders().tolist() == [G.element_order(x)
                                               for x in G.elements], e.name
        # and the powers by doubling against the scalar walk
        assert all(G.powers(x).tolist() == power_walk(G.table, G.identity, x)
                   for x in G.elements), e.name
        assert bool((G.element_orders() == G.n).any()) == e.flags["cyclic"], e.name
        assert st.is_z_group(G) == e.flags["z_group"], e.name
        assert st.is_simple(G) == e.flags["simple"], e.name
        is_ham = (not G.is_abelian()
                  and st.dedekind_violation(G) is None)
        assert is_ham == e.flags["hamiltonian"], e.name
        can_split = True
        try:
            st.find_semidirect_decomposition(G)
        except PreconditionError:
            can_split = False
        assert can_split == e.flags["semidirect"], e.name


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_subgroup_closure_matches_single_walk(data):
    # generator lists with repeats, the identity and members of the span
    # of earlier ones: skipping them must not change the subgroup
    entry = data.draw(hst.sampled_from(small_entries(512)))
    G = _CACHE.table(entry.name)
    ids = hst.integers(1, G.n)
    gens = data.draw(hst.lists(ids, max_size=6))
    for _ in range(data.draw(hst.integers(0, 3))):
        span = subgroup_closure(G.table, G.identity, gens)
        extra = data.draw(hst.sampled_from(span + [G.identity]))
        gens.insert(data.draw(hst.integers(0, len(gens))), extra)
    if gens and data.draw(hst.booleans()):
        gens.append(data.draw(hst.sampled_from(gens)))
    assert st.subgroup_closure(G, gens) == \
        subgroup_closure(G.table, G.identity, gens), (entry.name, gens)


@settings(max_examples=200, deadline=None)
@given(data=hst.data())
def test_is_normal_matches_member_scan(data):
    # subgroups spanned by one to three elements, tested through their
    # generators alone: the same least witness as conjugating every member
    entry = data.draw(hst.sampled_from(small_entries(512)))
    G = _CACHE.table(entry.name)
    gens = data.draw(hst.lists(hst.integers(1, G.n), min_size=1, max_size=3))
    H = st.subgroup_closure(G, gens)
    assert st._is_normal(G, H, gens) == \
        normality_witness(G.table, G.inverse, H), (entry.name, gens)


def _relabel(G, seed):
    """G with its ids permuted at random, the identity's id among them."""
    perm = np.random.RandomState(seed).permutation(G.n) + 1
    t = np.empty((G.n, G.n), dtype=np.int64)
    t[np.ix_(perm - 1, perm - 1)] = perm[G.table - 1]
    return gt.GroupTable(t)


def test_abelian_basis_matches_quotient_reference():
    for e in small_entries(512):
        if e.flags["abelian"]:
            G = _CACHE.table(e.name)
            b = st.abelian_basis(G)
            assert (b.generators, b.orders) == \
                abelian_basis(G.table, G.identity), e.name


@settings(max_examples=40, deadline=None)
@given(orders=hst.lists(hst.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]),
                        min_size=1, max_size=4),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_abelian_basis_matches_reference_relabelled(orders, seed):
    # the longest prefix of orders whose product is at most 512
    while math.prod(orders) > 512:
        orders.pop()
    G = _relabel(gt.make_abelian(orders), seed)
    b = st.abelian_basis(G)
    assert (b.generators, b.orders) == abelian_basis(G.table, G.identity)


@settings(max_examples=40, deadline=None)
@given(entry=hst.sampled_from([e for e in small_entries(512)
                               if not e.flags["abelian"]]),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_semidirect_decomposition_matches_class_closure_reference(entry, seed):
    G = _relabel(_CACHE.table(entry.name), seed)
    want = semidirect_split(G.table, G.identity)
    try:
        d = st.find_semidirect_decomposition(G)
    except PreconditionError:
        assert want is None, entry.name
        return
    assert (d.a_elements, d.b_element, d.multiplier) == want, entry.name


# commutative loops that pass the checks short of associativity: the
# order-6 one of test_groups, and one of order 8 in which squaring 2, 3
# or 7 cycles without reaching the identity
LOOPS = [
    [[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 4, 5, 6, 1, 2],
     [4, 3, 6, 5, 2, 1], [5, 6, 1, 2, 4, 3], [6, 5, 2, 1, 3, 4]],
    [[1, 2, 3, 4, 5, 6, 7, 8], [2, 4, 7, 3, 8, 5, 6, 1],
     [3, 7, 8, 2, 1, 4, 5, 6], [4, 3, 2, 7, 6, 8, 1, 5],
     [5, 8, 1, 6, 4, 7, 3, 2], [6, 5, 4, 8, 7, 1, 2, 3],
     [7, 6, 5, 1, 3, 2, 8, 4], [8, 1, 6, 5, 2, 3, 4, 7]],
]


def _timeout(signum, frame):
    raise TimeoutError("abelian_basis did not return")


@pytest.mark.parametrize("rows", LOOPS, ids=["order6", "order8"])
def test_abelian_basis_on_a_loop_returns_or_raises(rows):
    G = gt.GroupTable(np.array(rows))
    assert G.is_abelian()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        st.abelian_basis(G)
    except GtoolError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
