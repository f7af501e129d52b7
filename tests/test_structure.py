import copy
import math
import pickle
import signal
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import gtool as gt
from gtool import base, cli
from gtool import serialize as ser
from gtool import structure as st
from gtool.base import (_VIEWS, GtoolError, NotFittedError,
                        PreconditionError, ValidationError, _view,
                        check_element_id)
from gtool.blockrep import _kernel_source
from gtool.fm import AbelianScheme, SemidirectFM
from gtool.special import CompositeRep

from conftest import _CACHE, small_entries
from oracles import (LOOPS, LoopMixedRadix, abelian_basis, brute_sylow_cyclic,
                     normality_witness, order_multiset, power_walk,
                     semidirect_split, subgroup_closure)
from test_serialize import ALL_KINDS, _held_arrays


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


@pytest.mark.parametrize("find, G", [
    (gt.greedy_cube_sequence, gt.make_dihedral(5)),
    (gt.is_simple, gt.make_dihedral(5)),
    (gt.is_z_group, gt.make_dihedral(5)),
    (gt.abelian_basis, gt.make_cyclic(6)),
    (gt.find_zgroup_decomposition, gt.make_dihedral(5)),
    (gt.find_semidirect_decomposition, gt.make_dihedral(5)),
    (gt.find_hamiltonian_decomposition, gt.make_quaternion()),
], ids=lambda v: getattr(v, "__name__", None))
def test_structure_functions_take_any_table(find, G):
    # a nested-list table is coerced as every ``fit`` coerces it, and None
    # is refused as a table, not met by an AttributeError
    assert repr(find(G.table.tolist())) == repr(find(G))
    with pytest.raises(ValidationError, match="must be square"):
        find(None)


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


def _timeout(signum, frame):
    raise TimeoutError("abelian_basis did not return")


# the commutative loops pass every check short of associativity; validation
# rejects them, so they are built unvalidated
@pytest.mark.parametrize("rows", [LOOPS[6], LOOPS[8]], ids=["order6", "order8"])
def test_abelian_basis_on_a_loop_returns_or_raises(rows):
    G = gt.GroupTable(np.array(rows), validate=False)
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


def test_whole_group_split_does_not_copy_the_table():
    # on an abelian noncyclic G the split is A = G, b = e: A's table is G's
    # own, not a relabelled copy (3.28 int32 tables at the old code)
    for cls in (SemidirectFM, CompositeRep):
        G = gt.make_abelian([32, 32])
        tracemalloc.start()
        try:
            cls().fit(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * G.n * G.n * 4, (cls.__name__, peak)
    assert st.find_semidirect_decomposition(G).spec.A is G


# -- the generated mixed-radix codec ------------------------------------------

@hst.composite
def boxes(draw):
    """Sizes of 0 to 8 fields within the 63-bit budget, each of a drawn
    width: 1 for width 0, else above half the width's range and below
    2**63."""
    widths = draw(hst.lists(hst.one_of(hst.integers(0, 4), hst.integers(0, 63)),
                            max_size=8))
    while sum(widths) > 63:
        widths.pop()
    top = (1 << 63) - 1
    return tuple(draw(hst.integers((1 << w - 1) + 1, min(1 << w, top)))
                 if w else 1 for w in widths)


def _same(got, want) -> bool:
    """Equal, of the same type, and for arrays of the same dtype and shape."""
    if type(want) is tuple:
        return (type(got) is tuple and len(got) == len(want)
                and all(map(_same, got, want)))
    if isinstance(want, np.ndarray):
        return (type(got) is np.ndarray and got.dtype == want.dtype
                and got.shape == want.shape and np.array_equal(got, want))
    return type(got) is type(want) and got == want


def _arrays(value) -> list:
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return [value] if isinstance(value, np.ndarray) else []


@settings(max_examples=300, deadline=None)
@given(sizes=boxes(), seed=hst.integers(0, 2 ** 32 - 1),
       shape=hst.sampled_from([(), (0,), (5,), (2, 3)]))
def test_generated_codec_matches_loop_reference(sizes, seed, shape):
    # shape () draws Python ints, any other shape int64 arrays
    rng = np.random.default_rng(seed)

    def draw(hi):
        v = rng.integers(0, hi, size=shape, dtype=np.int64, endpoint=True)
        return int(v) if shape == () else v

    if math.prod(sizes[1:]) >= 1 << 63:     # field 0's stride is past int64
        with pytest.raises(PreconditionError):
            st.MixedRadix(sizes)
        return
    box, ref = st.MixedRadix(sizes), LoopMixedRadix(sizes)
    fields = tuple(draw(s - 1) for s in sizes)
    packed, w1, w2 = ref.pack(fields), draw((1 << 63) - 1), draw((1 << 63) - 1)
    calls = [("pack", fields), ("flat", fields), ("unflat", draw(box.size - 1)),
             ("unflat", w1), ("unpack", packed), ("unpack", w1),
             ("index", packed), ("index", w1), ("add", packed, packed),
             ("add", w1, w2)]
    for name, *args in calls:
        got = getattr(box, name)(*args)
        assert _same(got, getattr(ref, name)(*args)), (sizes, name)
        # no result aliases an input array (ints are immutable)
        assert not any(np.shares_memory(r, a) for r in _arrays(got)
                       for a in _arrays(args)), (sizes, name)


def test_codec_rejects_sizes_outside_int64():
    # 0 and -3 built, and unflat then divided by zero or gave a negative
    # field; 2**63 fits the 63-bit budget, and unflat and add on int64
    # arrays overflowed, as field 0's stride 2**63 did in flat and unflat
    for sizes in ((0,), (-3,), (2**63,), (1, 2**32, 2**31)):
        with pytest.raises(PreconditionError, match=r"\[1, 2\*\*63\)"):
            st.MixedRadix(sizes)
    # a size is an integer, never truncated: (2.5, 3) had sizes (2, 3)
    for sizes in ((2.5, 3), (True, 3), ("2", 3)):
        with pytest.raises(ValidationError, match="must be an integer"):
            st.MixedRadix(sizes)
    # the largest boxes on either side still build and answer
    for sizes in (((1 << 63) - 1,), (2**32, 2**31)):
        box, ref = st.MixedRadix(sizes), LoopMixedRadix(sizes)
        words = np.array([0, box.size - 1], dtype=np.int64)
        assert _same(box.unflat(words), ref.unflat(words))
        assert _same(box.add(words, words), ref.add(words, words))


def test_codec_pickles_and_copies():
    sizes = (4, 2, 9, 5)
    ref = LoopMixedRadix(sizes)
    flats = np.arange(math.prod(sizes), dtype=np.int64)
    words = ref.pack(ref.unflat(flats))
    box, scheme = st.MixedRadix(sizes), AbelianScheme(sizes)
    box.index(words)            # one method bound before the copies
    for obj in (box, scheme):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                     copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin.sizes == obj.sizes
            for name, args in [("pack", ref.unflat(flats)), ("unpack", words),
                               ("flat", ref.unflat(flats)), ("unflat", flats),
                               ("index", words), ("add", (words, words[::-1]))]:
                args = args if name == "add" else (args,)
                assert _same(getattr(twin, name)(*args),
                             getattr(obj, name)(*args)), (obj, name)
    twin = pickle.loads(pickle.dumps(scheme))
    assert twin.orders == scheme.orders
    assert _same(twin.multiply((words,), (words[::-1],)),
                 scheme.multiply((words,), (words[::-1],)))


def compiled_key(query) -> tuple:
    """The key of the one compiled binder that returned ``query``: the
    bound names, the arguments, whether ids are checked, and the lines."""
    (key,) = [key for key, bind in base._COMPILED.items()
              if query.__code__ in bind.__code__.co_consts]
    return key


def _bound(query) -> dict:
    """The names a rendered query reads from its binder, and their values."""
    return dict(zip(query.__code__.co_freevars,
                    (cell.cell_contents for cell in query.__closure__)))


def test_decode_compiles_nothing_and_a_query_only_its_box(corpus):
    # the codec terms are inlined in the queries: decoding compiles only
    # the composite index that its check reads, and a first query only
    # its own scalar source, no codec method
    artifacts = [(kind, ser.to_bytes(corpus.rep(name, kind, **params)))
                 for name, kind, params in ALL_KINDS]
    base._COMPILED.clear()
    reps = []
    for kind, data in artifacts:
        before = set(base._COMPILED)
        rep = ser.from_bytes(data)
        # the one decode check that reads a method, not .bits, .size or
        # holds: the composite words' flat indices invert backward
        want = ({(rep.sizes_, "index")} if kind in ("composite", "zgroup")
                else set())
        assert set(base._COMPILED) - before <= want, kind
        reps.append((kind, rep))
    compiled = len(base._COMPILED)
    for kind, data in artifacts:
        ser.from_bytes(data)
    assert len(base._COMPILED) == compiled      # no miss: nothing compiled
    for kind, rep in reps:
        before = set(base._COMPILED)
        rep.multiply(1, rep.n_)
        # the scalar form: the kind's template under the id check
        key = compiled_key(rep.multiply)
        assert key[1:] == (("x", "y"), True,
                           tuple(base._scalar_lines(rep._template()))), kind
        assert set(base._COMPILED) - before <= {key}, kind


def test_block_kernel_compiles_once_per_m_l_and_survives_copies(corpus):
    blocks = [(name, params) for name, kind, params in ALL_KINDS
              if kind == "block"]
    artifacts = [ser.to_bytes(corpus.rep(name, "block", **params))
                 for name, params in blocks]
    base._COMPILED.clear()
    reps = [ser.from_bytes(data) for data in artifacts]
    assert base._COMPILED == {}                 # decode compiles nothing
    for (name, _), rep in zip(blocks, reps):
        G = corpus.table(name)
        before = set(base._COMPILED)
        assert rep.multiply(2, 3) == G.multiply(2, 3)
        assert set(base._COMPILED) - before <= {compiled_key(rep.multiply)}
    # the first query compiled one kernel per (m, l); a second structure
    # with the same (m, l), from another group, adds no miss
    assert len(base._COMPILED) == len({(r.m_, r.l_) for r in reps})
    G = gt.make_dihedral(12)
    other = gt.BlockRep(l=2).fit(G)
    assert (other.m_, other.l_) == (reps[0].m_, reps[0].l_)
    compiled = dict(base._COMPILED)
    assert [other.multiply(x, y) for x in (1, 5, 24) for y in (1, 7, 24)] \
        == [G.multiply(x, y) for x in (1, 5, 24) for y in (1, 7, 24)]
    assert base._COMPILED == compiled
    # a queried rep holds its bound closures, which no copy carries
    rep, G = reps[0], corpus.table(blocks[0][0])
    pairs = np.array([(x, y) for x in range(1, G.n + 1)
                      for y in range(1, G.n + 1)])
    rep.predict(pairs)
    assert callable(vars(rep)["multiply"]) and callable(vars(rep)["_kernel"])
    for other in (pickle.loads(pickle.dumps(rep)), copy.copy(rep),
                  copy.deepcopy(rep)):
        assert not {"multiply", "_kernel"} & set(vars(other))
        assert [other.multiply(x, y) for x, y in pairs.tolist()] \
            == G.table[pairs[:, 0] - 1, pairs[:, 1] - 1].tolist()
        assert np.array_equal(other.predict(pairs), rep.predict(pairs))


def test_predict_and_multiply_render_one_block_template_per_m_l(
        corpus, monkeypatch):
    # one template per (m, l), rendered in two forms, each compiled once:
    # the batch form, and the scalar form, its body under the id check
    S4, C1024 = corpus.table("S4"), corpus.table("C1024")
    C1 = gt.make_cyclic(1)
    fitted = [(gt.BlockRep(l=l).fit(S4), S4) for l in (1, 2, 5)]
    fitted += [(gt.BlockRep(delta=1).fit(C1024), C1024),      # uint16 ids
               (gt.BlockRep(l=1).fit(C1), C1)]                # m = 0
    reps = [rep for rep, _ in fitted]
    sources = {}
    generated = base._generated

    def recorded(key, source, *args):
        if key not in base._COMPILED:
            assert key not in sources           # compiled once per key
            sources[key] = source(*args)
        return generated(key, source, *args)
    monkeypatch.setattr(base, "_generated", recorded)
    base._COMPILED.clear()
    for rep, G in fitted:
        pairs = np.random.default_rng(rep.l_).integers(1, G.n, (500, 2),
                                                       endpoint=True)
        for _ in range(2):
            assert np.array_equal(rep.predict(pairs),
                                  G.table[pairs[:, 0] - 1, pairs[:, 1] - 1])
            assert [rep.multiply(x, y) for x, y in pairs[:20].tolist()] \
                == G.table[pairs[:20, 0] - 1, pairs[:20, 1] - 1].tolist()
        # a copy binds the compiled forms again and compiles nothing
        twin = copy.deepcopy(rep)
        twin.predict(pairs[:5])
        twin.multiply(1, 1)
    keys = [(r.m_, r.l_) for r in reps]
    assert len(set(keys)) == len(reps)
    # exactly two keys per (m, l): one unchecked, whose lines are the
    # template under the batch rendering, over A, W, S and the names of
    # its literals; one checked, whose lines are the template, over
    # A, W, S and n
    assert sorted(base._COMPILED) == sorted(sources)
    forms = {}
    for m, l in keys:
        lines = tuple(_kernel_source(m, l))
        batch, consts = base._batch_lines(lines)
        assert batch != lines or m == 0
        for names, checked, body in (
                (("A", "W", "S", *consts), False, batch),
                (("A", "W", "S", "n"), True, lines)):
            forms[body, checked] = sources[names, ("x", "y"), checked, body]
    assert len(forms) == len(sources) == 2 * len(keys)
    for m, l in keys:
        lines = tuple(_kernel_source(m, l))
        for checked, body in ((False, base._batch_lines(lines)[0]),
                              (True, lines)):
            source = forms[body, checked]
            assert source.endswith("".join(f"        {line}\n"
                                           for line in body)
                                   + "    return query\n")
            assert ("check_element_id" in source) == checked
            assert ("check" in source) == checked
    # the batch form widens the ids through the stride S, a 0-d int64
    # array; the scalar form's S is a Python int
    rep = reps[3]
    assert rep.m_ << rep.l_ == 1024 and rep.mult_arrays_.dtype == np.uint16
    batch, scalar = (_bound(query)["S"] for query in (rep._kernel,
                                                      rep.multiply))
    assert type(batch) is np.ndarray and batch.dtype == np.int64
    assert batch.shape == () and batch == 1024
    assert type(scalar) is int and scalar == 1024
    # no ledger enters a block template
    assert [(m, l) for m in range(13) for l in range(1, 11)
            if "ledger" in "".join(_kernel_source(m, l))] == []


def _id_error(x, n) -> str:
    """The message of the general id check for ``x``."""
    with pytest.raises(ValidationError) as err:
        check_element_id(x, n)
    return str(err.value)


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_predict_returns_a_fresh_int64_array(corpus, name, kind, params):
    # predict casts without a copy where its kernel's answer is already
    # int64 (SimpleRep's fold), so no kind may answer in its input's or its
    # arrays' memory: a write to the answer must change no later answer
    G = corpus.table(name)
    n = G.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    pairs = np.stack([np.repeat(ids, n), np.tile(ids, n)], axis=1)
    fitted = corpus.rep(name, kind, **params)
    for tag, rep in (("fitted", fitted),
                     ("loaded", ser.from_bytes(ser.to_bytes(fitted)))):
        got = rep.predict(pairs)
        assert got.dtype == np.int64 and got.flags.writeable, (kind, tag)
        held = [a for a in rep._bound_arrays(np.asarray).values()
                if isinstance(a, np.ndarray)]
        assert held, (kind, tag)
        for arr in (pairs, *held):
            assert not np.shares_memory(got, arr), (kind, tag)
        got[:] = 0
        assert np.array_equal(rep.predict(pairs), G.table.reshape(-1))


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_multiply_is_a_checked_closure_bound_on_a_twin(corpus, name, kind,
                                                       params):
    G = corpus.table(name)
    pairs = [(x, y) for x in G.elements for y in G.elements]
    want = [G.mult(x, y) for x, y in pairs]
    fitted = corpus.rep(name, kind, **params)
    with pytest.raises(NotFittedError):
        type(fitted)(**fitted.get_params()).multiply(1, 1)
    with pytest.raises(NotFittedError):
        type(fitted)(**fitted.get_params()).probe_bounds()
    for rep in (copy.deepcopy(fitted), ser.from_bytes(ser.to_bytes(fitted))):
        assert "multiply" not in vars(rep)
        # the first query binds the closure, and only it; a lookup returns
        # it as is
        assert rep.multiply(1, G.n) == G.mult(1, G.n)
        bound = vars(rep)["multiply"]
        assert rep.multiply is bound and callable(bound)
        assert "_kernel" not in vars(rep)
        got = [bound(x, y) for x, y in pairs]
        assert got == want and all(type(z) is int for z in got)
        # numpy ids answer as ints do; other ids fail as the general check
        assert bound(np.int64(G.n), np.int64(1)) == G.mult(G.n, 1)
        for bad in (True, False, 1.0, 2.5, 0, -1, G.n + 1, np.int64(G.n + 1),
                    "1", None):
            for args in ((bad, 1), (1, bad)):
                for query in (bound, partial(gt.probe_counted_multiply, rep)):
                    with pytest.raises(ValidationError) as err:
                        query(*args)
                    assert str(err.value) == _id_error(bad, G.n), (kind, bad)
        # counted queries run the same closure, and count the stated reads
        lo, hi = rep.probe_bounds()
        assert lo == hi or kind == "simple"
        for x, y in pairs[::7]:
            z, ledger = gt.probe_counted_multiply(rep, x, y)
            assert z == G.mult(x, y) and lo <= ledger.total() <= hi
        assert vars(rep)["multiply"] is bound
        # predict binds its kernel in ``_kernel``'s place once (SimpleRep's
        # is its fold unless it delegates)
        arr = np.array(pairs)
        assert rep.predict(arr).tolist() == want
        kernel = vars(rep).get("_kernel")
        assert kernel is not None
        assert rep.predict(arr).tolist() == want
        assert vars(rep).get("_kernel") is kernel
        # no pickle or copy carries the caches
        for other in (pickle.loads(pickle.dumps(rep)), copy.copy(rep),
                      copy.deepcopy(rep)):
            assert not {"multiply", "_kernel"} & set(vars(other))
            assert [other.multiply(x, y) for x, y in pairs] == want
        # setting or deleting any attribute drops them
        if rep.get_params():            # a kind with no parameter sets none
            rep.set_params(**rep.get_params())
            assert not {"multiply", "_kernel"} & set(vars(rep))
            assert [rep.multiply(x, y) for x, y in pairs] == want
        n = rep.n_
        del rep.n_
        assert "multiply" not in vars(rep)
        with pytest.raises(NotFittedError):
            rep.multiply(1, 1)
        rep.n_ = n
        rep.multiply(1, 1)
        rep.fit(G)
        assert "multiply" not in vars(rep)
        assert [rep.multiply(x, y) for x, y in pairs] == want


# every kind, and a Z-group store whose sigma is recomputed (d = 3 > 1)
SCALAR_CASES = ALL_KINDS + [("C7:C3", "fm-zgroup", {"table_max": 1})]
SCALAR_IDS = [f"{name}-{kind}{'-' if params else ''}"
              f"{','.join(f'{k}={v}' for k, v in params.items())}"
              for name, kind, params in SCALAR_CASES]
# per case: the reads of one query, the probe bounds, and what
# ``gtool query ART 3 n --stats`` prints, as the closure binders gave them
PINNED = [
    ({"forward": 2, "backward": 1}, (3, 3),
     "2\nprobes: 3 backward=1 forward=2\n"),
    ({"word_index": 1, "mult_array": 3}, (4, 4),
     "22\nprobes: 4 mult_array=3 word_index=1\n"),
    ({"forward": 2, "action": 1, "backward": 1}, (4, 4),
     "5\nprobes: 4 action=1 backward=1 forward=2\n"),
    ({"forward": 2, "action": 1, "backward": 1}, (4, 4),
     "8\nprobes: 4 action=1 backward=1 forward=2\n"),
    ({}, (2, 8), "45\nprobes: 8 forward=2 table=6\n"),
    ({}, (3, 3), "2\nprobes: 3 backward=1 forward=2\n"),
    ({}, (0, 0), "65 label: 15\nprobes: 0\n"),
    ({"table": 1}, (1, 1), "23 label: 29\nprobes: 1 table=1\n"),
    ({"table": 1}, (1, 1), "11 label: 3,2,1\nprobes: 1 table=1\n"),
    ({"forward": 2, "backward": 2}, (4, 4),
     "8 label: 2,3,2\nprobes: 4 backward=2 forward=2\n"),
    ({}, (0, 0), "11 label: 3,2,1\nprobes: 0\n"),
]


def _frames(query, *args):
    """The names of the Python frames that ``query(*args)`` opens, and
    its answer."""
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        z = query(*args)
    finally:
        sys.setprofile(None)
    return frames, z


@pytest.mark.parametrize("case, pinned", zip(SCALAR_CASES, PINNED),
                         ids=SCALAR_IDS)
def test_scalar_multiply_is_one_frame_with_the_id_check(corpus, tmp_path,
                                                        capsys, case, pinned):
    name, kind, params = case
    G = corpus.table(name)
    pairs = [(x, y) for x in G.elements for y in G.elements]
    want = [G.mult(x, y) for x, y in pairs]
    fitted = corpus.rep(name, kind, **params)
    for rep in (copy.deepcopy(fitted), ser.from_bytes(ser.to_bytes(fitted))):
        query = rep.multiply
        # one in-range query on Python ints runs one frame, the rendered
        # query itself: no check, kernel, codec, labeler or scheme frame
        assert _frames(query, 2, G.n) == (["query"], G.mult(2, G.n))
        got = [query(x, y) for x, y in pairs]
        batch = rep.predict(np.array(pairs))
        assert got == want == batch.tolist()
        assert all(type(z) is int for z in got) and batch.dtype == np.int64
        assert query(np.int64(G.n), np.uint8(1)) == G.mult(G.n, 1)
        for bad in (True, False, 1.0, 2.5, np.int64(0), np.int64(G.n + 1),
                    0, G.n + 1, 2 ** 70, "1", None):
            for args in ((bad, 1), (1, bad)):
                with pytest.raises(ValidationError) as err:
                    query(*args)
                assert str(err.value) == _id_error(bad, G.n), (kind, bad)
        if kind.startswith("fm-"):
            # the label query and the checked label are one frame each
            lab = rep.labeler_
            l1, l2 = lab.label(2), lab.label(G.n)
            frames, z = _frames(rep.scheme_.multiply, l1, l2)
            assert frames == ["query"] and lab.element(z) == G.mult(2, G.n)
            assert _frames(lab.label, 2) == (["query"], l1)
        # the stated reads, the bounds and the counted CLI query stand
        reads, bounds, stats = pinned
        assert dict(rep._reads) == reads and rep.probe_bounds() == bounds
    art = tmp_path / "rep.gta"
    ser.save(fitted, art)
    capsys.readouterr()
    assert cli.main(["query", str(art), "3", str(G.n), "--stats"]) == 0
    assert capsys.readouterr().out == stats


def test_no_ledger_enters_a_rendered_query(corpus, monkeypatch):
    # every query path renders through one source builder, and none of
    # its sources counts: the reads are counted beside the query
    sources = []
    build = base._query_source

    def recorded(*args):
        sources.append(build(*args))
        return sources[-1]
    monkeypatch.setattr(base, "_query_source", recorded)
    base._COMPILED.clear()
    for name, kind, params in SCALAR_CASES:
        rep = copy.deepcopy(corpus.rep(name, kind, **params))
        rep.multiply(1, rep.n_)
        rep.predict(np.array([[1, rep.n_]]))
        if kind.startswith("fm-"):
            lab, sch = rep.labeler_, rep.scheme_
            label = lab.label(rep.n_)
            assert sch.multiply(label, label) == sch._kernel(label, label)
            assert lab.element(label) == rep.n_
            if kind == "fm-semidirect":
                sch.cycle.apply_power(1, 2)
    # a codec method's key is (sizes, name), a query's the four parts of
    # its source
    queries = [key for key in base._COMPILED if len(key) == 4]
    assert len(sources) == len(queries) >= 2 * len(SCALAR_CASES)
    assert [src for src in sources if "ledger" in src] == []


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_every_held_array_is_bound_through_the_view(corpus, name, kind,
                                                    params, monkeypatch):
    # each binder passes its view to the binders of its parts, so a query
    # bound on views reads no ndarray, and answers in Python ints
    G = corpus.table(name)
    fitted = corpus.rep(name, kind, **params)
    wrapped = []

    def view(a):
        assert type(a) is np.ndarray
        wrapped.append(id(a))
        return _view(a)
    monkeypatch.setitem(_VIEWS, "scalar", view)
    for rep in (copy.deepcopy(fitted), ser.from_bytes(ser.to_bytes(fitted))):
        wrapped.clear()
        got = [rep.multiply(x, y) for x in G.elements for y in G.elements]
        assert set(wrapped) == {id(a) for _, a in _held_arrays(rep, kind)}
        assert all(type(z) is int for z in got)
        assert got == [G.mult(x, y) for x in G.elements for y in G.elements]


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_probe_ledgers_count_in_python_ints(corpus, name, kind, params):
    # a numpy count would wrap the int totals it is added to
    G = corpus.table(name)
    fitted = corpus.rep(name, kind, **params)
    for rep in (copy.deepcopy(fitted), ser.from_bytes(ser.to_bytes(fitted))):
        for bound in (False, True):
            assert ("multiply" in vars(rep)) == bound
            for x, y in ((1, 1), (1, G.n), (G.n, 1 + G.n // 2)):
                _, ledger = gt.probe_counted_multiply(rep, x, y)
                assert all(type(v) is int for v in ledger.counts.values()), \
                    (kind, ledger.counts)
                assert type(ledger.total()) is int


def test_block_probes_are_one_word_index_read_and_m_arrays(corpus):
    G = corpus.table("C1024")
    reps = [gt.BlockRep(delta=d).fit(G) for d in ("1/10", "1/3", "1/2", "1")]
    reps.append(gt.BlockRep(l=1).fit(gt.make_cyclic(1)))      # m = 0
    assert reps[-1].m_ == 0
    for rep in reps:
        for x, y in ((1, 1), (1, rep.n_), (rep.n_, 1 + rep.n_ // 2)):
            z, ledger = gt.probe_counted_multiply(rep, x, y)
            assert z == rep.multiply(x, y)
            assert ledger["word_index"] == 1
            assert ledger["mult_array"] == rep.m_
            assert ledger.total() == 1 + rep.m_
