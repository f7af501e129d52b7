import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtool as gt
from gtool.base import GtoolError, ParseError, ValidationError

from conftest import LARGE_SIMPLE
from oracles import (even_permutations, find_identity, first_assoc_violation,
                     naive_order, order_multiset, parse_table_rows,
                     perm_table_loops, psl2_loops)


def test_load_c2():
    G = gt.load_cayley_table("2\n1 2\n2 1\n")
    assert G.n == 2 and G.identity == 1


def test_load_c3():
    G = gt.load_cayley_table("3\n1 2 3\n2 3 1\n3 1 2\n")
    assert G.n == 3 and G.identity == 1
    assert G.mult(2, 2) == 3


def test_load_trailing_newline_optional():
    a = gt.load_cayley_table("2\n1 2\n2 1")
    b = gt.load_cayley_table("2\n1 2\n2 1\n")
    assert np.array_equal(a.table, b.table)


def test_load_parse_errors():
    with pytest.raises(ParseError):
        gt.load_cayley_table("x\n1\n")
    with pytest.raises(ParseError):
        gt.load_cayley_table("2\n1 2\n")
    with pytest.raises(ParseError):
        gt.load_cayley_table("2\n1 2 3\n2 1\n")
    with pytest.raises(ParseError):
        gt.load_cayley_table("")
    with pytest.raises(ParseError):
        gt.load_cayley_table("2\n1 99999999999999999999\n2 1\n")   # beyond int64
    with pytest.raises(ParseError):
        gt.load_cayley_table("3\n1 2 3\n \t\n2 3 1\n")           # blank interior line
    with pytest.raises(ParseError):
        gt.load_cayley_table("2\n1 0_1\n2 1\n")                  # int() accepts, numpy not
    with pytest.raises(ParseError):
        gt.load_cayley_table(b"2\n1 \xb2\n2 1\n")                 # not ASCII


# separators and token spellings the reference parser and numpy agree on
_SEP = st.text(alphabet=" \t", min_size=1, max_size=3)
_PAD = st.text(alphabet=" \t", max_size=2)
_ODD_TOKENS = ("1.0", "x", "1e3", "-1", "+2", "0x1", "--1", "#1", "2,",
               "4294967298", "99999999999999999999", "-0")


@st.composite
def _table_texts(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # a relabelled cyclic group, so some drawn texts are valid tables
        perm = np.array(draw(st.permutations(range(1, n + 1))))
        rows = np.empty((n, n), dtype=np.int64)
        rows[np.ix_(perm - 1, perm - 1)] = perm[gt.make_cyclic(n).table - 1]
        rows = rows.tolist()
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n + 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    tokens = [["0" * draw(st.integers(0, 2)) + str(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = tokens[draw(st.integers(0, n - 1))]
        action = draw(st.sampled_from(["bad", "drop", "add"])) if row else "add"
        if action == "bad":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        elif action == "drop":
            row.pop()
        else:
            row.append(str(draw(st.integers(1, n))))
    lines = [draw(_PAD) + draw(_SEP).join(row) + draw(_PAD) for row in tokens]
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_PAD))
    header = draw(_PAD) + str(n + draw(st.sampled_from([0, 0, 0, -1, 1]))) + draw(_PAD)
    tail = draw(st.sampled_from(["", "\n", "\n\n", "\n \t\n"]))
    return "\n".join([header] + lines) + tail


@settings(max_examples=300, deadline=None)
@given(text=_table_texts())
def test_parser_matches_per_token_reference(text):
    try:
        want = gt.GroupTable(np.array(parse_table_rows(text), dtype=np.int64))
    except (ValueError, OverflowError):
        with pytest.raises(GtoolError):
            gt.load_cayley_table(text)
    else:
        got = gt.load_cayley_table(text)
        assert got.table.dtype == want.table.dtype
        assert np.array_equal(got.table, want.table)
        assert got.identity == want.identity


def test_load_rejects_nonassociative_perturbation():
    # swapping two rows of the C3 table destroys the group axioms; the
    # oracle locates a violating associativity triple, proving the input
    # is not a group, and the loader must reject it with a witness
    rows = [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
    arr = np.array(rows)
    assert find_identity(arr) is None or first_assoc_violation(arr) is not None
    with pytest.raises(ValidationError) as exc:
        gt.load_cayley_table("3\n1 2 3\n3 1 2\n2 3 1\n")
    assert exc.value.axiom is not None
    # 4294967298 = 2**32 + 2 would read as 2 after a cast to int32
    with pytest.raises(ValidationError) as exc:
        gt.load_cayley_table("2\n1 4294967298\n2 1\n")
    assert exc.value.axiom == "range"


def test_strict_catches_nonassociative_loop():
    # a commutative loop of order 6 (smallest with two-sided inverses that
    # is not a group), found by exhaustive search; symmetry makes left and
    # right inverses agree, so only the strict pass can reject it
    rows = [
        [1, 2, 3, 4, 5, 6],
        [2, 1, 4, 3, 6, 5],
        [3, 4, 5, 6, 1, 2],
        [4, 3, 6, 5, 2, 1],
        [5, 6, 1, 2, 4, 3],
        [6, 5, 2, 1, 3, 4],
    ]
    arr = np.array(rows)
    assert find_identity(arr) == 1
    witness = first_assoc_violation(arr)
    assert witness == (3, 3, 5)
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    loose = gt.load_cayley_table(text)            # passes non-strict checks
    assert loose.identity == 1
    # no divisor of 6 resolves elements 4 and 5 here; they take the walk
    assert loose.element_orders().tolist() == [1, 2, 3, 6, 6, 3] == \
        [loose.element_order(x) for x in loose.elements]
    with pytest.raises(ValidationError) as exc:
        gt.load_cayley_table(text, strict=True)
    assert exc.value.axiom == "associativity"
    assert exc.value.witness == witness


def test_latin_violation_witness():
    with pytest.raises(ValidationError) as exc:
        gt.GroupTable(np.array([[1, 1], [2, 2]]))
    assert exc.value.axiom == "latin-row"
    with pytest.raises(ValidationError) as exc:
        gt.GroupTable(np.array([[1, 4294967298], [2, 1]], dtype=np.int64))
    assert exc.value.axiom == "range"


def test_latin_column_witness_past_first_block():
    # swapping two entries of one row keeps the row a permutation and breaks
    # both columns; the witness is the first bad column's first repeat, as
    # a sort of the whole table along axis 0 finds it
    def reference(t):
        ids = np.arange(1, len(t) + 1)
        j = int(np.nonzero((np.sort(t, axis=0) != ids[:, None]).any(axis=0))[0][0])
        col = t[:, j].tolist()
        i2 = next(i for i, v in enumerate(col) if v in col[:i])
        return (col.index(col[i2]) + 1, i2 + 1, j + 1)

    rng = np.random.RandomState(5)
    for G in (gt.make_cyclic(100), gt.make_symmetric(5)):
        for a, b in ((63, 64), (64, 65), (70, G.n - 1), (G.n - 2, G.n - 1),
                     tuple(rng.choice(np.arange(65, G.n - 1), 2, replace=False))):
            t = G.table.copy()
            row = int(rng.randint(G.n))
            t[row, [a, b]] = t[row, [b, a]]
            t[(row + 7) % G.n, [a + 1, b]] = t[(row + 7) % G.n, [b, a + 1]]
            with pytest.raises(ValidationError) as exc:
                gt.GroupTable(t)
            assert exc.value.axiom == "latin-col"
            assert exc.value.witness == reference(t), (G.n, a, b)
            assert exc.value.witness[2] == min(a, b) + 1 >= 64
            # transposed, the same lines are the first bad rows
            i1, i2, j = reference(t)
            with pytest.raises(ValidationError) as exc:
                gt.GroupTable(t.T)
            assert exc.value.axiom == "latin-row"
            assert exc.value.witness == (j, i1, i2), (G.n, a, b)
            assert (f"row {j} is not a permutation of 1..{G.n}: columns "
                    f"{i1} and {i2} both hold {t[i1 - 1, j - 1]}"
                    in str(exc.value))


def test_make_cyclic():
    G1 = gt.make_cyclic(1)
    assert G1.n == 1 and G1.identity == 1
    G4 = gt.make_cyclic(4)
    assert naive_order(G4.table, G4.identity, 2) == 4
    G6 = gt.make_cyclic(6)
    assert order_multiset(G6.table, G6.identity) == [1, 2, 3, 3, 6, 6]
    with pytest.raises(ValidationError):
        gt.make_cyclic(0)
    # an order or degree is an integer, never truncated: make_cyclic(True)
    # built the trivial group, and make_symmetric(3.0) raised TypeError
    for make, bad in ((gt.make_cyclic, (True, 2.5, "6", np.float64(6))),
                      (gt.make_dihedral, (True, 2.5)),
                      (gt.make_symmetric, (3.0, True, "3")),
                      (gt.make_alternating, (True, 4.0)),
                      (gt.make_psl2, (7.0, True, "7"))):
        for v in bad:
            with pytest.raises(ValidationError, match="must be an integer"):
                make(v)
    assert gt.make_cyclic(np.int64(6)).n == 6
    # a factor order is an integer, never truncated
    for bad in (2.5, True, "2"):
        with pytest.raises(ValidationError, match="factor order"):
            gt.make_abelian([2, bad])
    assert gt.make_abelian([np.int64(2), 3]).n == 6


def test_make_direct_klein():
    V = gt.make_direct(gt.make_cyclic(2), gt.make_cyclic(2))
    assert order_multiset(V.table, V.identity) == [1, 2, 2, 2]


def test_make_direct_hamiltonian_order_24():
    G = gt.make_direct(gt.make_quaternion(), gt.make_cyclic(3))
    assert G.n == 24
    assert not G.is_abelian()


def test_direct_c2_c3_isomorphic_to_c6():
    G = gt.make_direct(gt.make_cyclic(2), gt.make_cyclic(3))
    C6 = gt.make_cyclic(6)
    assert order_multiset(G.table, G.identity) == \
        order_multiset(C6.table, C6.identity)


def test_direct_orders_are_componentwise_lcm():
    from math import lcm
    A, B = gt.make_cyclic(4), gt.make_dihedral(3)
    G = gt.make_direct(A, B)
    spec = gt.SemidirectSpec(A, B, np.tile(A.elements, (B.n, 1)))
    H = gt.make_semidirect(spec)
    want = sorted(lcm(naive_order(A.table, A.identity, a),
                      naive_order(B.table, B.identity, b))
                  for a in range(1, A.n + 1) for b in range(1, B.n + 1))
    assert order_multiset(G.table, G.identity) == want
    assert order_multiset(H.table, H.identity) == want


def test_make_semidirect_s3():
    A, B = gt.make_cyclic(3), gt.make_cyclic(2)
    inversion = np.array([[1, 2, 3], [1, 3, 2]])
    G = gt.make_semidirect(gt.SemidirectSpec(A, B, inversion))
    assert G.n == 6 and not G.is_abelian()
    assert order_multiset(G.table, G.identity) == [1, 2, 2, 2, 3, 3]


def test_make_semidirect_trivial_action_equals_direct():
    A, B = gt.make_cyclic(4), gt.make_cyclic(3)
    spec = gt.SemidirectSpec(A, B, np.tile(A.elements, (B.n, 1)))
    assert np.array_equal(gt.make_semidirect(spec).table,
                          gt.make_direct(A, B).table)


def test_make_semidirect_order_21():
    A, B = gt.make_cyclic(7), gt.make_cyclic(3)
    # x -> 2x is a valid order-3 automorphism of C7 since 2^3 = 8 = 1 mod 7
    act = np.array([[(i * pow(2, j, 7)) % 7 + 1 for i in range(7)]
                    for j in range(3)])
    G = gt.make_semidirect(gt.SemidirectSpec(A, B, act))
    assert G.n == 21 and not G.is_abelian()
    G.check_associativity()


def test_make_semidirect_rejects_bad_action():
    A, B = gt.make_cyclic(4), gt.make_cyclic(2)
    bad = np.array([[1, 2, 3, 4], [1, 3, 2, 4]])   # swaps g and g^2: not an automorphism
    with pytest.raises(ValidationError) as exc:
        gt.make_semidirect(gt.SemidirectSpec(A, B, bad))
    assert exc.value.axiom == "action-automorphism"
    assert exc.value.witness is not None


def test_make_quaternion_canonical():
    Q = gt.make_quaternion()
    assert Q.mult(2, 2) == 3                 # a*a = a^2
    # derived from the defining relations: b has order 4 and b^2 = a^2
    assert naive_order(Q.table, Q.identity, 5) == 4
    assert Q.mult(5, 5) == 3
    # exactly one element of order 2
    orders = order_multiset(Q.table, Q.identity)
    assert orders.count(2) == 1
    # relations a^4 = e and (ab)^2 = b^2 hold
    assert Q.power(2, 4) == 1
    assert Q.power(2, np.int64(-1)) == Q.power(2, 3) == 4
    # an exponent is an integer: never truncated, nor True taken for 1
    for bad in (2.5, "3", True, np.float64(2.0), None):
        with pytest.raises(ValidationError, match="exponent must be an int"):
            Q.power(2, bad)
    assert Q.mult(6, 6) == Q.mult(5, 5)
    Q.check_associativity()


def test_mult_and_order_basics():
    G = gt.make_cyclic(6)
    rep = gt.CyclicRep().fit(G)
    assert G.mult(1, 4) == 4
    assert G.element_order(2) == 6
    assert not gt.make_quaternion().is_abelian()
    with pytest.raises(ValidationError):
        G.mult(0, 3)
    with pytest.raises(ValidationError):
        G.mult(1, 7)
    # ids must be integers in range; floats and bools are never truncated
    for bad in (0, 7, 2.9, True, np.float64(2.0), np.bool_(True), "2"):
        for query in (G.mult, rep.multiply):
            with pytest.raises(ValidationError):
                query(bad, 3)
            with pytest.raises(ValidationError):
                query(1, bad)
    for bad in ([(0, 3)], [(1, 7)], [(2.9, 3)], np.array([[2.0, 3.0]]),
                np.array([[True, False]])):
        with pytest.raises(ValidationError):
            rep.predict(bad)
    # numpy integer scalars and arrays of any integer width are accepted
    assert G.mult(np.int64(1), np.int32(4)) == rep.multiply(np.uint8(1), 4) == 4
    assert rep.predict(np.array([[1, 4]], dtype=np.int32)).tolist() == [4]


def test_is_abelian_compares_the_table_once(monkeypatch):
    # a fit on a noncyclic abelian group asks twice, for the semidirect
    # split and then for the basis: an n^2 comparison each at C64xC64
    A, Q = gt.make_abelian([8, 8]), gt.make_quaternion()
    tables = []
    real = np.array_equal

    def counted(a, b, *args, **kwargs):
        tables.append(a)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", counted)
    gt.SemidirectFM().fit(A)
    assert A.is_abelian() and not Q.is_abelian() and not Q.is_abelian()
    assert sum(t is A.table for t in tables) == 1
    assert sum(t is Q.table for t in tables) == 1


@settings(max_examples=40)
@given(n=st.integers(2, 40), j=st.integers(0, 39))
def test_cyclic_element_orders_match_gcd_formula(n, j):
    from math import gcd
    G = gt.make_cyclic(n)
    x = (j % n) + 1         # element g^(x-1)
    assert G.element_orders()[x - 1] == G.element_order(x) == n // gcd(n, x - 1)


def test_dihedral_structure():
    D4 = gt.make_dihedral(4)
    assert D4.n == 8
    assert order_multiset(D4.table, D4.identity) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert gt.make_dihedral(1).n == 2
    assert gt.make_dihedral(2).is_abelian()


def test_symmetric_and_alternating():
    S4 = gt.make_symmetric(4)
    assert S4.n == 24
    assert order_multiset(S4.table, S4.identity).count(4) == 6
    A4 = gt.make_alternating(4)
    assert A4.n == 12
    assert order_multiset(A4.table, A4.identity) == [1] + [2] * 3 + [3] * 8


@pytest.mark.parametrize("k", range(1, 7))
def test_permutation_tables_match_loops(k):
    assert np.array_equal(gt.make_symmetric(k).table,
                          perm_table_loops(list(permutations(range(k)))))
    assert np.array_equal(gt.make_alternating(k).table,
                          perm_table_loops(even_permutations(k)))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_psl2_tables_match_loops(p):
    assert np.array_equal(gt.make_psl2(p).table, psl2_loops(p))


def test_psl27_matches_data_file():
    from importlib import resources
    G = gt.make_psl2(7)
    assert G.n == 168
    shipped = resources.files("gtool").joinpath("data", "psl2_7.table").read_text()
    assert G.dumps() == shipped


def test_dumps_loads_roundtrip():
    G = gt.make_dihedral(6)
    H = gt.load_cayley_table(G.dumps())
    assert np.array_equal(G.table, H.table)


def test_identity_not_first_in_loaded_table():
    # relabel C3 so the identity sits at position 2; loading must accept it
    perm = {1: 2, 2: 1, 3: 3}
    C3 = gt.make_cyclic(3)
    arr = np.zeros((3, 3), dtype=int)
    for x in range(1, 4):
        for y in range(1, 4):
            arr[perm[x] - 1, perm[y] - 1] = perm[C3.mult(x, y)]
    G = gt.GroupTable(arr)
    assert G.identity == 2


def test_unvalidated_identity_and_inverse_match_validated(corpus):
    names = [e.name for e in corpus.entries] + list(LARGE_SIMPLE)
    for name in names:
        G = corpus.table(name)
        H = gt.GroupTable(G.table, validate=False)
        assert H.identity == G.identity, name
        assert np.array_equal(H.inverse, G.inverse), name
    # relabel S4 so that the identity is not 1
    G = corpus.table("S4")
    sigma = np.random.RandomState(3).permutation(G.n) + 1
    assert sigma[0] != 1
    t = np.empty_like(G.table)
    t[np.ix_(sigma - 1, sigma - 1)] = sigma[G.table - 1]
    for validate in (True, False):
        H = gt.GroupTable(t, validate=validate)
        assert H.identity == sigma[G.identity - 1]
        assert np.array_equal(H.inverse[sigma - 1], sigma[G.inverse - 1])


def test_table_does_not_alias_the_callers_array():
    B = gt.make_cyclic(3).table.copy()
    for arr in (B, B[:, :]):
        G = gt.GroupTable(arr)
        B[0, 0] = 3                        # the caller's array stays writable
        assert G.mult(1, 1) == 1 and not G.table.flags.writeable
        B[0, 0] = 1


def test_validation_peak_stays_near_the_table():
    t = gt.make_cyclic(1024).table.astype(np.int64)
    tracemalloc.start()
    try:
        G = gt.GroupTable(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * G.table.nbytes


def test_permutation_table_peak_stays_near_the_table():
    # the table and GroupTable's copy of it, plus 64-row temporaries; all
    # n^2 products at once peak at 3.4 tables
    tracemalloc.start()
    try:
        G = gt.make_symmetric(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * G.table.nbytes
