import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import gtool as gt
from gtool import groups
from gtool.base import (CapacityError, GtoolError, ParseError,
                        PreconditionError, ValidationError, id_dtype)
from gtool.fm import AbelianFM
from gtool.groups import MAX_ORDER

from conftest import _CACHE, LARGE_SIMPLE, small_entries
from oracles import (LOOPS, even_permutations, find_identity,
                     first_assoc_violation, naive_order, order_multiset,
                     parse_table_rows, perm_table_loops, psl2_loops,
                     validate_reference)


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
# tokens that keep the canonical layout's shape but must not read as ids
# there: an empty token, uint16 and uint32 wraps, and int64's edge
_CANONICAL_ODD = ("", "65537", "4294967297", str((1 << 63) - 1),
                  str(1 << 63), str((1 << 64) + 1))


@st.composite
def _table_texts(draw):
    """Table texts, half of them in the canonical layout that ``dumps``
    writes: digit tokens, one space between them, one newline after each
    row, the last one optional."""
    n = draw(st.integers(1, 5))
    canonical = draw(st.booleans())
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
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
                _CANONICAL_ODD if canonical else _ODD_TOKENS))
        elif action == "drop":
            row.pop()
        else:
            row.append(str(draw(st.integers(1, n))))
    if canonical:
        header = "0" * draw(st.integers(0, 1)) + str(n + draw(st.sampled_from([0, 0, 0, 1])))
        return "\n".join([header] + [" ".join(row) for row in tokens]) + \
            draw(st.sampled_from(["", "\n"]))
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


def _outcome(load, text):
    """The table a load gives, or its error's type, message, axiom and
    witness."""
    try:
        G = load(text)
    except GtoolError as exc:
        return (type(exc), str(exc), getattr(exc, "axiom", None),
                getattr(exc, "witness", None))
    return (G.table.dtype, G.table.tolist(), G.identity)


def _general_load(text):
    return gt.GroupTable(groups._general_table(text))


@settings(max_examples=400, deadline=None)
@given(text=_table_texts())
@example(text="2\n1 \n2 1\n")            # an empty token: numpy would read
@example(text="2\n1 2\n2 \n")            # uninitialised memory for it
@example(text="2\n1 2\n2 1")
@example(text="2\n001 02\n2 1\n")
@example(text="2\n1 99999999999999999999\n2 1\n")      # saturates int64
@example(text="2\n1 9223372036854775807\n2 1\n")
@example(text="2\n1 9223372036854775808\n2 1\n")
@example(text="2\n1 18446744073709551617\n2 1\n")
@example(text="2\n1 65537\n2 1\n")                     # wraps at uint16
@example(text="2\n1 4294967297\n2 1\n")                # wraps at int32
@example(text="2\n1 2\n2 1\n1")                        # a row past n
@example(text="1\n")
def test_both_parse_paths_agree(text):
    # the canonical fast path gives the general parser's table, or its
    # exact error, on str and on bytes
    fast = groups._canonical_table(text)
    event("canonical path" if fast is not None else "general path")
    if fast is not None:
        assert np.array_equal(fast, groups._general_table(text))
    want = _outcome(_general_load, text)
    assert _outcome(gt.load_cayley_table, text) == want
    assert _outcome(gt.load_cayley_table, text.encode("ascii")) == want


def test_canonical_tables_never_call_loadtxt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    for G in (gt.make_dihedral(6), gt.make_cyclic(300)):
        text = G.dumps()
        for spelling in (text, text.encode(), text.rstrip("\n")):
            assert np.array_equal(gt.load_cayley_table(spelling).table, G.table)


def test_other_spellings_take_the_general_parser(monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    G = gt.make_dihedral(6)
    text = G.dumps()
    monkeypatch.setattr(np, "loadtxt", counted)
    for other in (text.replace(" ", "\t"), text.replace("\n", "\r\n"),
                  text.replace("\n", "\x0c")):
        calls.clear()
        assert np.array_equal(gt.load_cayley_table(other).table, G.table)
        assert np.array_equal(gt.load_cayley_table(other.encode()).table, G.table)
        assert len(calls) == 2, repr(other[:12])


@pytest.mark.parametrize("text", [b"60000\n1\n", b"60000\n" + b"1 " * 10],
                         ids=["one-row", "one-line"])
def test_huge_header_allocates_nothing(text):
    # the body's length is checked before anything of n*n size is built
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            gt.load_cayley_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "expected 60000 rows after the header, got 1"
    assert peak < 1 << 16


def test_load_peak_stays_near_the_table():
    # the int64 parse, and the table at its id width (uint16 here)
    text = gt.make_cyclic(1024).dumps().encode()
    tracemalloc.start()
    try:
        G = gt.load_cayley_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.table.dtype == np.uint16
    assert peak <= 6 * G.n * G.n * G.table.itemsize


def test_table_is_held_at_the_id_width():
    Q8 = gt.make_quaternion()
    groups_made = [
        gt.make_cyclic(1), gt.make_cyclic(255), gt.make_cyclic(256),
        gt.make_dihedral(127), gt.make_dihedral(128), gt.make_abelian([2, 2, 64]),
        gt.make_direct(Q8, gt.make_cyclic(31)), gt.make_direct(Q8, gt.make_cyclic(32)),
        gt.make_semidirect(groups.SemidirectSpec(
            gt.make_cyclic(3), gt.make_cyclic(2), [[1, 2, 3], [1, 3, 2]])),
        Q8, gt.make_symmetric(5), gt.make_symmetric(6), gt.make_alternating(6),
        gt.make_psl2(5), gt.make_psl2(11),
        gt.GroupTable(gt.make_cyclic(256).table.astype(np.int64)),
        gt.GroupTable(gt.make_cyclic(255).table.astype(np.uint64))]
    for G in groups_made:
        assert G.table.dtype == id_dtype(G.n), G
    for n in (255, 256):
        text = gt.make_cyclic(n).dumps()
        for spelling in (text, text.replace("\n", "\r\n")):   # both paths
            assert gt.load_cayley_table(spelling).table.dtype == id_dtype(n)


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


def test_default_load_rejects_nonassociative_loop():
    # a commutative loop of order 6 (smallest with two-sided inverses that
    # is not a group), found by exhaustive search; symmetry makes left and
    # right inverses agree, so only the associativity check can reject it
    rows = LOOPS[6]
    arr = np.array(rows)
    assert find_identity(arr) == 1
    witness = first_assoc_violation(arr)
    assert witness == (3, 3, 5)
    text = "6\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
    loose = gt.GroupTable(arr, validate=False)
    assert loose.identity == 1
    # no divisor of 6 resolves elements 4 and 5 here; they take the walk
    assert loose.element_orders().tolist() == [1, 2, 3, 6, 6, 3] == \
        [loose.element_order(x) for x in loose.elements]
    with pytest.raises(ValidationError) as exc:
        gt.load_cayley_table(text)
    assert exc.value.axiom == "associativity"
    assert exc.value.witness == witness


@pytest.mark.parametrize("call, error, match", [
    (lambda: gt.GroupTable([[1, 2], [2]]), ValidationError, "differ in length"),
    (lambda: gt.load_cayley_table(None), ParseError, "NoneType"),
    (lambda: gt.load_cayley_table(3), ParseError, "int"),
    (lambda: gt.make_abelian(5), ValidationError, "iterable"),
    (lambda: gt.make_dihedral("3"), ValidationError, "must be an integer"),
], ids=["ragged", "none-text", "int-text", "abelian-int", "dihedral-str"])
def test_hostile_inputs_raise_gtool_errors(call, error, match):
    # none escapes as a bare numpy or Python error
    with pytest.raises(error, match=match):
        call()


C3 = gt.make_cyclic(3)


@pytest.mark.parametrize("call, match", [
    (lambda: gt.BlockRep(l=1, max_slots=None).fit(C3),
     "max_slots must be an integer"),
    (lambda: gt.BlockRep(l=1, max_slots=10**9 + 0.5).fit(C3),
     "max_slots must be an integer"),
    (lambda: gt.CompositeRep(mode=np.array(["auto", "zgroup"])).fit(
        gt.make_symmetric(3)), "unknown mode"),
    (lambda: gt.choose_block_length(None, 3, "1/2"),
     "group order must be an integer"),
    (lambda: gt.fm.CycleStructure(0), "not a permutation"),
    (lambda: gt.fm.AbelianScheme(None), "sizes must be iterable"),
    (lambda: gt.make_abelian(np.array(3)), "factor orders must be iterable"),
    (lambda: gt.make_direct(C3, None), "must be square"),
    (lambda: gt.groups.SemidirectSpec(None, C3, [[1, 2, 3]] * 3),
     "must be square"),
    (lambda: gt.groups.SemidirectSpec(C3, C3, [[2**70, 2, 3]] * 3).validate(),
     "action must be an array of integers"),
], ids=["max-slots-none", "max-slots-float", "composite-mode-array",
        "block-length-none", "cycle-int", "abelian-scheme-none",
        "abelian-0d-array", "direct-none", "semidirect-spec-none",
        "semidirect-action-2**70"])
def test_parameter_escapes_are_validation_errors(call, match):
    # each raised a bare TypeError, ValueError, AttributeError or
    # OverflowError, or (a float max_slots) was accepted
    with pytest.raises(ValidationError, match=match):
        call()


_CHANGES = ("none", "row-entries", "rows", "columns", "intercalate",
            "overwrite")


@st.composite
def _near_groups(draw):
    """A relabelled corpus group of order <= 24 or loop, with one change:
    two entries of a row, two rows or two columns swapped, an intercalate
    (a 2 x 2 subsquare a b / b a, whose swap keeps the table Latin)
    swapped, or one entry overwritten with a value in [0, n + 1]."""
    name = draw(st.sampled_from([e.name for e in small_entries(24)]
                                 + list(LOOPS)))
    t = np.array(LOOPS[name]) if name in LOOPS else _CACHE.table(name).table
    n = len(t)
    perm = np.array(draw(st.permutations(range(1, n + 1))))
    r = np.empty((n, n), dtype=np.int64)
    r[np.ix_(perm - 1, perm - 1)] = perm[t - 1]
    i, j, a, b = (draw(st.integers(0, n - 1)) for _ in range(4))
    change = draw(st.sampled_from(_CHANGES))
    if change == "row-entries":
        r[i, [a, b]] = r[i, [b, a]]
    elif change == "rows":
        r[[i, j]] = r[[j, i]]
    elif change == "columns":
        r[:, [a, b]] = r[:, [b, a]]
    elif change == "intercalate":
        # r[i, k] = r[j, l] and r[i, l] = r[j, k]; at k, i's right inverse,
        # the swap breaks inverses
        k = int(np.argmax(r[i] == perm[0])) if draw(st.booleans()) else a
        l = int(np.argmax(r[i] == r[j, k]))
        if k != l and r[j, l] == r[i, k]:
            r[[i, j], k], r[[i, j], l] = r[[i, j], l], r[[i, j], k]
    elif change == "overwrite":
        r[i, a] = draw(st.integers(0, n + 1))
    return r


@settings(max_examples=1000, deadline=None)
@example(np.array(LOOPS[5]))
@example(np.array(LOOPS[6]))
@example(np.array(LOOPS[8]))
@given(_near_groups())
def test_validation_matches_the_reference(t):
    # a table loads exactly when the reference finds no fault, else the
    # first fault is named the same: axiom, witness and message
    want = validate_reference(t)
    event(want[0] if want else "loaded")
    try:
        gt.GroupTable(t)
    except ValidationError as exc:
        assert (exc.axiom, exc.witness, str(exc)) == want
    else:
        assert want is None


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


def test_constructors_refuse_orders_past_capacity_before_allocating():
    # one stated capacity: past it, CapacityError comes before the n x n
    # int64 temporaries (and, for PSL(2, p), before the p**4 enumeration
    # and the trial division), so nothing near a table is allocated
    cap = MAX_ORDER
    assert cap == 8192
    calls = [(gt.make_cyclic, cap + 1, cap + 1),
             (gt.make_cyclic, 100_000, 100_000),
             (gt.make_dihedral, cap // 2 + 1, cap + 2),
             (gt.make_dihedral, 10 ** 15, 2 * 10 ** 15),
             (gt.make_abelian, [cap, 2], 2 * cap),
             (gt.make_abelian, [1000, 3, 1000], 3 * 10 ** 6),
             (gt.make_psl2, 29, 12180),
             (gt.make_psl2, 10 ** 18 + 9, (10 ** 18 + 9) * ((10 ** 18 + 9) ** 2
                                                        - 1) // 2)]
    tracemalloc.start()
    try:
        for make, arg, order in calls:
            with pytest.raises(CapacityError) as err:
                make(arg)
            assert str(err.value) == (f"order {order} is past the "
                                      f"constructors' capacity of {cap}")
        # a factor below 1 is refused before the factors before it are
        # built: [2048, 0] built C2048's 64 MB of temporaries first
        for orders in ([2048, 0], [2048, -3, 5]):
            with pytest.raises(ValidationError, match="cyclic order"):
                gt.make_abelian(orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # CapacityError is a PreconditionError, which the CLI reports
    assert issubclass(CapacityError, PreconditionError)


def test_fits_of_a_loaded_table_past_capacity_are_not_capped(monkeypatch):
    # the capacity bounds the constructors from parameters alone: a fit
    # that meets a cyclic factor of a given table, here A = G = C12 with
    # the capacity at 8, builds it past the capacity as before
    import gtool.groups as groups
    from gtool.structure import (find_semidirect_decomposition,
                                 find_zgroup_decomposition)
    G = gt.make_cyclic(12)
    monkeypatch.setattr(groups, "MAX_ORDER", 8)
    with pytest.raises(CapacityError):
        gt.make_cyclic(12)
    for find in (find_zgroup_decomposition, find_semidirect_decomposition):
        assert find(G).spec.A.n * find(G).b_order == 12
    pairs = np.array([(x, y) for x in G.elements for y in G.elements])
    for rep in (gt.CompositeRep(mode="zgroup"), gt.ZGroupFM(),
                gt.ZGroupFM(table_max=1), gt.SemidirectFM()):
        assert np.array_equal(rep.fit(G).predict(pairs),
                              G.table[pairs[:, 0] - 1, pairs[:, 1] - 1])


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


# Bounds in n*n*4 bytes keep the absolute sizes they had when the table
# held int32 ids; bounds in n*n*itemsize bytes are at the id width.

def test_validation_peak_stays_near_the_table():
    t = gt.make_cyclic(1024).table.astype(np.int64)
    tracemalloc.start()
    try:
        G = gt.GroupTable(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * G.n * G.n * 4


def test_permutation_table_peak_stays_near_the_table():
    # the table and GroupTable's copy of it, plus 64-row temporaries; all
    # n^2 products at once peak at 3.4 int32 tables
    tracemalloc.start()
    try:
        G = gt.make_symmetric(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * G.n * G.n * 4


def test_alternating_table_peak_stays_near_the_table():
    tracemalloc.start()
    try:
        G = gt.make_alternating(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.table.dtype == np.uint16
    assert peak <= 6 * G.n * G.n * G.table.itemsize


def test_abelian_fm_fit_peak_stays_below_the_table():
    G = gt.make_cyclic(1024)
    tracemalloc.start()
    try:
        AbelianFM().fit(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * G.n * G.n * G.table.itemsize
