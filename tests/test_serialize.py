import warnings

import numpy as np
import pytest

import gtool as gt
from gtool import serialize as ser
from gtool.base import ParseError, ValidationError, id_dtype
from gtool.verify import verify_exhaustive

from conftest import build_rep

ALL_KINDS = [
    ("C12", "cyclic", {}),
    ("S4", "block", {"l": 2}),
    ("S3", "zgroup", {}),
    ("A4", "composite", {}),
    ("A5", "simple", {}),
    ("C5", "simple", {}),              # delegate layout
    ("C2xC4xC9", "fm-abelian", {}),
    ("Q8xC3", "fm-hamiltonian", {}),
    ("C7:C3", "fm-zgroup", {}),
    ("A4", "fm-semidirect", {}),
]


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_roundtrip_re_verifies(corpus, name, kind, params):
    G = corpus.table(name)
    rep = corpus.rep(name, kind, **params)
    data = ser.to_bytes(rep)
    back = ser.from_bytes(data)
    assert back.rep_kind == rep.rep_kind
    assert verify_exhaustive(back, G) is None
    assert ser.to_bytes(back) == data
    with pytest.raises(ParseError):
        ser.from_bytes(data + b"junk")


U32_PATCHES = (0, 1, 255, 65535, 1 << 31, (1 << 32) - 1)


def _mutants(data: bytes, rng, count: int):
    """Seeded bit flips, byte overwrites, truncations, and u32 overwrites
    within the first 40 bytes (the headers) with boundary values."""
    for _ in range(count):
        b = bytearray(data)
        op = rng.randint(4)
        if op == 0:
            b[rng.randint(len(b))] ^= 1 << rng.randint(8)
        elif op == 1:
            b[rng.randint(len(b))] = rng.randint(256)
        elif op == 2:
            del b[rng.randint(len(b)):]
        else:
            at = rng.randint(min(40, len(b) - 4) + 1)
            value = U32_PATCHES[rng.randint(len(U32_PATCHES))]
            b[at:at + 4] = value.to_bytes(4, "little")
        yield bytes(b)


def test_mutated_artifacts_are_rejected_or_reencode_exactly(corpus):
    # a corrupt artifact either fails to load with a library error, or
    # loads into a structure whose artifact is exactly the mutant
    rng = np.random.RandomState(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, kind, params in ALL_KINDS:
            data = ser.to_bytes(corpus.rep(name, kind, **params))
            G = corpus.table(name)
            for mutant in _mutants(data, rng, 1000):
                try:
                    rep = ser.from_bytes(mutant)
                except (ParseError, ValidationError):
                    continue
                assert ser.to_bytes(rep) == mutant, (name, kind)
                if kind in ("composite", "zgroup") or kind.startswith("fm-"):
                    # answers may be wrong, but reads stay inside the arrays
                    verify_exhaustive(rep, G)
                    for x in G.elements:
                        for y in G.elements:
                            rep.multiply(x, y)


def _u32(v: int) -> bytes:
    return v.to_bytes(4, "little")


CORRUPT_HEADERS = {
    # case: (name, kind, params, [(offset, new bytes), ...])
    "cyclic B holds id n+1": ("C12", "cyclic", {}, [(24, bytes([13]))]),
    "delegate B holds id n+1": ("C5", "simple", {}, [(22, bytes([6]))]),
    "composite d=0": ("A4", "composite", {}, [(8, _u32(0))]),
    "composite n != |A|*d": ("A4", "composite", {}, [(4, _u32(13))]),
    "block l > k, m=0": ("S4", "block", {"l": 2},
                         [(13, _u32(1 << 31)), (17, _u32(0))]),
    "block m != ceil(k/l)": ("S4", "block", {"l": 2}, [(17, _u32(4))]),
    "block 66-bit words": ("S4", "block", {"l": 2},
                           [(9, _u32(65)), (17, _u32(33))]),
    "block 17-bit words": ("S4", "block", {"l": 2},
                           [(9, _u32(17)), (13, _u32(17)), (17, _u32(1)),
                            (21, bytes([1] * 17))]),
    "zgroup m=0": ("C7:C3", "fm-zgroup", {}, [(4, _u32(0))]),
    "delegate flag 2": ("C5", "simple", {}, [(8, bytes([2]))]),
    "sigma-table flag 2": ("C7:C3", "fm-zgroup", {}, [(20, bytes([2]))]),
    "sigma-table flag 0, d <= table_max": ("C7:C3", "fm-zgroup", {},
                                           [(20, bytes([0]))]),
    # the 260-byte store 'FMA1', t = 63, then 63 copies of the prime 2**32 - 5
    "abelian 2016-bit words": ("C2xC4xC9", "fm-abelian", {},
                               [(4, _u32(63)), (8, _u32(4294967291) * 63)]),
    # A4 as A x| C3: sizes (2, 2, 3) at 20, forward words at 32 with the
    # exponent of b in bits 2-3, backward ids at 44
    "composite d is not the last size": ("A4", "composite", {},
                                         [(28, _u32(4))]),
    "composite |A| is not the A sizes": ("A4", "composite", {},
                                         [(20, _u32(4))]),
    "composite forward field past its size": ("A4", "composite", {},
                                              [(32, bytes([0x0C]))]),
    "composite forward word past its fields": ("A4", "composite", {},
                                               [(32, bytes([0x10]))]),
    "composite backward permuted": ("A4", "composite", {},
                                    [(44, bytes([2, 1]))]),
    # A4 as C2xC2 x| C3: labels_of_a at 72 with fields at bits 0 and 1,
    # the factor orders (2, 2) at 124
    "semidirect labels_of_a word past its fields": ("A4", "fm-semidirect", {},
                                                    [(72, bytes([4]))]),
    "semidirect orders do not multiply to the points": (
        "A4", "fm-semidirect", {}, [(128, _u32(4))]),
}


@pytest.mark.parametrize("name, kind, params, patches",
                         CORRUPT_HEADERS.values(), ids=CORRUPT_HEADERS)
def test_corrupt_headers_rejected(corpus, name, kind, params, patches):
    data = bytearray(ser.to_bytes(corpus.rep(name, kind, **params)))
    for at, raw in patches:
        data[at:at + len(raw)] = raw
    with pytest.raises((ParseError, ValidationError)):
        ser.from_bytes(bytes(data))
    if kind.startswith("fm-"):          # every case here is in the store
        with pytest.raises((ParseError, ValidationError)):
            ser.fm_store_from_bytes(bytes(data))


CORRUPT_LABELINGS = {
    # case: (name, kind, [(offset, new bytes), ...]), past the store
    # C2xC4xC9: factor orders (4, 2, 9) at 8, packed words at 28 with
    # fields at bits 0-1, 2 and 3-6
    "abelian orders do not multiply to n": ("C2xC4xC9", "fm-abelian",
                                            [(16, _u32(27))]),
    "abelian packed field past its order": ("C2xC4xC9", "fm-abelian",
                                            [(28, bytes([10 << 3]))]),
    "abelian packed word past its fields": ("C2xC4xC9", "fm-abelian",
                                            [(28, bytes([1 << 7]))]),
    # Q8xC3: C order (3,); c_of from element 1 at 108, nc = 3 at 204 and
    # c_labels at 208, with the C field at bits 0-1
    "hamiltonian c_of past the C ids": ("Q8xC3", "fm-hamiltonian",
                                        [(108, _u32(4))]),
    "hamiltonian c_labels field past its order": ("Q8xC3", "fm-hamiltonian",
                                                  [(208, bytes([3]))]),
    "hamiltonian c_labels word past its fields": ("Q8xC3", "fm-hamiltonian",
                                                  [(208, bytes([4]))]),
}


@pytest.mark.parametrize("name, kind, patches", CORRUPT_LABELINGS.values(),
                         ids=CORRUPT_LABELINGS)
def test_corrupt_labelings_rejected(corpus, name, kind, patches):
    # labels that would send a query outside the arrays it reads
    data = bytearray(ser.to_bytes(corpus.rep(name, kind)))
    for at, raw in patches:
        data[at:at + len(raw)] = raw
    with pytest.raises(ValidationError):
        ser.from_bytes(bytes(data))
    ser.fm_store_from_bytes(bytes(data))        # the store alone loads


def test_block_widths_follow_order(corpus):
    # id width is ceil(bits(n)/8): one byte through n = 255, two at 256
    small = ser.to_bytes(corpus.rep("S4", "block", l=1))
    big = ser.to_bytes(corpus.rep("C256", "block", l=1))
    assert small[:5] == b"BREP1" and big[:5] == b"BREP1"
    rep = ser.from_bytes(big)
    assert rep.n_ == 256


NARROWED = {     # kind: its arrays of ids, as (part, attribute)
    "block": (("", "mult_arrays_"),),
    "cyclic": (("", "B_"),),
    "composite": (("", "backward_"),),
    "zgroup": (("", "backward_"),),
    "simple": (("", "M_"), ("", "path_len_"), ("cyclic_", "B_")),
    "fm-abelian": (("labeler_", "element_of_flat"),),
    "fm-hamiltonian": (("labeler_", "by_flat"),),
    "fm-zgroup": (("labeler_", "pairing"),),
    "fm-semidirect": (("labeler_", "pairing"),),
}


def _assert_narrowed(rep, G, kind):
    # each array of ids is held native, aligned, contiguous and read-only
    # at the id width (path lengths at the diameter's); queries answer
    # Python ints and int64 arrays
    held = 0
    for part, attr in NARROWED[kind]:
        owner = getattr(rep, part) if part else rep
        arr = getattr(owner, attr, None) if owner is not None else None
        if arr is None:
            continue
        want = id_dtype(rep.diameter_ if attr == "path_len_" else rep.n_)
        assert arr.dtype == want, (kind, attr, arr.dtype)
        assert arr.dtype.isnative and arr.flags.aligned, (kind, attr)
        assert arr.flags.c_contiguous and not arr.flags.writeable, (kind, attr)
        held += 1
    assert held, kind
    pairs = np.random.RandomState(5).randint(1, G.n + 1, size=(64, 2))
    got = rep.predict(pairs)
    assert got.dtype == np.int64
    assert np.array_equal(got, G.table[pairs[:, 0] - 1, pairs[:, 1] - 1])
    for x, y in pairs[:8].tolist():
        z = rep.multiply(x, y)
        assert type(z) is int and z == G.mult(x, y), (kind, x, y)


_SPLITS = ("composite", "zgroup", "fm-zgroup", "fm-semidirect")  # A x| C
WIDTH_CASES = [     # either side of the 1-byte / 2-byte id boundary at 256
    ("C255", lambda: gt.make_cyclic(255),
     ("block", "cyclic", "fm-abelian") + _SPLITS),
    ("C256", lambda: gt.make_cyclic(256),
     ("block", "cyclic", "fm-abelian") + _SPLITS),
    ("D127", lambda: gt.make_dihedral(127), _SPLITS),         # n = 254
    ("D129", lambda: gt.make_dihedral(129), _SPLITS),         # n = 258
    ("Q8xC31", lambda: gt.make_direct(gt.make_quaternion(),  # n = 248
                                      gt.make_cyclic(31)), ("fm-hamiltonian",)),
    ("Q8xC2^5", lambda: gt.make_direct(gt.make_quaternion(),  # n = 256
                                       gt.make_abelian([2] * 5)),
     ("fm-hamiltonian",)),
    ("C251", lambda: gt.make_cyclic(251), ("simple",)),      # delegates
    ("C257", lambda: gt.make_cyclic(257), ("simple",)),
    ("A5", lambda: gt.make_alternating(5), ("simple",)),     # n = 60
    ("A6", lambda: gt.make_alternating(6), ("simple",)),     # n = 360
]


@pytest.mark.parametrize("name, make, kinds", WIDTH_CASES,
                         ids=[case[0] for case in WIDTH_CASES])
def test_id_arrays_held_at_id_width(name, make, kinds):
    G = make()
    for kind in kinds:
        fitted = build_rep(G, kind, **({"l": 1} if kind == "block" else {}))
        loaded = ser.from_bytes(ser.to_bytes(fitted))
        for rep in (fitted, loaded):
            _assert_narrowed(rep, G, kind)


@pytest.mark.parametrize("kind, params", [
    ("block", {"delta": "1/2"}), ("cyclic", {}), ("composite", {}),
    ("zgroup", {}), ("fm-abelian", {}), ("fm-zgroup", {}),
    ("fm-semidirect", {})])
def test_every_kind_exact_at_the_top_of_the_byte_id_width(kind, params):
    # C255 is the largest group whose ids fit one byte, and 255 * 255 =
    # 254 squares its largest id; it stays out of the corpus, so that the
    # pinned digests stay as they are
    G = gt.make_cyclic(255)
    fitted = build_rep(G, kind, **params)
    data = ser.to_bytes(fitted)
    loaded = ser.from_bytes(data)
    for rep in (fitted, loaded):
        assert verify_exhaustive(rep, G) is None, kind
        assert rep.multiply(255, 255) == 254, kind
    assert ser.to_bytes(loaded) == data, kind


def test_id_dtype_follows_artifact_id_width():
    # the numpy word of ceil(bits(n)/8)-byte ids: 3-byte ids take 4 bytes
    for n, want in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                    (65535, np.uint16), (65536, np.uint32),
                    ((1 << 24) - 1, np.uint32), ((1 << 32) - 1, np.uint32)):
        width = ser._bytes_for(n.bit_length())
        assert id_dtype(n) == want, n
        assert id_dtype(n).itemsize == {1: 1, 2: 2, 3: 4, 4: 4}[width], n


def test_three_byte_ids_round_trip():
    # from n = 2**16 on, ids take 3 bytes, which numpy reads padded to 4
    n = 70000
    rep = gt.CyclicRep()
    rep.n_, rep.generator_ = n, 2
    rep.F_, rep.B_ = np.arange(n), np.arange(1, n + 1)
    data = ser.to_bytes(rep)
    assert len(data) == 4 + 8 + 2 * 3 * n
    back = ser.from_bytes(data)
    assert np.array_equal(back.F_, rep.F_) and np.array_equal(back.B_, rep.B_)
    assert ser.to_bytes(back) == data
    # ids of a cyclic group numbered by exponent: x*y = (x+y-2) mod n + 1
    assert back.B_.dtype == np.uint32 and back.B_.flags.aligned
    assert not back.B_.flags.writeable and back.B_.flags.c_contiguous
    for x, y in ((n, 2), (n - 1, n), (1, 1), (35000, 35001)):
        z = back.multiply(x, y)
        assert type(z) is int and z == (x + y - 2) % n + 1
    got = back.predict([[n, 2], [n - 1, n]])
    assert got.dtype == np.int64 and got.tolist() == [1, n - 2]


def test_deterministic_bytes(corpus):
    G = corpus.table("S4")
    a = ser.to_bytes(gt.BlockRep(l=2).fit(G))
    b = ser.to_bytes(gt.BlockRep(l=2).fit(G))
    assert a == b


def test_corrupted_block_detected_or_caught_by_verify(corpus):
    G = corpus.table("S4")
    rep = corpus.rep("S4", "block", l=2)
    data = bytearray(ser.to_bytes(rep))
    # flip one slot inside the multiplication arrays (the payload tail)
    data[-3] ^= 0x07
    try:
        bad = ser.from_bytes(bytes(data))
    except (ValidationError, ParseError):
        return
    assert verify_exhaustive(bad, G) is not None


def test_corrupted_empty_product_rejected_at_load(corpus):
    rep = corpus.rep("S4", "block", l=2)
    data = bytearray(ser.to_bytes(rep))
    header = 5 + 16 + rep.k_ * 1 + 24 * 1
    data[header] ^= 0xFF                 # first mult-array slot: A_g[0]
    with pytest.raises(ValidationError):
        ser.from_bytes(bytes(data))


def test_corrupted_cyclic_rejected(corpus):
    rep = corpus.rep("C12", "cyclic")
    data = bytearray(ser.to_bytes(rep))
    data[12] ^= 0x3F
    with pytest.raises((ValidationError, ParseError)):
        ser.from_bytes(bytes(data))


def test_truncated_artifact():
    rep = gt.CyclicRep().fit(gt.make_cyclic(12))
    data = ser.to_bytes(rep)
    with pytest.raises(ParseError):
        ser.from_bytes(data[:10])
    with pytest.raises(ParseError):
        ser.from_bytes(b"XYZ")


def test_fm_store_only_reload(corpus):
    rep = corpus.rep("C7:C3", "fm-zgroup")
    data = ser.to_bytes(rep)
    store = ser.fm_store_from_bytes(data)
    l1 = rep.labeler_.label(3)
    l2 = rep.labeler_.label(17)
    assert store.multiply(l1, l2) == rep.scheme_.multiply(l1, l2)


def test_fm_purity_across_contexts(corpus):
    # replaying seeded label queries through a reloaded store reproduces
    # the original output labels exactly
    for name, kind in (("C2xC4xC9", "fm-abelian"), ("Q8xC3", "fm-hamiltonian"),
                       ("C7:C3", "fm-zgroup"), ("A4", "fm-semidirect")):
        rep = corpus.rep(name, kind)
        store = ser.fm_store_from_bytes(ser.to_bytes(rep))
        rng = np.random.RandomState(42)
        n = rep.n_
        for _ in range(200):
            x, y = (int(v) for v in rng.randint(1, n + 1, 2))
            l1, l2 = rep.labeler_.label(x), rep.labeler_.label(y)
            assert store.multiply(l1, l2) == rep.scheme_.multiply(l1, l2)


def test_save_load_files(tmp_path, corpus):
    rep = corpus.rep("S3", "zgroup")
    path = tmp_path / "s3.rep"
    ser.save(rep, path)
    back = ser.load(path)
    assert verify_exhaustive(back, corpus.table("S3")) is None
