import warnings

import numpy as np
import pytest

import gtool as gt
from gtool import serialize as ser
from gtool.base import ParseError, ValidationError
from gtool.verify import verify_exhaustive

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
                if kind in ("composite", "zgroup"):
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


def test_block_widths_follow_order(corpus):
    # id width is ceil(bits(n)/8): one byte through n = 255, two at 256
    small = ser.to_bytes(corpus.rep("S4", "block", l=1))
    big = ser.to_bytes(corpus.rep("C256", "block", l=1))
    assert small[:5] == b"BREP1" and big[:5] == b"BREP1"
    rep = ser.from_bytes(big)
    assert rep.n_ == 256


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
