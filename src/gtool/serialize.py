"""Versioned binary containers for every representation kind.

Each artifact starts with a 4- or 5-byte ASCII magic, followed by u32
header fields and little-endian fixed-width integer arrays.  Element ids
use ceil(bits(n)/8) bytes; packed fields get their own width.  Files with
a labeling section append it after the query store behind an 'LBL1'
marker, so the store alone can be reloaded for isolation tests.  All
writers are deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from . import fm
from .base import ParseError, ValidationError
from .blockrep import BlockRep
from .special import CompositeRep, CyclicRep, SimpleRep
from .structure import MixedRadix


def _id_width(n: int) -> int:
    return max(-(-int(n).bit_length() // 8), 1)


def _pack_array(arr, width: int) -> bytes:
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
    if a.size == 0:
        return b""
    if a.min() < 0 or (width < 8 and a.max() >= (1 << (8 * width))):
        raise ValidationError(f"array values do not fit in {width} bytes")
    full = a.astype("<u8").view(np.uint8).reshape(-1, 8)
    return full[:, :width].tobytes()


def _unpack_array(buf: bytes, count: int, width: int) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    raw = np.frombuffer(buf, dtype=np.uint8, count=count * width)
    full = np.zeros((count, 8), dtype=np.uint8)
    full[:, :width] = raw.reshape(count, width)
    return full.reshape(-1).view("<i8")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def bytes(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise ParseError("truncated artifact")
        out = self.data[self.pos:self.pos + k]
        self.pos += k
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.bytes(4))[0]

    def u8(self) -> int:
        return self.bytes(1)[0]

    def array(self, count: int, width: int) -> np.ndarray:
        return _unpack_array(self.bytes(count * width), count, width)


def _u32(*vals) -> bytes:
    return struct.pack("<" + "I" * len(vals), *vals)


# -- block ---------------------------------------------------------------------

def _encode_block(rep: BlockRep) -> bytes:
    n, k, l, m = rep.n_, rep.k_, rep.l_, rep.m_
    w = _id_width(n)
    ww = max(-(-(m * l) // 8), 1)
    out = io.BytesIO()
    out.write(b"BREP1")
    out.write(_u32(n, k, l, m))
    out.write(_pack_array(np.array(rep.generators_, dtype=np.int64), w))
    out.write(_pack_array(rep.word_index_, ww))
    out.write(_pack_array(rep.mult_arrays_.reshape(-1), w))
    return out.getvalue()


def _decode_block(r: _Reader) -> BlockRep:
    n, k, l, m = r.u32(), r.u32(), r.u32(), r.u32()
    w = _id_width(n)
    ww = max(-(-(m * l) // 8), 1)
    gens = r.array(k, w)
    word_index = r.array(n, ww)
    mult = r.array(n * m * (1 << l), w).reshape(n, m, 1 << l).astype(np.int32)
    if m and not np.array_equal(mult[:, :, 0],
                                np.arange(1, n + 1, dtype=np.int64)[:, None]
                                * np.ones((1, m), dtype=np.int64)):
        raise ValidationError("corrupt block artifact: empty-product entries "
                              "must map every element to itself")
    rep = BlockRep(l=l)
    rep.n_, rep.k_, rep.l_, rep.m_ = n, k, l, m
    rep.generators_ = tuple(int(g) for g in gens)
    rep.word_index_ = word_index
    rep.mult_arrays_ = mult
    for arr in (rep.word_index_, rep.mult_arrays_):
        arr.setflags(write=False)
    return rep


# -- cyclic ----------------------------------------------------------------------

def _encode_cyclic(rep: CyclicRep) -> bytes:
    w = _id_width(rep.n_)
    out = io.BytesIO()
    out.write(b"CYC1")
    out.write(_u32(rep.n_, rep.generator_))
    out.write(_pack_array(rep.F_, w))
    out.write(_pack_array(rep.B_, w))
    return out.getvalue()


def _decode_cyclic(r: _Reader) -> CyclicRep:
    n, gen = r.u32(), r.u32()
    w = _id_width(n)
    F = r.array(n, w)
    B = r.array(n, w)
    if not np.array_equal(F[B - 1], np.arange(n, dtype=np.int64)):
        raise ValidationError("corrupt cyclic artifact: maps do not invert")
    rep = CyclicRep(generator=gen)
    rep.n_, rep.generator_, rep.F_, rep.B_ = n, gen, F, B
    for arr in (rep.F_, rep.B_):
        arr.setflags(write=False)
    return rep


# -- composite --------------------------------------------------------------------

def _encode_composite(rep: CompositeRep) -> bytes:
    n = rep.n_
    w = _id_width(n)
    wf = max(-(-MixedRadix(rep.sizes_).bits // 8), 1)
    wa = _id_width(max(rep.a_order_ - 1, 1))
    out = io.BytesIO()
    out.write(b"CMP1")
    out.write(_u32(n, rep.d_, rep.a_order_, len(rep.sizes_)))
    out.write(_pack_array(np.array(rep.sizes_, dtype=np.int64), 4))
    out.write(_pack_array(rep.forward_, wf))
    out.write(_pack_array(rep.backward_, w))
    out.write(_pack_array(rep.action_.reshape(-1), wa))
    return out.getvalue()


def _decode_composite(r: _Reader) -> CompositeRep:
    n, d, a_order, ns = r.u32(), r.u32(), r.u32(), r.u32()
    sizes = tuple(int(v) for v in r.array(ns, 4))
    w = _id_width(n)
    wf = max(-(-MixedRadix(sizes).bits // 8), 1)
    wa = _id_width(max(a_order - 1, 1))
    forward = r.array(n, wf)
    backward = r.array(a_order * d, w)
    action = r.array(d * a_order, wa).reshape(d, a_order)
    rep = CompositeRep()
    rep.n_, rep.d_, rep.a_order_ = n, d, a_order
    rep.sizes_, rep.codec_ = sizes, MixedRadix(sizes[:-1])
    rep.forward_, rep.backward_, rep.action_ = forward, backward, action
    if int(action[0 % d].max(initial=0)) >= a_order:
        raise ValidationError("corrupt composite artifact: action out of range")
    for arr in (forward, backward, action):
        arr.setflags(write=False)
    return rep


# -- simple -----------------------------------------------------------------------

def _encode_simple(rep: SimpleRep) -> bytes:
    out = io.BytesIO()
    out.write(b"SMP1")
    out.write(_u32(rep.n_))
    if rep.cyclic_ is not None:
        out.write(bytes([1]))
        out.write(_encode_cyclic(rep.cyclic_)[4:])
        return out.getvalue()
    out.write(bytes([0]))
    n = rep.n_
    s = len(rep.generators_)
    w = _id_width(n)
    wp = max(-(-(rep.diameter_ * rep.label_bits_) // 8), 1)
    out.write(_u32(s, rep.diameter_))
    out.write(_pack_array(np.array(rep.generators_, dtype=np.int64), w))
    out.write(_pack_array(rep.path_, wp))
    out.write(_pack_array(rep.path_len_, 2))
    out.write(_pack_array(rep.M_.reshape(-1), w))
    return out.getvalue()


def _decode_simple(r: _Reader) -> SimpleRep:
    n = r.u32()
    delegate = r.u8()
    rep = SimpleRep()
    rep.n_ = n
    if delegate:
        # embedded cyclic block without its magic
        sub = _Reader(r.data[r.pos:])
        cyc = _decode_cyclic(sub)
        r.pos += sub.pos
        rep.cyclic_ = cyc
        return rep
    rep.cyclic_ = None
    s, D = r.u32(), r.u32()
    w = _id_width(n)
    wl = max(int(s - 1).bit_length(), 1)
    wp = max(-(-(D * wl) // 8), 1)
    rep.generators_ = tuple(int(g) for g in r.array(s, w))
    rep.diameter_ = D
    rep.label_bits_ = wl
    rep.path_ = r.array(n, wp)
    rep.path_len_ = r.array(n, 2)
    rep.M_ = r.array(n * s, w).reshape(n, s).astype(np.int32)
    if int(rep.path_len_.max(initial=0)) > D:
        raise ValidationError("corrupt simple artifact: path longer than diameter")
    for arr in (rep.path_, rep.path_len_, rep.M_):
        arr.setflags(write=False)
    return rep


# -- fm stores ----------------------------------------------------------------------

def _encode_fma_body(scheme: fm.AbelianScheme) -> bytes:
    return _u32(len(scheme.orders)) + _pack_array(
        np.array(scheme.orders, dtype=np.int64), 4)


def _decode_fma_body(r: _Reader) -> fm.AbelianScheme:
    t = r.u32()
    orders = tuple(int(v) for v in r.array(t, 4))
    return fm.AbelianScheme(orders)


def _encode_fm_store(scheme) -> bytes:
    if isinstance(scheme, fm.AbelianScheme):
        return b"FMA1" + _encode_fma_body(scheme)
    if isinstance(scheme, fm.HamiltonianScheme):
        return (b"FMH1" + _pack_array(scheme.q8_table.reshape(-1), 1)
                + _encode_fma_body(scheme.abelian))
    if isinstance(scheme, fm.ZGroupScheme):
        out = b"FMZ1" + _u32(scheme.m, scheme.d, scheme.sigma1,
                             scheme.table_max)
        has = scheme.sigma_table is not None
        out += bytes([1 if has else 0])
        if has:
            out += _pack_array(scheme.sigma_table, 4)
        return out
    if isinstance(scheme, fm.SemidirectScheme):
        cyc = scheme.cycle
        out = io.BytesIO()
        out.write(b"FMS1")
        out.write(_u32(scheme.m, cyc.n_points, len(cyc.cycles)))
        out.write(_pack_array(cyc.lengths_, 4))
        out.write(_pack_array(cyc.flat_, 4))
        out.write(_pack_array(cyc.index_, 8))
        out.write(_pack_array(scheme.labels_of_a, 8))
        out.write(_pack_array(scheme.index_of_label, 4))
        out.write(_encode_fma_body(scheme.abelian))
        return out.getvalue()
    raise ValidationError(f"unknown scheme type {type(scheme).__name__}")


def _decode_fm_store(r: _Reader):
    magic = r.bytes(4)
    if magic == b"FMA1":
        return _decode_fma_body(r)
    if magic == b"FMH1":
        q8 = r.array(64, 1).reshape(8, 8)
        from .groups import make_quaternion
        if not np.array_equal(q8, make_quaternion().table):
            raise ValidationError(
                "corrupt store: quaternion table is not canonical")
        ab = _decode_fma_body(r)
        return fm.HamiltonianScheme(ab, q8_table=q8)
    if magic == b"FMZ1":
        m, d, sigma1, table_max = r.u32(), r.u32(), r.u32(), r.u32()
        has = r.u8()
        scheme = fm.ZGroupScheme(m, d, sigma1, table_max=table_max)
        if has:
            table = r.array(d, 4)
            if scheme.sigma_table is None or \
                    not np.array_equal(table, scheme.sigma_table):
                raise ValidationError("corrupt z-group store: sigma table "
                                      "disagrees with the multiplier")
        return scheme
    if magic == b"FMS1":
        m, npts, ncyc = r.u32(), r.u32(), r.u32()
        lengths = r.array(ncyc, 4)
        if int(lengths.sum()) != npts:
            raise ValidationError(
                "corrupt store: cycle lengths do not partition the points")
        flat = r.array(npts, 4)
        index = r.array(npts, 8)
        labels_of_a = r.array(npts, 8)
        index_of_label = r.array(npts, 4)
        ab = _decode_fma_body(r)
        cyc = object.__new__(fm.CycleStructure)
        cyc.n_points = npts
        offsets = np.concatenate([[0], np.cumsum(lengths[:-1])]) \
            if ncyc else np.zeros(0, dtype=np.int64)
        cyc.cycles = [flat[int(o):int(o + L)]
                      for o, L in zip(offsets, lengths)]
        cyc.lengths_ = lengths
        cyc.offsets_ = offsets.astype(np.int64)
        cyc.flat_ = flat
        cyc.index_ = index
        return fm.SemidirectScheme(m, cyc, ab, labels_of_a, index_of_label)
    raise ParseError(f"unknown store magic {magic!r}")


def _encode_fm_labeler(rep) -> bytes:
    out = io.BytesIO()
    out.write(b"LBL1")
    lab = rep.labeler_
    kind = rep.rep_kind
    n = rep.n_
    out.write(_u32(n))
    if kind == "fm-abelian":
        out.write(_pack_array(lab.packed, 8))
        out.write(_pack_array(lab.element_of_flat, 4))
    elif kind == "fm-hamiltonian":
        out.write(_pack_array(lab.q_of[1:], 1))
        out.write(_pack_array(lab.c_of[1:], 4))
        out.write(_u32(len(lab.c_labels)))
        out.write(_pack_array(lab.c_labels, 8))
        out.write(_pack_array(lab.by_flat.reshape(-1), 4))
    elif kind == "fm-zgroup":
        out.write(_pack_array(lab.i_of[1:], 4))
        out.write(_pack_array(lab.j_of[1:], 4))
        out.write(_pack_array(lab.pairing.reshape(-1), 4))
    elif kind == "fm-semidirect":
        out.write(_pack_array(lab.a_of[1:], 4))
        out.write(_pack_array(lab.j_of[1:], 4))
        out.write(_pack_array(lab.pairing.reshape(-1), 4))
    else:
        raise ValidationError(f"unknown fm kind {kind}")
    return out.getvalue()


def _lead(arr: np.ndarray, fill: int = -1) -> np.ndarray:
    out = np.concatenate([[fill], arr]).astype(np.int64)
    return out


def _decode_fm(magic: bytes, r: _Reader):
    r.pos -= 4
    scheme = _decode_fm_store(r)
    if r.bytes(4) != b"LBL1":
        raise ParseError("missing labeling section")
    n = r.u32()
    if magic == b"FMA1":
        packed = r.array(n, 8)
        element_of_flat = r.array(n, 4)
        labeler = fm.AbelianLabeler(scheme, packed, element_of_flat)
        rep = fm.AbelianFM()
    elif magic == b"FMH1":
        q_of = _lead(r.array(n, 1))
        c_of = _lead(r.array(n, 4))
        nc = r.u32()
        c_labels = r.array(nc, 8)
        by_flat = r.array(8 * nc, 4).reshape(8, nc)
        labeler = fm.HamiltonianLabeler(scheme, q_of, c_of, c_labels, by_flat)
        rep = fm.HamiltonianFM()
    elif magic == b"FMZ1":
        i_of = _lead(r.array(n, 4))
        j_of = _lead(r.array(n, 4))
        pairing = r.array(scheme.m * scheme.d, 4).reshape(scheme.m, scheme.d)
        labeler = fm.ZGroupLabeler(scheme, i_of, j_of, pairing)
        rep = fm.ZGroupFM(table_max=scheme.table_max)
    elif magic == b"FMS1":
        a = scheme.a_order
        a_of = _lead(r.array(n, 4))
        j_of = _lead(r.array(n, 4))
        pairing = r.array(a * scheme.m, 4).reshape(a, scheme.m)
        labeler = fm.SemidirectLabeler(scheme, a_of, j_of, pairing)
        rep = fm.SemidirectFM()
    else:
        raise ParseError(f"unknown fm magic {magic!r}")
    rep.scheme_ = scheme
    rep.labeler_ = labeler
    rep.n_ = n
    return rep


# -- public API ------------------------------------------------------------------------

_FM_KINDS = ("fm-abelian", "fm-hamiltonian", "fm-zgroup", "fm-semidirect")


def to_bytes(rep) -> bytes:
    """Serialize a fitted representation; deterministic for fixed input."""
    kind = rep.rep_kind
    if kind == "block":
        return _encode_block(rep)
    if kind == "cyclic":
        return _encode_cyclic(rep)
    if kind == "composite":
        return _encode_composite(rep)
    if kind == "simple":
        return _encode_simple(rep)
    if kind in _FM_KINDS:
        return _encode_fm_store(rep.scheme_) + _encode_fm_labeler(rep)
    raise ValidationError(f"cannot serialize rep kind {kind!r}")


def from_bytes(data: bytes):
    """Deserialize any representation artifact, revalidating its invariants."""
    if len(data) < 4:
        raise ParseError("artifact too short")
    if data[:5] == b"BREP1":
        return _decode_block(_Reader(data[5:]))
    magic = data[:4]
    r = _Reader(data[4:])
    if magic == b"CYC1":
        return _decode_cyclic(r)
    if magic == b"CMP1":
        return _decode_composite(r)
    if magic == b"SMP1":
        return _decode_simple(r)
    if magic in (b"FMA1", b"FMH1", b"FMZ1", b"FMS1"):
        r2 = _Reader(data)
        r2.pos = 4
        return _decode_fm(magic, r2)
    raise ParseError(f"unknown artifact magic {data[:5]!r}")


def fm_store_from_bytes(data: bytes):
    """Load only the query-processing-unit store of an fm artifact."""
    return _decode_fm_store(_Reader(data))


def store_slot_sections(data: bytes) -> dict[str, int]:
    """Slot counts per section of a serialized artifact's query store.

    Build metadata retained only for revalidation (for example the block
    structure's generator list) is reported under 'build_meta' so ledgers
    can be compared against the accounted store.
    """
    rep = from_bytes(data)
    sections = dict(rep.space_slots())
    if rep.rep_kind == "block":
        sections["build_meta"] = rep.k_
    return sections


def save(rep, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(rep))


def load(path):
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
