"""Versioned binary containers for every representation kind.

``_KINDS`` is the format's single definition: per kind, the ASCII magic
and the layout, which declares each u32 header field (u8 for flags) and
array section once, in byte order, by the attribute that holds it, with
its shape, byte width, value range and held dtype.  Element ids use
ceil(bits(n)/8) bytes, and an array of ids that queries only index with
or return is held in the numpy word of that width, ``id_dtype(n)``
(uint8, uint16 or uint32), as ``fit`` holds it; arrays that queries add,
multiply or shift are held as int64.  A label-scheme artifact is its
query store, an 'LBL1' marker, then its labeling, so the store alone can
be reloaded.
One walk writes or reads any layout; reading checks each size against
the bytes left before it allocates, ranges, trailing bytes and then the
invariants that are not ranges.  Identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import fm
from .base import ParseError, PreconditionError, ValidationError, id_dtype
from .blockrep import BlockRep
from .special import CompositeRep, CyclicRep, SimpleRep, _label_bits
from .structure import MixedRadix


class _Array(NamedTuple):
    """``shape`` unsigned little-endian values of ``width`` bytes in
    [lo, hi] and below 2**63, held as ``dtype``; shape () is a field.
    Shape, width and bounds are ints, and dtype a type, or functions of
    the names before.
    ``lead``: the held array has an unused entry 0.  ``of``: the value
    written when no attribute holds it."""
    name: str
    shape: object
    width: object
    lo: object = 0
    hi: object = 1 << 64
    dtype: object = np.int64        # or tuple, for a tuple of ints
    lead: bool = False
    of: Callable | None = None


def _u32(name, lo=0, hi=1 << 64, of=None) -> _Array:
    return _Array(name, (), 4, lo, hi, of=of)


def _check(ok: Callable, what: str) -> Callable:
    """A layout item: a function of the names before it that gives the
    layout to follow, here none once ``ok`` holds of them."""
    def item(h) -> tuple:
        if not ok(h):
            raise ValidationError(f"corrupt artifact: {what}")
        return ()
    return item


# the parts of a structure that hold its arrays (a labeler's ``scheme`` is
# its estimator's ``scheme_``)
PARTS = ("cyclic_", "scheme_", "labeler_", "scheme", "abelian", "cycle")


class _Names(dict):
    """Names laid out so far.  To the writer, a name not laid out yet is
    an attribute of the structure or of a part of it (``PARTS``)."""

    def __init__(self, *holders):
        super().__init__()
        self.holders = list(holders)
        for obj in self.holders:        # a labeler's scheme is held once
            self.holders += [part for a in PARTS
                             if (part := getattr(obj, a, None)) is not None
                             and part not in self.holders]

    __getattr__ = dict.__getitem__

    def __missing__(self, name):
        for obj in reversed(self.holders):      # a store's table_max, not
            if hasattr(obj, name):              # its estimator's
                return getattr(obj, name)
        raise KeyError(name)


def _ev(expr, h):
    return expr(h) if callable(expr) else expr


def _bytes_for(bits: int) -> int:
    return max(-(-bits // 8), 1)


def _id(h) -> int:
    return _bytes_for(h.n_.bit_length())


def _ids(h) -> np.dtype:
    return id_dtype(h.n_)


_n, _pts = attrgetter("n_"), attrgetter("n_points")


def _walk(layout, h: _Names, data: bytes | None = None, pos: int = 0,
          out: list | None = None) -> int:
    """Write the names in ``h`` to ``out`` in ``layout`` or, given
    ``data``, read them from ``data[pos:]`` into ``h``; the end position."""
    reading = data is not None
    for item in layout:
        if callable(item):
            pos = _walk(item(h), h, data, pos, out)
            continue
        if item.of and not reading:
            h[item.name] = item.of(h)
        shape, width = _ev(item.shape, h), _ev(item.width, h)
        shape = shape if isinstance(shape, tuple) else (shape,)
        if not 1 <= width <= 8:
            raise ValidationError(f"{item.name} needs {width}-byte values")
        count, size = math.prod(shape), 1 << (width - 1).bit_length()
        if not reading:
            vals = np.ravel(h[item.name])[int(item.lead):]
        elif count * width > len(data) - pos:
            raise ParseError(f"truncated artifact: {item.name} needs "
                             f"{count * width} bytes, {len(data) - pos} left")
        elif size == width:
            vals = np.frombuffer(data, f"<u{size}", count, pos)
        else:       # 3, 5, 6 or 7 bytes: pad each value to a numpy word
            vals = np.pad(np.frombuffer(data, np.uint8, count * width, pos)
                          .reshape(count, width), ((0, 0), (0, size - width))
                          ).view(f"<u{size}")[:, 0]
        pos += count * width
        if reading and shape:
            dtype = item.dtype if isinstance(item.dtype, type) else \
                item.dtype(h)
            held = np.int64 if dtype is tuple else dtype
            # a safe cast cannot wrap, so the range is checked on the
            # aligned copy; a narrowing cast waits for the check
            if np.can_cast(vals.dtype, held, "safe"):
                vals = vals.astype(held)
        lo, hi = _ev(item.lo, h), min(_ev(item.hi, h), (1 << 8 * width) - 1,
                                      (1 << 63) - 1)
        seen = vals.tolist() if count < 64 else (vals.min(), vals.max())
        if count and (min(seen) < lo or max(seen) > hi):
            raise ValidationError(
                f"corrupt artifact: {item.name} outside [{lo}, {hi}]")
        if not reading:
            raw = vals.astype(f"<u{size}")
            if size != width:
                raw = raw.reshape(-1, 1).view(np.uint8)[:, :width]
            out.append(raw.tobytes())
        elif not shape:
            h[item.name] = int(vals[0])
        else:
            arr = vals.astype(held, copy=False).reshape(shape)
            if item.lead:
                arr = np.concatenate([[-1], arr])
            arr.setflags(write=False)
            h[item.name] = tuple(arr.tolist()) if dtype is tuple else arr
    return pos


def _rep(rep, h, **fitted):
    """``rep`` fitted with the names ending in '_' and ``fitted``."""
    for name, value in {**h, **fitted}.items():
        if name.endswith("_"):
            setattr(rep, name, value)
    return rep


# -- layouts and constructors -------------------------------------------------

_CYCLIC = (    # after its own n_
    _u32("generator_", 1, _n),
    _Array("F_", _n, _id, 0, lambda h: h.n_ - 1),
    _Array("B_", _n, _id, 1, _n, _ids),
    _check(lambda h: np.array_equal(h.F_[h.B_ - 1], np.arange(h.n_)),
           "cyclic maps do not invert"),
)


_PATHS = (     # a nonabelian simple group's generators, paths and steps
    _u32("s", of=lambda h: len(h.generators_)), _u32("diameter_"),
    _Array("generators_", lambda h: h.s, _id, 1, _n, tuple),
    _Array("path_", _n,
           lambda h: _bytes_for(h.diameter_ * _label_bits(h.s))),
    _Array("path_len_", _n, 2, 0, lambda h: h.diameter_,
           lambda h: id_dtype(h.diameter_)),
    _Array("M_", lambda h: (h.n_, h.s), _id, 1, _n, _ids),
)


def _semidirect(h) -> fm.SemidirectScheme:
    # pi sends each cycle entry to the next; a cycle's last to its first
    nxt = np.arange(1, h.n_points + 1)
    nxt[np.cumsum(h.lengths_) - 1] -= h.lengths_
    pi = np.zeros(h.n_points, dtype=np.int64)
    pi[h.flat_ - 1] = h.flat_[nxt]
    cycle = fm.CycleStructure(pi)
    if not all(np.array_equal(getattr(cycle, name), h[name])
               for name in ("flat_", "index_", "lengths_")):
        raise ValidationError("corrupt store: cycles not in canonical order")
    return fm.SemidirectScheme(h.m, cycle, fm.AbelianScheme(h.orders),
                               h.labels_of_a, h.index_of_label)


def _zgroup(h) -> fm.ZGroupScheme:
    return fm.ZGroupScheme(h.m, h.d, h.sigma1, table_max=h.table_max)


def _word_bits(h) -> int:
    return MixedRadix(h.sizes_).bits


def _words_invert(h) -> bool:
    """Every forward word packs a tuple of the box, and backward inverts
    forward, so that a query reads only inside the composite arrays."""
    word = MixedRadix(h.sizes_)
    return word.holds(h.forward_) and np.array_equal(
        h.backward_[word.index(h.forward_)], np.arange(1, h.n_ + 1))


# at most 63 packed bits, each factor order a prime power >= 2
_ABELIAN = (_u32("t", 0, 63, of=lambda h: len(h.orders)),
            _Array("orders", lambda h: h.t, 4, 2, dtype=tuple))


def _labels(name: str, count: Callable) -> Callable:
    """Check that the words ``name`` are labels over the factor orders,
    whose flat indices are exactly 0 .. ``count`` - 1, so that the flat
    index of any product of labels is inside the arrays it reads."""
    def ok(h) -> bool:
        box = MixedRadix(h.orders)
        return box.size == count(h) and box.holds(h[name])
    return _check(ok, f"{name} are not labels over the factor orders")


class _Kind(NamedTuple):
    magic: bytes
    layout: tuple
    build: Callable                 # names -> structure
    store: _Kind | None = None      # a label scheme's query store alone


def _fm_kind(make, store: _Kind, labeler_cls, labeling: tuple) -> _Kind:
    """A label scheme, built by ``make`` from its store: the store, 'LBL1',
    n, then the labeling, whose arrays are the labeler's arguments."""
    arrays = [item.name for item in labeling
              if isinstance(item, _Array) and item.shape != ()]

    def build(h):
        scheme = store.build(h)
        rep = make(scheme)
        rep.scheme_, rep.n_ = scheme, h.n_
        rep.labeler_ = labeler_cls(scheme, *(h[name] for name in arrays))
        return rep

    lbl1 = int.from_bytes(b"LBL1", "little")
    marker = _u32("'LBL1' marker", lbl1, lbl1, lambda h: lbl1)
    return _Kind(store.magic, store.layout + (marker, _u32("n_", 1))
                 + labeling, build, store)


_KINDS = {
    "block": _Kind(b"BREP1", (
        _u32("n_", 1), _u32("k_"), _u32("l_", 1, lambda h: max(h.k_, 1)),
        _u32("m_"),
        _check(lambda h: h.m_ == -(-h.k_ // h.l_), "m is not ceil(k/l)"),
        _Array("generators_", lambda h: h.k_, _id, 1, _n, tuple),
        _Array("word_index_", _n, lambda h: _bytes_for(h.m_ * h.l_), 0,
               lambda h: (1 << h.k_) - 1),
        _Array("mult_arrays_", lambda h: (h.n_, h.m_, 1 << h.l_), _id, 1, _n,
               _ids),
        _check(lambda h: (h.mult_arrays_[:, :, 0]
                          == np.arange(1, h.n_ + 1)[:, None]).all(),
               "empty-product entries must map every element to itself"),
    ), lambda h: _rep(BlockRep(l=h.l_), h)),
    "cyclic": _Kind(b"CYC1", (_u32("n_", 1),) + _CYCLIC,
                    lambda h: _rep(CyclicRep(generator=h.generator_), h)),
    "composite": _Kind(b"CMP1", (
        # at most 63 one-bit coordinate fields, then the exponent of b
        _u32("n_", 1), _u32("d_", 1), _u32("a_order_", 1),
        _u32("ns", 1, 64, of=lambda h: len(h.sizes_)),
        _check(lambda h: h.n_ == h.a_order_ * h.d_, "n is not |A| * d"),
        _Array("sizes_", lambda h: h.ns, 4, 1, _n, tuple),
        _check(lambda h: h.sizes_[-1] == h.d_
               and math.prod(h.sizes_[:-1]) == h.a_order_,
               "sizes are not A's factor sizes and d"),
        _Array("forward_", _n, lambda h: _bytes_for(_word_bits(h)), 0,
               lambda h: (1 << _word_bits(h)) - 1),
        _Array("backward_", _n, _id, 1, _n, _ids),
        _check(_words_invert, "forward and backward words do not invert"),
        _Array("action_", lambda h: (h.d_, h.a_order_),
               lambda h: _bytes_for(max(h.a_order_ - 1, 1).bit_length()), 0,
               lambda h: h.a_order_ - 1),
    ), lambda h: _rep(CompositeRep(), h, codec_=MixedRadix(h.sizes_[:-1]))),
    "simple": _Kind(b"SMP1", (
        _u32("n_", 1),
        _Array("delegate", (), 1, 0, 1, of=lambda h: h.cyclic_ is not None),
        lambda h: ((_u32("cyclic_n", _n, _n, _n),) + _CYCLIC if h.delegate
                   else _PATHS),
    ), lambda h: _rep(SimpleRep(), {"n_": h.n_}, cyclic_=_rep(
        CyclicRep(generator=h.generator_), h)) if h.delegate else _rep(
            SimpleRep(), h, cyclic_=None, label_bits_=_label_bits(h.s))),
    "fm-abelian": _fm_kind(
        lambda s: fm.AbelianFM(), _Kind(b"FMA1", _ABELIAN,
                            lambda h: fm.AbelianScheme(h.orders)),
        fm.AbelianLabeler, (
            _Array("packed", _n, 8), _labels("packed", _n),
            _Array("element_of_flat", _n, 4, 1, _n, _ids))),
    "fm-hamiltonian": _fm_kind(lambda s: fm.HamiltonianFM(), _Kind(b"FMH1", (
        _Array("q8_table", (8, 8), 1, 1, 8),
        _check(lambda h: np.array_equal(h.q8_table, fm.Q8_TABLE),
               "quaternion table is not canonical"),
    ) + _ABELIAN, lambda h: fm.HamiltonianScheme(fm.AbelianScheme(h.orders))),
        fm.HamiltonianLabeler, (
            _Array("q_of", _n, 1, 1, 8, lead=True),
            _Array("c_of", _n, 4, 1, _n, lead=True),
            _u32("nc", 1, of=lambda h: len(h.c_labels)),
            _check(lambda h: h.c_of.max() <= h.nc, "c_of past the C ids"),
            _Array("c_labels", lambda h: h.nc, 8),
            _labels("c_labels", attrgetter("nc")),
            _Array("by_flat", lambda h: (8, h.nc), 4, 1, _n, _ids))),
    "fm-zgroup": _fm_kind(lambda s: fm.ZGroupFM(s.table_max), _Kind(b"FMZ1", (
        _u32("m", 1), _u32("d", 1), _u32("sigma1"), _u32("table_max"),
        _Array("has_table", (), 1, 0, 1,
               of=lambda h: h.sigma_table is not None),
        _check(lambda h: h.has_table == (h.d <= h.table_max),
               "sigma-table flag is not d <= table_max"),
        _Array("sigma_table", lambda h: h.d * h.has_table, 4, 0,
               lambda h: h.m - 1,
               of=lambda h: h.sigma_table if h.has_table else ()),
        _check(lambda h: not h.has_table or np.array_equal(
            h.sigma_table, _zgroup(h).sigma_table), "sigma table disagrees "
            "with the multiplier"),
    ), _zgroup), fm.ZGroupLabeler, (
        _Array("i_of", _n, 4, 0, lambda h: h.m - 1, lead=True),
        _Array("j_of", _n, 4, 0, lambda h: h.d - 1, lead=True),
        _Array("pairing", lambda h: (h.m, h.d), 4, 1, _n, _ids))),
    "fm-semidirect": _fm_kind(lambda s: fm.SemidirectFM(), _Kind(b"FMS1", (
        _u32("m", 1), _u32("n_points", 1),
        _u32("ncyc", 1, _pts, of=lambda h: len(h.lengths_)),
        _Array("lengths_", lambda h: h.ncyc, 4, 1, _pts),
        _check(lambda h: h.lengths_.sum() == h.n_points,
               "cycle lengths do not add up to the points"),
        _Array("flat_", _pts, 4, 1, _pts),
        _Array("index_", _pts, 8, 0, lambda h: h.ncyc * h.n_points - 1),
        _Array("labels_of_a", _pts, 8),
        _Array("index_of_label", _pts, 4, 1, _pts),
    ) + _ABELIAN + (_labels("labels_of_a", _pts),), _semidirect),
        fm.SemidirectLabeler, (
        _Array("a_of", _n, 4, 0, lambda h: h.n_points - 1, lead=True),
        _Array("j_of", _n, 4, 0, lambda h: h.m - 1, lead=True),
        _Array("pairing", lambda h: (h.n_points, h.m), 4, 1, _n, _ids))),
}


def _load(data: bytes, store_only: bool = False):
    # bytes() of anything else would read an int as that many zero bytes
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValidationError("an artifact must be bytes, bytearray or "
                              f"memoryview, got {type(data).__name__}")
    data = bytes(data)
    kind = next((k.store if store_only else k for k in _KINDS.values()
                 if data.startswith(k.magic)), None)
    if kind is None:
        raise ParseError(f"unknown {'store' if store_only else 'artifact'} "
                         f"magic {data[:5]!r}")
    h = _Names()
    try:
        end = _walk(kind.layout, h, data, len(kind.magic))
        if end != len(data) and not store_only:
            raise ParseError(f"{len(data) - end} trailing bytes after "
                             "the artifact")
        return kind.build(h)
    except PreconditionError as exc:    # sizes that no structure can have
        raise ValidationError(f"corrupt artifact: {exc}") from exc


# -- public API ------------------------------------------------------------------------

def to_bytes(rep) -> bytes:
    """Serialize a fitted representation; deterministic for fixed input."""
    kind = _KINDS.get(rep.rep_kind)
    if kind is None:
        raise ValidationError(f"cannot serialize rep kind {rep.rep_kind!r}")
    out = [kind.magic]
    _walk(kind.layout, _Names(rep), out=out)
    return b"".join(out)


def from_bytes(data: bytes):
    """Deserialize any representation artifact, revalidating its invariants."""
    return _load(data)


def fm_store_from_bytes(data: bytes):
    """Load only the query-processing-unit store of an fm artifact."""
    return _load(data, store_only=True)


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
    data = to_bytes(rep)            # a failed encode leaves ``path`` as it was
    with open(path, "wb") as fh:
        fh.write(data)


def load(path):
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
