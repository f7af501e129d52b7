"""The two renderings of a query template: the batch form's reductions
and 0-d int64 constants, and the scalar form, pinned as it was written."""

import ast
import copy
import hashlib

import numpy as np
import pytest

from gtool import base
from gtool import serialize as ser

from test_structure import SCALAR_CASES, SCALAR_IDS, _bound, compiled_key

MODULI = [1, 2, 3, 7, 127, 1024]


def _values(m: int, summed: bool) -> list[int]:
    """The boundary values of a reduction by ``m``: 0, m - 1, m and
    2m - 1, the whole domain of a sum of two residues; otherwise larger
    values too, to the top of uint16 and past 32 bits."""
    vals = {0, m - 1, m, 2 * m - 1}
    if not summed:
        vals |= {2 * m, 5 * m + 3, 1000 * m - 1, 65535, (1 << 40) + 7}
    return sorted(vals)


def _forms(m: int):
    """(template lines, binds, summed, what the batch lines hold) for each
    reduction by ``m``: by a literal and by a bound scalar, marked as a
    sum of two residues or not, and a remainder after its quotient."""
    pow2 = not m & (m - 1)
    const = "&" if pow2 else "//"
    return [
        ([f"return s % {m}"], {}, False, const),
        ([f"return (s + 0) % +{m}"], {}, True, "&" if pow2 else ">="),
        (["return s % m"], {"m": m}, False, "//"),
        (["return (s + 0) % +m"], {"m": m}, True, ">="),
        (["q = s // m", "r = s % m", "return (q, r)"], {"m": m}, False,
         "r = s - q * m"),
    ]


def _render(lines, binds):
    """``lines`` of the argument ``s`` in the batch form, as ``_Cached``
    renders them, bound to ``binds`` (scalars as 0-d int64 arrays), and
    the batch lines."""
    batch, consts = base._batch_lines(lines)
    binds = {k: base._const(v) if type(v) is int else v
             for k, v in binds.items()}
    return base._rendered(("s",), batch, {**binds, **consts}), batch


@pytest.mark.parametrize("m", MODULI)
def test_every_batch_reduction_equals_mod(m):
    for lines, binds, summed, holds in _forms(m):
        query, batch = _render(lines, binds)
        text = "\n".join(batch)
        # the rule the form names, no %, and no literal but a bound name
        assert holds in text and "%" not in text, (lines, batch)
        assert not [node for node in ast.walk(ast.parse(text.replace(
            "return ", "_ = "))) if isinstance(node, ast.Constant)]
        vals = _values(m, summed)
        quotient = lines[0].startswith("q =")
        for dtype in (np.int64, np.uint16):
            arr = np.array([v for v in vals if v <= np.iinfo(dtype).max],
                           dtype=dtype)
            got = query(arr)
            got = got[1] if quotient else got
            # an operand of any width meets the constants in int64
            assert got.dtype == np.int64, (lines, dtype)
            assert got.tolist() == [v % m for v in arr.tolist()], (lines, dtype)
        got = [query(v) for v in vals]
        got = [z[1] for z in got] if quotient else got
        assert got == [v % m for v in vals], lines


def test_an_array_modulus_keeps_mod():
    # the cycle power's % lengths[j]: one modulus per element
    lengths = np.array(MODULI, dtype=np.int64)
    query, batch = _render(["return (s + 1) % lengths[s]"],
                           {"lengths": lengths})
    assert batch == ("return (s + _1) % lengths[s]",)
    s = np.arange(len(MODULI))
    assert query(s).tolist() == ((s + 1) % lengths).tolist()


def test_a_sum_is_read_once():
    # the operand of a reduction that reads it twice is named once by :=
    lines = ["return (F[x] + F[y]) % +n", "return (F[x] + F[y]) % n"]
    for line in lines:
        (batch,), _ = base._batch_lines([line])
        assert batch.count("F[") == 2 and ":=" in batch, batch


@pytest.mark.parametrize("lines, reused", [
    (["j = s // n", "r = s % n", "return r"], True),
    (["j = s // n", "s = s + 1", "r = s % n", "return r"], False),
    (["s = s // n", "r = s % n", "return r"], False),
    (["j = s // n", "j += 1", "r = s % n", "return r + j"], False),
    (["j = s // n", "for _ in range(2):", "    r = s % n", "    s = s + j",
      "return r"], False),
])
def test_a_quotient_is_reused_only_while_its_names_hold(lines, reused):
    query, batch = _render(lines, {"n": 7})
    assert any(" - j * n" in line for line in batch) == reused, batch
    scalar = base._rendered(("s",), lines, {"n": 7})
    for v in (0, 6, 7, 50, 1 << 40):
        assert query(v) == scalar(v), (lines, v)
    arr = np.arange(100, dtype=np.int64)
    assert query(arr).tolist() == [scalar(v) for v in range(100)]


def test_the_batch_rewrite_is_cached_by_its_lines():
    lines = ["return (s + 3) % 7"]
    first = base._batch_lines(lines)
    assert base._batch_lines(tuple(lines)) is first
    assert base._BATCH[tuple(lines)] is first


def _structures(corpus, cases):
    for name, kind, params in cases:
        fitted = corpus.rep(name, kind, **params)
        for rep in (copy.deepcopy(fitted),
                    ser.from_bytes(ser.to_bytes(fitted))):
            yield corpus.table(name), kind, rep


@pytest.mark.parametrize("case", SCALAR_CASES, ids=SCALAR_IDS)
def test_batch_kernel_binds_only_arrays_and_no_literal(corpus, case):
    # the batch lines are the template under the batch rendering, and
    # every name they read is an ndarray: a held array or a 0-d int64
    for G, kind, rep in _structures(corpus, [case]):
        if kind == "simple" and rep.cyclic_ is None:
            continue                # its kernel is the fold, not a template
        rep.predict(np.array([[1, G.n]]))
        batch, consts = base._batch_lines(rep._template())
        assert compiled_key(rep._kernel)[1:] == (("x", "y"), False, batch)
        bound = _bound(rep._kernel)
        assert set(consts) <= set(bound)
        for name, value in bound.items():
            assert type(value) is np.ndarray, (kind, name)
            assert value.ndim or value.dtype == np.int64, (kind, name)
        tree = ast.parse("def q():\n" + "\n".join(f" {line}"
                                                  for line in batch))
        assert not [n for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and type(n.value) is int]
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                assert isinstance(node.right, ast.Subscript), (kind, batch)


# per case, a SHA-256 prefix of each scalar source that the case's entry
# points compile, as they were compiled before the batch form had rules of
# its own: the batch rules leave the scalar form as written
SCALAR_SOURCES = [
    {"multiply": "59dde89d7fca4a44"},
    {"multiply": "38afb076c868587b"},
    {"multiply": "87c7c72f6b49a525"},
    {"multiply": "5b4b6aa7109594ac"},
    {"multiply": "ef7505208f1e43a7"},
    {"multiply": "59dde89d7fca4a44"},
    {"multiply": "181e1a372a50fa1a", "label": "5d2f87d3ec4c30be",
     "scheme.multiply": "207251fe6f01fc08", "element": "ac24ede86136ffcb"},
    {"multiply": "b7f52a3cb7ecc8b4", "label": "d105c763d1f3eacf",
     "scheme.multiply": "66ddae91b7059f49", "element": "118080be97c8ba42"},
    {"multiply": "b7e2024f84585d35", "label": "fee41938851187b4",
     "scheme.multiply": "007e06ddf6fa91d3", "element": "32d30eb92e349c6d"},
    {"multiply": "8206533ed0a49cb7", "label": "c932a5057ba24f57",
     "scheme.multiply": "7a4cb14ad72dc581", "element": "25709c1b762ae47d",
     "apply_power": "fc84d5d5b1038cbb"},
    {"multiply": "8df4021d55298535", "label": "0286b27c6bd6eb16",
     "scheme.multiply": "78f7e3ec842276db", "element": "ab05225116cfd272"},
]


def _scalar_sources(rep, monkeypatch) -> dict:
    """A SHA-256 prefix of the source that each scalar entry point of
    ``rep`` compiles, on a fresh cache."""
    sources, build = {}, base._query_source
    calls = [("multiply", lambda: rep.multiply(1, rep.n_))]
    if hasattr(rep, "scheme_"):
        lab, sch = rep.labeler_, rep.scheme_
        calls += [("label", lambda: lab.label(rep.n_)),
                  ("scheme.multiply",
                   lambda: sch.multiply(lab.label(1), lab.label(rep.n_))),
                  ("element", lambda: lab.element(lab.label(rep.n_)))]
        if hasattr(sch, "cycle"):
            calls.append(("apply_power", lambda: sch.cycle.apply_power(1, 2)))
    base._COMPILED.clear()
    for entry, call in calls:
        def record(*args, entry=entry):
            sources[entry] = build(*args)
            return sources[entry]
        monkeypatch.setattr(base, "_query_source", record)
        call()
    return {entry: hashlib.sha256(src.encode()).hexdigest()[:16]
            for entry, src in sources.items()}


@pytest.mark.parametrize("case, pinned", zip(SCALAR_CASES, SCALAR_SOURCES),
                         ids=SCALAR_IDS)
def test_scalar_sources_are_as_written(corpus, monkeypatch, case, pinned):
    # the batch rewrite leaves the scalar form byte for byte as it was
    for G, kind, rep in _structures(corpus, [case]):
        assert _scalar_sources(rep, monkeypatch) == pinned, kind
