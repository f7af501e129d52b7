import pickle

import numpy as np
import pytest

import gtool as gt
from gtool import serialize
from gtool.audit import (SpaceReport, measure, probe_counted_multiply,
                         word_bits)
from gtool.base import NotFittedError
from gtool.corpus import applicable_kinds
from gtool.verify import verify_exhaustive

from conftest import small_entries


def test_word_bits():
    assert word_bits(1) == 1
    assert word_bits(255) == 8
    assert word_bits(256) == 9


def test_measure_cayley_table():
    G = gt.make_cyclic(10)
    report = measure(G)
    assert report.slots == 100 + 10 + 2
    assert report.slots <= 100 + 2 * 10 + 8
    assert report.rep_type == "cayley"
    assert report.ratio > 1.0


def test_measure_cyclic_rep():
    G = gt.make_cyclic(100)
    rep = gt.CyclicRep().fit(G)
    report = measure(rep)
    assert report.slots == 200 + 2
    assert report.probes_min == report.probes_max == 3


def test_measure_block_exact(corpus):
    cube, _ = corpus.cube("S4")
    rep = corpus.rep("S4", "block", l=2)
    report = measure(rep)
    m = -(-cube.k // 2)
    assert report.slots == 24 * 4 * m + 24 + 4


def test_every_slot_fits_declared_width(corpus):
    # all stored ids fit the conceptual word of their group
    for name in ("S4", "C100", "A5"):
        G = corpus.table(name)
        w = word_bits(G.n)
        for kind in ("block", "cyclic", "simple"):
            if kind == "cyclic" and not (G.element_orders() == G.n).any():
                continue
            if kind == "simple" and name != "A5":
                continue
            params = {"l": 2} if kind == "block" else {}
            rep = corpus.rep(name, kind, **params)
            for attr in ("mult_arrays_", "F_", "B_", "M_"):
                arr = getattr(rep, attr, None)
                if arr is not None:
                    assert 0 <= np.max(arr) < 1 << w, (name, attr)


def test_instrumentation_transparency(corpus):
    # the instrumented path returns exactly what the raw path returns
    G = corpus.table("S4")
    rep = corpus.rep("S4", "block", l=1)
    for x in G.elements:
        for y in G.elements:
            raw = rep.multiply(x, y)
            counted, _ = probe_counted_multiply(rep, x, y)
            assert raw == counted


def test_ledger_reset_between_queries(corpus):
    rep = corpus.rep("S4", "block", l=1)
    _, l1 = probe_counted_multiply(rep, 2, 3)
    _, l2 = probe_counted_multiply(rep, 4, 5)
    assert l1.counts == l2.counts           # fresh ledger per call


def test_probe_contract_per_kind(corpus):
    expectations = {
        ("S4", "block", (("l", 2),)): {"word_index": 1, "mult_array": 3},
        ("C100", "cyclic", ()): {"forward": 2, "backward": 1},
        ("S3", "zgroup", ()): {"forward": 2, "action": 1, "backward": 1},
        ("C2xC4xC9", "fm-abelian", ()): {},
        ("Q8xC3", "fm-hamiltonian", ()): {"table": 1},
    }
    for (name, kind, params), want in expectations.items():
        rep = corpus.rep(name, kind, **dict(params))
        _, ledger = probe_counted_multiply(rep, 2, 2)
        got = {k: v for k, v in ledger.counts.items() if v}
        assert got == want, (name, kind)


def test_scalar_and_batch_queries_agree(corpus):
    # multiply and predict run one kernel; check they agree with each other,
    # with the table, and with the probe bounds on every small corpus group
    rng = np.random.RandomState(11)
    reps = 0
    for entry in small_entries(512):
        G = corpus.table(entry.name)
        for kind in applicable_kinds(entry):
            params = ([{"l": l} for l in corpus.block_lengths(entry.name)]
                      if kind == "block" else [{}])
            for p in params:
                rep = corpus.rep(entry.name, kind, **p)
                lo, hi = rep.probe_bounds()
                pairs = rng.randint(1, G.n + 1, size=(16, 2))
                batch = rep.predict(pairs)
                for (x, y), z in zip(pairs.tolist(), batch.tolist()):
                    got = rep.multiply(x, y)
                    wide = rep.multiply(np.int64(x), np.int64(y))
                    assert type(got) is type(wide) is int
                    assert got == wide == z == G.mult(x, y), \
                        (entry.name, kind, p, x, y)
                    counted, ledger = probe_counted_multiply(rep, x, y)
                    assert type(counted) is int and counted == got
                    assert lo <= ledger.total() <= hi, (entry.name, kind, p)
                reps += 1
    assert reps > 300


def _assert_answers(rep, G):
    for x in G.elements:
        for y in G.elements:
            got = rep.multiply(x, y)
            assert type(got) is int and got == G.mult(x, y), (x, y)


REFITS = [      # estimator, groups fitted in turn, then set_params and a refit
    (gt.CyclicRep(), ("C12", "C60"), {}),
    (gt.BlockRep(l=1), ("S4", "C7:C3"), {"l": 2}),
    (gt.CompositeRep(), ("A4", "S3"), {"mode": "zgroup"}),
    (gt.SimpleRep(), ("C5", "A5", "C7"), {}),
    (gt.AbelianFM(), ("C2xC4xC9", "C12"), {}),
    (gt.ZGroupFM(), ("C7:C3", "S3"), {"table_max": 1}),
    (gt.SemidirectFM(), ("A4", "S3"), {}),
    (gt.HamiltonianFM(), ("Q8xC3", "Q8"), {}),
]


@pytest.mark.parametrize("rep, names, params", REFITS,
                         ids=[type(case[0]).__name__ for case in REFITS])
def test_scalar_queries_follow_refit(corpus, rep, names, params):
    # multiply reads a view twin of the fitted arrays, built by the first
    # query; fit, set_params and del must drop it, or it answers stale
    for name in names:
        G = corpus.table(name)
        rep.fit(G)
        _assert_answers(rep, G)
    rep.set_params(**params).fit(G)
    _assert_answers(rep, G)
    _assert_answers(pickle.loads(pickle.dumps(rep)), G)
    del rep.n_
    with pytest.raises(NotFittedError):
        rep.multiply(1, 1)


def test_scalar_queries_copy_no_arrays(corpus):
    # the twin holds views of the same buffers: the ledger and the measured
    # widths are those of the arrays, before and after a scalar query
    for name, kind, params in (("S4", "block", {"l": 2}), ("C60", "cyclic", {}),
                               ("A4", "composite", {}), ("A5", "simple", {}),
                               ("C2xC4xC9", "fm-abelian", {}),
                               ("A4", "fm-semidirect", {})):
        fitted = corpus.rep(name, kind, **params)
        for rep in (fitted, serialize.from_bytes(serialize.to_bytes(fitted))):
            before = measure(rep)
            rep.multiply(2, 3)
            assert measure(rep) == before, (name, kind)
            for attr, value in vars(rep).items():
                if isinstance(value, np.ndarray):
                    view = getattr(rep._twin, attr)
                    assert isinstance(view, memoryview) and view.readonly
                    assert np.shares_memory(np.asarray(view), value)


def test_measure_totals_equal_serialized_store(corpus):
    # serialized payload sections, minus revalidation-only build metadata,
    # account for exactly the measured slots minus in-memory meta words
    for name, kind, params in (("S4", "block", {"l": 2}),
                               ("C100", "cyclic", {}),
                               ("S3", "zgroup", {}),
                               ("A4", "composite", {})):
        rep = corpus.rep(name, kind, **params)
        data = serialize.to_bytes(rep)
        sections = serialize.store_slot_sections(data)
        measured = measure(rep).by_array
        stored = {k: v for k, v in sections.items()
                  if k not in ("meta", "build_meta")}
        in_memory = {k: v for k, v in measured.items() if k != "meta"}
        assert stored == in_memory, (name, kind)


def test_csv_row_shape():
    G = gt.make_cyclic(16)
    report = measure(gt.CyclicRep().fit(G))
    row = report.csv_row()
    assert row.split(",")[0] == "cyclic"
    assert len(row.split(",")) == len(SpaceReport.CSV_HEADER.split(","))
