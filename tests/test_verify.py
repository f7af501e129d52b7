"""The oracle checks: verify_random's pair stream and its chunking,
verify_exhaustive's row blocks, and the row method they sweep with."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gtool as gt
from gtool import serialize as ser
from gtool.base import ParseError, ValidationError
from gtool.cli import main
from gtool.verify import (_CHUNK, MAX_COUNT, _generator, verify_exhaustive,
                          verify_random)

from test_serialize import ALL_KINDS, _mutants


class WrongOn:
    """The table's answers, except one more (mod n) on the pairs ``bad``,
    or on every pair if ``bad`` is None."""

    def __init__(self, G, bad=None):
        self.G = G
        bad = None if bad is None else np.asarray(bad)
        self.keys = None if bad is None else self._key(bad[:, 0], bad[:, 1])

    def _key(self, x, y):
        return x * (self.G.n + 1) + y

    def _bumped(self, out, keys):
        hit = slice(None) if self.keys is None else np.isin(keys, self.keys)
        out[hit] = out[hit] % self.G.n + 1
        return out

    def predict(self, X):
        pairs = np.asarray(X)
        return self._bumped(self.G.predict(pairs),
                            self._key(pairs[:, 0], pairs[:, 1]))

    def _predict_rows(self, rows, n):
        """The table's rows, bumped on the bad pairs as ``predict`` is."""
        return self._bumped(self.G._predict_rows(rows, n).astype(np.int64),
                            self._key(rows[:, None], np.arange(1, n + 1)))


def one_shot(G, count, seed):
    """The pairs verify_random checks, drawn in one call."""
    return np.random.RandomState(seed).randint(1, G.n + 1, size=(count, 2))


@pytest.mark.parametrize("seed", [0, 7, (1 << 32) - 1])
@pytest.mark.parametrize("count", [0, 1, 4096, 3 * _CHUNK + 5])
def test_random_counterexample_is_the_one_shot_draws(seed, count):
    # the structure is wrong on two pairs of the draw, one in the last
    # chunk; the counterexample is the first draw of either, in draw order
    G = gt.make_dihedral(250)
    pairs = one_shot(G, count, seed)
    bad = pairs[[count // 2, count - 1]] if count else np.zeros((0, 2), int)
    if count:
        i = min(np.flatnonzero((pairs == bad[0]).all(axis=1))[0],
                np.flatnonzero((pairs == bad[1]).all(axis=1))[0])
        x, y = map(int, pairs[i])
        want = G.mult(x, y)
        expected = (x, y, want % G.n + 1, want)
    else:
        expected = None
    assert verify_random(WrongOn(G, bad), G, count, seed=seed) == expected
    assert verify_random(G, G, count, seed=seed) is None


@pytest.mark.parametrize("n", [12, 500, 4096, 70000])
def test_chunked_draws_are_the_one_shot_stream(n):
    # the thread's generator, re-seeded after other draws and read a chunk
    # at a time as verify_random reads it, gives the one-shot stream
    count = _CHUNK + 3
    _generator(1).randint(1, 9, size=5)
    for seed in (0, 7, (1 << 32) - 1):
        rng = _generator(seed)
        chunks = [rng.randint(1, n + 1, size=(c, 2))
                  for c in (_CHUNK, count - _CHUNK)]
        assert np.array_equal(np.concatenate(chunks),
                              np.random.RandomState(seed).randint(
                                  1, n + 1, size=(count, 2)))


def test_count_is_bounded_and_memory_is_not_drawn_up_front():
    G = gt.make_cyclic(12)
    everywhere = WrongOn(G)
    x, y = map(int, one_shot(G, 1, 3)[0])
    # the largest count stops after its first chunk
    assert verify_random(everywhere, G, MAX_COUNT, seed=3)[:2] == (x, y)
    for count in (MAX_COUNT + 1, 1 << 70):
        with pytest.raises(ValidationError, match="pair count"):
            verify_random(G, G, count)
    # no pairs still asks an unfitted structure, which refuses
    with pytest.raises(gt.NotFittedError):
        verify_random(gt.CyclicRep(), G, 0)


def test_threads_get_the_sequential_results():
    # each thread re-seeds its own generator: one shared between threads
    # would hand a call the draws of another, and change its answer
    G = gt.make_dihedral(60)
    rep = WrongOn(G, one_shot(G, 400, 99)[::37])
    jobs = [(count, seed) for seed in range(8) for count in (50, 400, 5000)]
    sequential = [verify_random(rep, G, c, seed=s) for c, s in jobs]
    assert any(r is None for r in sequential)
    assert any(r is not None for r in sequential)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                threaded = list(pool.map(
                    lambda job: verify_random(rep, G, job[0], seed=job[1]),
                    jobs, timeout=60))
                assert threaded == sequential
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name, kind, params", ALL_KINDS)
def test_row_method_equals_predict(corpus, name, kind, params):
    G = corpus.table(name)
    rep = corpus.rep(name, kind, **params)
    n = G.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    pairs = np.stack([np.repeat(ids, n), np.tile(ids, n)], axis=1)
    for tag, r in (("fitted", rep), ("loaded", ser.from_bytes(
            ser.to_bytes(rep)))):
        want = r.predict(pairs).reshape(n, n)
        for rows in (ids, ids[:1], ids[n // 2:]):
            got = r._predict_rows(rows, n)
            assert got.shape == (len(rows), n), (kind, tag)
            assert np.array_equal(got, want[rows - 1]), (kind, tag)


def test_row_method_checks_the_order(corpus):
    # every row method refuses columns past its order as predict refuses
    # such pairs: a table, a rendered kernel, SimpleRep's fold and its
    # cyclic delegate
    for rep, n in ((corpus.table("C12"), 12),
                   (corpus.rep("C12", "cyclic"), 12),
                   (corpus.rep("A5", "simple"), 60),
                   (corpus.rep("C5", "simple"), 5)):
        with pytest.raises(ValidationError, match="pair entries"):
            rep._predict_rows(np.arange(1, 3), n + 1)
    with pytest.raises(ValidationError, match=r"pair entries .*\[1, 12\]"):
        verify_exhaustive(gt.make_cyclic(12), gt.make_cyclic(13))
    with pytest.raises(gt.NotFittedError):
        gt.SimpleRep()._predict_rows(np.arange(1, 3), 2)


def test_simple_row_block_builds_no_pair_array(corpus):
    # a row block folds an int64 copy of its rows along its columns' paths,
    # sorted once: neither an (r * n, 2) pair array nor its sort is built,
    # so the traced peak of a warm block stays within 4 blocks of int64
    G = corpus.table("PSL(2,11)")
    rep = corpus.rep("PSL(2,11)", "simple")
    assert rep.cyclic_ is None
    n = G.n
    r = _CHUNK // n
    rows = np.arange(1, r + 1, dtype=np.int64)
    assert np.array_equal(rep._predict_rows(rows, n), G.table[:r])
    tracemalloc.start()
    try:
        got = rep._predict_rows(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, G.table[:r])
    assert peak <= 4 * r * n * 8, peak / (r * n * 8)


def pairwise_first_mismatch(rep, G):
    """verify_exhaustive as pairs: predict on every pair, row-major."""
    n = G.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    pairs = np.stack([np.repeat(ids, n), np.tile(ids, n)], axis=1)
    got = rep.predict(pairs)
    bad = np.flatnonzero(got != G.table.reshape(-1))
    if not bad.size:
        return None
    x, y = map(int, pairs[bad[0]])
    return (x, y, int(got[bad[0]]), G.mult(x, y))


def outcome(check, rep, G):
    try:
        return check(rep, G)
    except Exception as exc:        # a mutant may read outside an array
        return type(exc)


def test_exhaustive_first_mismatch_on_mutants(corpus):
    # the row sweep finds the first mismatch of the pairwise sweep, or
    # fails as it does, on every mutant artifact that loads
    rng = np.random.RandomState(2)
    wrong = 0
    for name, kind, params in ALL_KINDS:
        data = ser.to_bytes(corpus.rep(name, kind, **params))
        G = corpus.table(name)
        for mutant in _mutants(data, rng, 1000):
            try:
                rep = ser.from_bytes(mutant)
            except (ParseError, ValidationError):
                continue
            want = outcome(pairwise_first_mismatch, rep, G)
            assert outcome(verify_exhaustive, rep, G) == want, (name, kind)
            wrong += isinstance(want, tuple)
    assert wrong > 0


def test_exhaustive_on_tables_and_past_one_chunk():
    # a table is its own structure; D500's sweep spans many row blocks, and
    # a wrong product in its last row is found there
    G = gt.make_dihedral(500)
    assert verify_exhaustive(G, G) is None
    rep = gt.BlockRep(l=3).fit(G)
    assert verify_exhaustive(rep, G) is None
    n = G.n
    want = G.mult(n, 7)
    assert verify_exhaustive(WrongOn(G, [(n, 7)]), G) == (
        n, 7, want % n + 1, want)


def test_ragged_pairs_are_rejected(corpus):
    ragged = [[1, 2], [3]]
    G = corpus.table("A4")
    with pytest.raises(ValidationError, match="differ in length"):
        G.predict(ragged)
    for name, kind, params in ALL_KINDS:
        rep = corpus.rep(name, kind, **params)
        with pytest.raises(ValidationError, match="differ in length"):
            rep.predict(ragged)


def test_cli_reports_pairs_per_second(tmp_path, capsys):
    table, art = tmp_path / "c12.table", tmp_path / "c12.gta"
    assert main(["gen", "cyclic", "12", str(table)]) == 0
    assert main(["build", str(table), "cyclic", str(art)]) == 0
    capsys.readouterr()
    for mode, pairs in (("exhaustive", 144), ("random:1000", 1000)):
        assert main(["verify", str(art), str(table), "--mode", mode]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == f"pass: {mode}"
        assert second.startswith(f"checked {pairs} pairs in ")
        assert second.endswith(" pairs/s")
    for count in (MAX_COUNT + 1, 1 << 70):
        assert main(["verify", str(art), str(table),
                     "--mode", f"random:{count}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err
