"""Acceptance gate: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Each criterion states its own budget; every check is
exact (integer arithmetic or equality), never approximate.
"""

import math
import time

import numpy as np
import pytest

import gtool as gt
from gtool import fm, serialize as ser
from gtool.audit import ProbeLedger, measure, probe_counted_multiply
from gtool.cli import main as cli_main
from gtool.corpus import applicable_kinds
from gtool.verify import verify_exhaustive

from conftest import small_entries


def _ok(num: int, text: str):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_oracle_equivalence_exhaustive(corpus):
    t0 = time.time()
    checked = 0
    for entry in small_entries(512):
        G = corpus.table(entry.name)
        kinds = applicable_kinds(entry)
        assert kinds[0] == "block"
        for kind in kinds:
            if kind == "block":
                for l in corpus.block_lengths(entry.name):
                    rep = corpus.rep(entry.name, "block", l=l)
                    bad = verify_exhaustive(rep, G)
                    assert bad is None, (entry.name, "block", l, bad)
                    checked += 1
            else:
                rep = corpus.rep(entry.name, kind)
                bad = verify_exhaustive(rep, G)
                assert bad is None, (entry.name, kind, bad)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"exhaustive sweep took {elapsed:.0f}s"
    _ok(1, f"{checked} (group, representation) pairs exhaustively "
           f"oracle-checked in {elapsed:.1f}s")


def test_criterion_02_cube_length_bounds(corpus):
    for entry in corpus.entries:
        seq, _ = corpus.cube(entry.name)
        n = corpus.table(entry.name).n
        if n == 1:
            assert seq.k == 0
            continue
        lo = math.ceil(math.log2(n))
        hi = math.ceil(math.log2(n * math.log(n))) + 2
        assert lo <= seq.k <= hi, (entry.name, seq.k, lo, hi)
        assert seq.k <= 4 * math.log2(n)       # feeds the slot-bound constant
    _ok(2, "ceil(log2 n) <= k <= ceil(log2(n ln n)) + 2 on every corpus group")


def test_criterion_03_greedy_claim_every_stage(corpus):
    stages = 0
    for entry in corpus.entries:
        n = corpus.table(entry.name).n
        _, trace = corpus.cube(entry.name)
        for prev, cur in zip(trace.sizes, trace.sizes[1:]):
            # cross-multiplied integer form of (n - a_i) <= (n - a_{i-1})^2 / n
            assert n * (n - cur) <= (n - prev) ** 2, (entry.name, prev, cur)
            stages += 1
    _ok(3, f"greedy doubling claim holds at all {stages} stages")


def test_criterion_04_block_ledgers_exact(corpus):
    builds = 0
    for entry in small_entries(512):
        G = corpus.table(entry.name)
        cube, _ = corpus.cube(entry.name)
        for l in corpus.block_lengths(entry.name):
            rep = corpus.rep(entry.name, "block", l=l)
            m = -(-cube.k // l)
            slots = sum(rep.space_slots().values())
            meta = slots - (G.n * (1 << l) * m + G.n)
            assert 0 <= meta <= 8, (entry.name, l, meta)
            assert slots == G.n * (1 << l) * m + G.n + 4
            _, ledger = probe_counted_multiply(rep, 1 + G.n // 2, G.n)
            assert ledger["word_index"] == 1
            assert ledger["mult_array"] == m
            assert ledger.total() == 1 + m
            builds += 1
    _ok(4, f"slots = n*2^l*ceil(k/l) + n + 4 and probes = (1 word, m mult) "
           f"on {builds} builds")


def test_criterion_05_tradeoff_instantiation_c1024(corpus):
    t0 = time.time()
    G = corpus.table("C1024")
    cube, _ = corpus.cube("C1024")
    k = cube.k
    log2n = 10
    from fractions import Fraction
    deltas = [Fraction(p, log2n) for p in range(1, log2n + 1)]
    rows = gt.tradeoff_table(G, deltas, cube=cube)
    assert all(r.error is None for r in rows)
    by_delta = {r.delta: r for r in rows}
    assert by_delta[Fraction(1, 1)].probes == 1          # delta = 1
    assert by_delta[Fraction(1, log2n)].probes == k      # delta = 1/log2 n
    for r in rows:
        p = r.delta.numerator * log2n // r.delta.denominator
        # slots <= 8 * (k / log2 n) * n^(1 + delta) / delta, cross-multiplied:
        # slots * p <= 8 * k * 2^(10 + p)
        assert r.slots * p <= 8 * k * (1 << (10 + p)), (r.delta, r.slots)
    elapsed = time.time() - t0
    assert elapsed < 60
    _ok(5, f"C1024 sweep: m(delta=1) = 1, m(1/log2 n) = k = {k}, slot bound "
           f"holds for all {len(rows)} deltas in {elapsed:.1f}s")


def test_criterion_06_linear_space_reps(corpus):
    for entry in small_entries(512):
        if entry.flags["cyclic"]:
            rep = corpus.rep(entry.name, "cyclic")
            n = corpus.table(entry.name).n
            slots = sum(rep.space_slots().values())
            assert 2 * n <= slots <= 2 * n + 4, entry.name
            _, ledger = probe_counted_multiply(rep, 1, n)
            assert ledger.total() == 3
        if entry.flags["z_group"]:
            rep = corpus.rep(entry.name, "zgroup")
            n = corpus.table(entry.name).n
            assert sum(rep.space_slots().values()) <= 8 * n, entry.name
            _, ledger = probe_counted_multiply(rep, 1 + n // 3, 1 + n // 2)
            assert ledger.total() <= 8
    worst = {}
    for name in ("A5", "PSL(2,7)"):
        G = corpus.table(name)
        rep = corpus.rep(name, "simple")
        D = rep.diameter_
        assert D <= 10 * math.log2(G.n), (name, D)
        rng = np.random.RandomState(0)
        for _ in range(500):
            x, y = (int(v) for v in rng.randint(1, G.n + 1, 2))
            _, ledger = probe_counted_multiply(rep, x, y)
            assert ledger["table"] <= D
        worst[name] = D
    _ok(6, f"cyclic = 2n+2 slots / 3 probes; z-group <= 8n slots / <= 8 "
           f"probes; simple diameters {worst} within 10*log2 n")


def test_criterion_07_fm_store_bounds(corpus):
    for entry in corpus.entries:
        if entry.flags["abelian"]:
            rep = corpus.rep(entry.name, "fm-abelian")
            assert fm.qpu_space(rep.scheme_) <= 80, entry.name
        if entry.flags["hamiltonian"]:
            rep = corpus.rep(entry.name, "fm-hamiltonian")
            assert fm.qpu_space(rep.scheme_) <= 80, entry.name
        if entry.flags["z_group"]:
            rep = corpus.rep(entry.name, "fm-zgroup")
            assert fm.qpu_space(rep.scheme_) <= 80, entry.name
        if entry.flags["semidirect"]:
            rep = corpus.rep(entry.name, "fm-semidirect")
            assert fm.qpu_space(rep.scheme_) <= 8 * rep.scheme_.a_order, \
                entry.name
    # stores built from the orders alone keep a constant size at the 2^14
    # scale, where no table is built
    for scheme in (fm.AbelianScheme((16384,)), fm.AbelianScheme((4096, 4)),
                   fm.ZGroupScheme(8191, 2, 8190)):
        assert fm.qpu_space(scheme) <= 80
    _ok(7, "constant-size stores (<= 80 slots) up to order 2^14; "
           "semidirect stores within 8|A|")


def test_criterion_08_cycle_power_oracle():
    t0 = time.time()
    rng = np.random.RandomState(2024)
    checked = 0
    for _ in range(100):
        N = int(rng.randint(1, 1001))
        pi = rng.permutation(N) + 1
        cs = fm.CycleStructure(pi)
        # independent oracle: permutation powers by repeated squaring
        # (literal iteration, checked below for small d, is equal by
        # induction on the binary expansion of d)
        pows = {}
        for _ in range(100):
            g = int(rng.randint(1, N + 1))
            d = int(rng.randint(0, 1_000_001))
            want = _perm_power_lookup(pi, d, pows)[g - 1]
            ledger = ProbeLedger()
            got = cs.apply_power(g, d)
            cs._count(ledger)
            assert got == want
            assert ledger.total() == 2
            if d <= 500:
                cur = g
                for _ in range(d):
                    cur = int(pi[cur - 1])
                assert got == cur
            checked += 1
    elapsed = time.time() - t0
    assert checked == 10_000 and elapsed < 10
    _ok(8, f"apply_power matched {checked} seeded powers in {elapsed:.1f}s, "
           f"2 reads per call")


def _perm_power_lookup(pi, d, cache):
    if d in cache:
        return cache[d]
    if d == 0:
        out = np.arange(1, len(pi) + 1)
    elif d % 2 == 0:
        h = _perm_power_lookup(pi, d // 2, cache)
        out = h[h - 1]
    else:
        h = _perm_power_lookup(pi, d - 1, cache)
        out = pi[h - 1]
    cache[d] = out
    return out


def test_criterion_09_qpu_purity(corpus):
    cases = [("C2xC4xC9", "fm-abelian"), ("Q8xC2xC5", "fm-hamiltonian"),
             ("C7:C3", "fm-zgroup"), ("A4", "fm-semidirect")]
    for name, kind in cases:
        rep = corpus.rep(name, kind)
        store = ser.fm_store_from_bytes(ser.to_bytes(rep))
        rng = np.random.RandomState(99)
        for _ in range(1000):
            x, y = (int(v) for v in rng.randint(1, rep.n_ + 1, 2))
            l1, l2 = rep.labeler_.label(x), rep.labeler_.label(y)
            assert store.multiply(l1, l2) == rep.scheme_.multiply(l1, l2), \
                (name, x, y)
    _ok(9, "reloaded stores reproduced 1000 seeded label queries per scheme")


def test_criterion_10_serialization_roundtrip(corpus):
    total = 0
    for name in ("S4", "Q8xC3"):
        G = corpus.table(name)
        entry = corpus.entry(name)
        for kind in applicable_kinds(entry):
            if kind == "block":
                reps = [corpus.rep(name, "block", l=l)
                        for l in corpus.block_lengths(name)]
            else:
                reps = [corpus.rep(name, kind)]
            for rep in reps:
                back = ser.from_bytes(ser.to_bytes(rep))
                assert verify_exhaustive(back, G) is None, (name, kind)
                total += 1
    _ok(10, f"{total} build->serialize->deserialize->re-verify cycles "
            f"passed on S4 and Q8xC3")


def test_criterion_11_build_determinism(tmp_path, capsys):
    specs = [
        ("symmetric", ["4"], "block", ["--delta", "1/2"]),
        ("cyclic", ["60"], "cyclic", []),
        ("symmetric", ["3"], "zgroup", []),
        ("alternating", ["4"], "fm-semidirect", []),
        ("quaternion", [], "fm-hamiltonian", []),
        ("alternating", ["5"], "simple", []),
    ]
    for family, params, kind, flags in specs:
        table = tmp_path / f"{family}{''.join(params)}.table"
        assert cli_main(["gen", family, *params, str(table)]) == 0
        a = tmp_path / f"{kind}-a.rep"
        b = tmp_path / f"{kind}-b.rep"
        assert cli_main(["build", str(table), kind, str(a), *flags]) == 0
        assert cli_main(["build", str(table), kind, str(b), *flags]) == 0
        assert a.read_bytes() == b.read_bytes(), kind
    capsys.readouterr()
    _ok(11, "repeated gtool builds are byte-identical for six rep kinds")
