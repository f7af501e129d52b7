"""One benchmark run: inputs -> build -> load -> queries -> verify.

Every answer the library gives is checked against the Cayley table the
inputs were generated from; a wrong answer, an unexpected exception or an
artifact that does not re-encode to the same bytes counts as a failed
operation.  Load comes from one closed-loop client in this process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns as now

import numpy as np

import gtool as gt
from gtool import cli, serialize

import layers
from layers import geomean, low
from tracing import NullTracer, Tracer

ROUND = 64            # most scalar and label calls per round
POOL = 16384          # scalar pairs per table, used a round at a time; large
                      # enough that the pairs a seed draws do not move a timing
P64 = 64              # pairs per small predict call
P64_ROUND = 8         # most small predict calls per round
P64_POOL = 64         # small predict calls per table, used a round at a time
BATCH = 16384         # pairs per large predict call
VERIFY_RANDOM = 1 << 12  # pairs per verify_random call; short calls let the
                         # lowest of a run miss a shared machine's slow stretches
MAX_ERRORS = 20

# printed with the end-to-end metrics but left out of the result object:
# fail_rate is 0 on a correct commit, so it has no relative spread, and
# multiply_us_p99 moved by up to 56% between runs on a shared 2-core
# machine, where multiply_us moved by 16%
UNBOUNDED = ("fail_rate", "multiply_us_p99")
E2E_UNITS = {
    "setup_s": "s", "load_s": "s", "multiply_us": "us",
    "multiply_us_p99": "us", "label_multiply_us": "us",
    "predict_ns_per_pair": "ns", "predict64_us": "us",
    "verify_pairs_per_s": "1/s", "artifact_bytes": "bytes",
    "store_bytes": "bytes", "peak_rss_mb": "MB", "fail_rate": "ratio",
}


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, k: int = 1) -> None:
        self.attempted += k

    def fail(self, what: str, k: int = 1, attempted: int | None = None) -> None:
        self.attempted += k if attempted is None else attempted
        self.failed += k
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def check(self, what: str, got, want) -> None:
        """Count elementwise mismatches of a round's answers."""
        got = np.asarray(got)
        if got.shape == want.shape:
            bad = int(np.count_nonzero(got != want))
        else:
            bad = len(want)
        if bad:
            self.fail(f"{what}: {bad} of {len(want)} answers differ from the table",
                      k=bad, attempted=len(want))
        else:
            self.ok(len(want))


@dataclass
class Table:
    G: gt.GroupTable          # the oracle, built by a gtool constructor
    path: Path
    scalar: np.ndarray        # (POOL, 2)
    p64: np.ndarray           # (P64_POOL, P64, 2)
    batch: np.ndarray         # (BATCH, 2)
    verify_seed: int

    def products(self, pairs: np.ndarray) -> np.ndarray:
        return self.G.table[pairs[..., 0] - 1, pairs[..., 1] - 1].astype(np.int64)


@dataclass
class Target:
    """One loaded structure under query."""

    jid: int
    job: object
    rep: object
    table: Table
    path: Path
    artifact: bytes
    # calls per scalar or label round, and per round of 64-pair predicts
    size: int = ROUND
    p64_calls: int = P64_ROUND
    # per-round medians of per-call ns
    mult: list = field(default_factory=list)
    label: list = field(default_factory=list)
    p64: list = field(default_factory=list)
    # ns of each single call
    batch: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    decode: list = field(default_factory=list)
    verify: list = field(default_factory=list)
    rounds: int = 0

    @property
    def is_fm(self) -> bool:
        return self.job.kind.startswith("fm-")


def make_inputs(wl, seed: int, work: Path) -> dict:
    """Write every table file and draw every query pair from the seed."""
    rng = np.random.default_rng(seed)
    tables = {}
    for i, name in enumerate(sorted(wl.tables)):
        G, text = wl.tables[name]()
        path = work / f"table{i}.txt"
        path.write_text(text)
        n = G.n
        tables[name] = Table(
            G, path,
            scalar=rng.integers(1, n + 1, size=(POOL, 2)),
            p64=rng.integers(1, n + 1, size=(P64_POOL, P64, 2)),
            batch=rng.integers(1, n + 1, size=(BATCH, 2)),
            verify_seed=int(rng.integers(0, 2**31 - 1)))
    return tables


# -- build and load -------------------------------------------------------------

def build_pass(wl, tables, tracer, tally) -> tuple[int, dict]:
    """``gtool build`` for every job: wall ns and the artifacts by job id."""
    artifacts = {}
    t0 = now()
    for jid, job in enumerate(wl.jobs):
        with tracer.span("pipeline.build_job", jid):
            try:
                with tracer.span("groups.load_cayley_file", jid):
                    G = gt.load_cayley_file(tables[job.table].path)
                with tracer.span(f"{job.layer}.fit", jid):
                    rep = job.make().fit(G)
                with tracer.span("serialize.to_bytes", jid) as c:
                    artifacts[jid] = serialize.to_bytes(rep)
                    c["bytes"] = len(artifacts[jid])
            except Exception as exc:   # any build error is a failed job
                tally.fail(f"build {job.label()}: {type(exc).__name__}: {exc}")
            else:
                tally.ok()
            G = rep = None
    return now() - t0, artifacts


def build_phase(wl, tables, repeats: int, tracer, tally):
    """Repeat the build phase; artifacts must not change between passes."""
    walls, first = [], None
    for _ in range(repeats):
        wall, artifacts = build_pass(wl, tables, tracer, tally)
        walls.append(wall)
        if first is None:
            first = artifacts
        elif artifacts != first:
            tally.fail("artifacts differ between build passes")
    return walls, first


def load_phase(wl, tables, artifacts, work, tally) -> list:
    """Decode every artifact into the structure that will be queried, and
    check that it re-encodes to the same bytes.  Decode time is measured
    later, spread over the query window."""
    targets = []
    for jid, art in artifacts.items():
        job = wl.jobs[jid]
        try:
            rep = serialize.from_bytes(art)
            same = serialize.to_bytes(rep) == art
        except Exception as exc:
            tally.fail(f"load {job.label()}: {type(exc).__name__}: {exc}")
            continue
        if not same:
            tally.fail(f"{job.label()}: artifact does not re-encode to the same bytes")
            continue
        tally.ok()
        path = work / f"job{jid}.gta"
        path.write_bytes(art)
        targets.append(Target(jid, job, rep, tables[job.table], path, art))
    # rounds shrink as structures are added, so that a cycle over all of
    # them stays near 50 ms and a window holds enough cycles for a tail
    for t in targets:
        t.size = 1 << max(3, min(6, (4096 // len(targets)).bit_length() - 1))
        t.p64_calls = max(1, min(P64_ROUND, 512 // len(targets)))
    return targets


def store_bytes(rep) -> int:
    """nbytes of every numpy array reachable from a structure, nested
    schemes, labelers and delegates included, each array counted once."""
    seen, total, todo = set(), 0, [rep]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith("gtool."):
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, s) for s in getattr(obj, "__slots__", ())
                        if hasattr(obj, s))
    return total


def job_record(t: Target) -> dict:
    rep, job, art = t.rep, t.job, t.artifact
    ledger = dataclasses.asdict(gt.measure(rep))
    rec = {"job": t.jid, "table": job.table, "n": t.table.G.n,
           "kind": job.kind, "params": job.params, "ledger": ledger,
           "probe_bounds": list(rep.probe_bounds()),
           "artifact_bytes": len(art),
           "artifact_sha256": hashlib.sha256(art).hexdigest(),
           "store_bytes": store_bytes(rep)}
    if job.kind == "block":
        rec.update(k=rep.k_, l=rep.l_, m=rep.m_)
    if job.kind == "simple":
        if rep.cyclic_ is None:
            rec.update(generators=list(rep.generators_), diameter=rep.diameter_)
        else:
            rec.update(generators=None, diameter=None, delegate="cyclic")
    return rec


# -- queries --------------------------------------------------------------------

def _timed_calls(fn, args, tracer, span: str, jid: int) -> tuple[list, list]:
    """Call ``fn(*a)`` for each argument tuple; answers and per-call ns."""
    out, lat = [], []
    with tracer.span(span, jid, calls=len(args)):
        for a in args:
            t0 = now()
            z = fn(*a)
            lat.append(now() - t0)
            out.append(z)
    return out, lat


def _round_pairs(t: Target, r: int) -> np.ndarray:
    lo = r * t.size % len(t.table.scalar)
    return t.table.scalar[lo:lo + t.size]


def scalar_round(t: Target, r: int, tracer, tally) -> list:
    """One round of scalar ``multiply`` on Python ints; per-call ns."""
    pairs = _round_pairs(t, r)
    try:
        out, lat = _timed_calls(t.rep.multiply, pairs.tolist(), tracer,
                                f"{t.job.layer}.multiply", t.jid)
    except Exception as exc:
        tally.fail(f"multiply {t.job.label()}: {type(exc).__name__}: {exc}",
                   k=t.size)
        return []
    tally.check(f"multiply {t.job.label()}", out, t.table.products(pairs))
    t.mult.append(statistics.median(lat))
    return lat


def label_round(t: Target, r: int, tracer, tally) -> None:
    """One round of ``scheme_.multiply`` on labels made by the labeler."""
    pairs = _round_pairs(t, r)
    lab = t.rep.labeler_
    try:
        args = [(lab.label(x), lab.label(y)) for x, y in pairs.tolist()]
        out, lat = _timed_calls(t.rep.scheme_.multiply, args, tracer,
                                f"{t.job.layer}.label_multiply", t.jid)
        got = [lab.element(z) for z in out]
    except Exception as exc:
        tally.fail(f"label multiply {t.job.label()}: {type(exc).__name__}: {exc}",
                   k=t.size)
        return
    tally.check(f"label multiply {t.job.label()}", got, t.table.products(pairs))
    t.label.append(statistics.median(lat))


def p64_round(t: Target, r: int, tracer, tally) -> None:
    """One round of ``predict`` calls on 64 pairs each."""
    lo = r * t.p64_calls % P64_POOL
    batches = t.table.p64[lo:lo + t.p64_calls]
    try:
        out, lat = _timed_calls(t.rep.predict, [(p,) for p in batches], tracer,
                                f"{t.job.layer}.predict64", t.jid)
    except Exception as exc:
        tally.fail(f"predict {t.job.label()}: {type(exc).__name__}: {exc}",
                   k=batches.size // 2)
        return
    tally.check(f"predict {t.job.label()}", np.stack(out), t.table.products(batches))
    t.p64.append(statistics.median(lat))


def batch_call(t: Target, wl, tracer, tally) -> None:
    """One ``predict`` call on BATCH pairs."""
    pairs = t.table.batch
    try:
        with tracer.span(f"{t.job.layer}.predict", t.jid, pairs=BATCH):
            a = now()
            got = t.rep.predict(pairs)
            t.batch.append(now() - a)
    except Exception as exc:
        tally.fail(f"predict {t.job.label()}: {type(exc).__name__}: {exc}", k=BATCH)
        return
    tally.check(f"predict {t.job.label()}", got, t.table.products(pairs))


def cli_call(t: Target, wl, tracer, tally) -> None:
    """In-process ``gtool query ARTIFACT X Y``."""
    x, y = t.table.scalar[len(t.cli) % len(t.table.scalar)].tolist()
    buf, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main", t.jid, calls=1):
        a = now()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(["query", str(t.path), str(x), str(y)])
        t.cli.append(now() - a)
    want = int(t.table.G.table[x - 1, y - 1])
    words = buf.getvalue().split()
    if code != 0 or not words or words[0] != str(want):
        tally.fail(f"gtool query {t.job.label()} {x} {y}: exit {code}, "
                   f"printed {buf.getvalue().strip()!r}, want {want}")
    else:
        tally.ok()


def decode_call(t: Target, wl, tracer, tally) -> None:
    """One ``from_bytes`` of the structure's artifact."""
    try:
        with tracer.span("serialize.from_bytes", t.jid, bytes=len(t.artifact)):
            a = now()
            serialize.from_bytes(t.artifact)
            t.decode.append(now() - a)
    except Exception as exc:
        tally.fail(f"load {t.job.label()}: {type(exc).__name__}: {exc}")
    else:
        tally.ok()


def verify_pairs(wl, t: Target) -> int:
    return t.table.G.n ** 2 if wl.verify == "exhaustive" else VERIFY_RANDOM


def verify_call(t: Target, wl, tracer, tally) -> None:
    """Check the structure against its table: all n^2 pairs on
    ``corpus-verify``, VERIFY_RANDOM seeded pairs elsewhere."""
    G = t.table.G
    name = f"verify.verify_{wl.verify}"
    try:
        with tracer.span(name, t.jid, pairs=verify_pairs(wl, t)):
            a = now()
            bad = (gt.verify_exhaustive(t.rep, G) if wl.verify == "exhaustive"
                   else gt.verify_random(t.rep, G, VERIFY_RANDOM,
                                         seed=t.table.verify_seed))
            t.verify.append(now() - a)
    except Exception as exc:
        tally.fail(f"{name} {t.job.label()}: {type(exc).__name__}: {exc}")
        return
    if bad is None:
        tally.ok()
    else:
        tally.fail(f"{name} {t.job.label()}: (x, y, got, want) = {bad}")


# each single-call operation, the samples it fills, and its share of the
# query window; the rest of the window goes to cycles of short rounds
SLOTS = ((batch_call, "batch", 0.2), (verify_call, "verify", 0.1),
         (decode_call, "decode", 0.3), (cli_call, "cli", 0.05))


def query_window(wl, targets, seconds: float, tracer, tally) -> dict:
    """Interleave all query-side work across structures for ``seconds``.

    Each cycle gives every structure one scalar round, one label round
    (label schemes) and one round of 64-pair predicts, starting from a
    rotating offset.  Between cycles, each single-call operation in SLOTS
    goes round-robin over the structures until it has used its share of
    the elapsed time.  Spreading every kind of work over the whole window
    keeps a slow stretch of a shared machine from landing on one metric.
    After the window, each structure that missed an operation gets one,
    so every structure is verified.

    With a tracer, every other cycle runs untraced; the two kinds of
    cycle do the same work, so their times give the tracing overhead.
    Returns cycle wall times keyed by traced or not, and the p99 of the
    scalar calls of each cycle, all in ns.
    """
    traced = not isinstance(tracer, NullTracer)
    res = {True: [], False: [], "p99": []}

    def cycle(c: int) -> None:
        on = traced and c % 2 == 0
        tr = tracer if on else NullTracer()
        k = c % len(targets)
        calls = []
        a = now()
        for t in targets[k:] + targets[:k]:
            calls += scalar_round(t, t.rounds, tr, tally)
            if t.is_fm:
                label_round(t, t.rounds, tr, tally)
            p64_round(t, t.rounds, tr, tally)
            t.rounds += 1
        res[on].append(now() - a)
        if calls:
            res["p99"].append(float(np.percentile(calls, 99)))

    start = now()
    end = start + int(seconds * 1e9)
    used = [0] * len(SLOTS)
    nxt = [0] * len(SLOTS)
    c = 0
    while now() < end or c < 2:
        cycle(c)
        c += 1
        for i, (op, _, share) in enumerate(SLOTS):
            while used[i] < share * (now() - start) and now() < end:
                a = now()
                op(targets[nxt[i] % len(targets)], wl, tracer, tally)
                used[i] += now() - a
                nxt[i] += 1
    for op, attr, _ in SLOTS:
        for t in targets:
            if not getattr(t, attr):
                op(t, wl, tracer, tally)
    return res


def warm_up(wl, targets, tally) -> None:
    """One pass of every query path before timing, so lazy set-up is done."""
    tracer = NullTracer()
    for t in targets:
        scalar_round(t, 0, tracer, tally)
        if t.is_fm:
            label_round(t, 0, tracer, tally)
        p64_round(t, 0, tracer, tally)
        batch_call(t, wl, tracer, tally)
        for samples in (t.mult, t.label, t.p64, t.batch):
            samples.clear()


# -- metrics --------------------------------------------------------------------

def end_to_end(wl, setup_walls, targets, window, artifacts, tally) -> dict:
    """Every timing is, per structure, the lowest of its samples (for
    rounds, of each round's median), combined over structures by a
    geometric mean or a sum; see the README for why."""
    fm = [t for t in targets if t.is_fm]
    return {
        "setup_s": statistics.median(setup_walls) / 1e9,
        "load_s": sum(low(t.decode) for t in targets) / 1e9,
        "multiply_us": geomean(low(t.mult) for t in targets) / 1e3,
        "multiply_us_p99": low(window["p99"]) / 1e3,
        "label_multiply_us": geomean(low(t.label) for t in fm) / 1e3,
        "predict_ns_per_pair": geomean(low(t.batch) / BATCH for t in targets),
        "predict64_us": geomean(low(t.p64) for t in targets) / 1e3,
        "verify_pairs_per_s": geomean(verify_pairs(wl, t) / low(t.verify) * 1e9
                                      for t in targets),
        "artifact_bytes": sum(len(a) for a in artifacts.values()),
        "store_bytes": sum(store_bytes(t.rep) for t in targets),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_rate": tally.failed / max(tally.attempted, 1),
    }


def run(wl, seed: int, seconds: float, trace: bool, work: Path, out: Path) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    tally = Tally()
    tables = make_inputs(wl, seed, work)
    tracer = Tracer() if trace else NullTracer()
    repeats = 1 if trace else wl.setup_repeats
    walls, artifacts = build_phase(wl, tables, repeats, tracer, tally)
    targets = load_phase(wl, tables, artifacts, work, tally)
    records = [job_record(t) for t in targets]
    window = {True: [], False: [], "p99": []}
    if targets:
        warm_up(wl, targets, tally)
        window = query_window(wl, targets, seconds, tracer, tally)
    if trace:
        metrics = layers.per_layer(wl, tables, targets, records, tracer, tally)
        on, off = (statistics.median(window[k] or [float("nan")])
                   for k in (True, False))
        metrics["trace.overhead_pct"] = 100.0 * (on - off) / off
        tracer.dump(out / f"{wl.name}-seed{seed}.spans.json")
    else:
        metrics = end_to_end(wl, walls, targets, window, artifacts, tally)
    layers.write_records(out / f"{wl.name}-seed{seed}.records.json", wl, seed,
                         records, tally)
    return {"metrics": metrics, "tally": tally,
            "jobs": len(wl.jobs), "structures": len(targets)}
