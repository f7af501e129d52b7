"""Per-layer numbers of a traced run, and the per-job records.

Query and fit numbers come from the spans the pipeline recorded around
its calls into each module.  The ``groups``, ``structure``, ``cubegen``
and block-fill stage numbers come from stage probes: direct calls to those
functions on fresh copies of each table, run after the pipeline so that
they do not count toward the tracing overhead.
"""

from __future__ import annotations

import json
import math

import numpy as np

import gtool as gt
from gtool.audit import PROBE_FAMILIES

from tracing import seconds
from workloads import DETECTOR, make_rep

AUDIT_PAIRS = 256      # scalar pairs per structure whose probes are counted

DETECTORS = {
    "abelian_basis": gt.abelian_basis,
    "zgroup_decomposition": gt.find_zgroup_decomposition,
    "semidirect_decomposition": gt.find_semidirect_decomposition,
    "hamiltonian_decomposition": gt.find_hamiltonian_decomposition,
    "is_simple": gt.is_simple,
}
QUERY_LAYERS = ("blockrep", "special.cyclic", "special.composite",
                "special.simple")
FM_LAYERS = ("fm.abelian", "fm.hamiltonian", "fm.zgroup", "fm.semidirect")


def unit_of(name: str) -> str:
    for suffix, unit in (("_pct", "%"), ("pairs_per_s", "1/s"), ("_ns_per_pair", "ns"),
                         ("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _per_job(spans, scale: float, per: str | None = None) -> dict:
    """Lowest of each job's span durations, per ``per`` count."""
    by_job: dict[int, list[float]] = {}
    for s in spans:
        d = (s["end"] - s["start"]) / scale
        by_job.setdefault(s["job"], []).append(d / s["counts"][per] if per else d)
    return {j: low(v) for j, v in by_job.items()}


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def low(samples) -> float:
    """Lowest sample: on a shared machine, other tenants only ever add
    time, and slow stretches of a run move even its lower decile."""
    return float(min(samples)) if len(samples) else float("nan")


def stage_probes(wl, tables, tracer, tally) -> float:
    """Time each build stage on fresh table copies, as spans named
    ``probe.*``; returns the validation seconds all jobs pay together."""
    by_table: dict[str, list] = {}
    for job in wl.jobs:
        by_table.setdefault(job.table, []).append(job)
    validate = {}
    with tracer.span("pipeline.stage_probes"):
        for name, jobs in by_table.items():
            base = tables[name].G.table

            def fresh():
                return gt.GroupTable(base.copy(), validate=False)

            try:
                with tracer.span("probe.groups.validate"):
                    gt.GroupTable(base.copy())
                validate[name] = seconds(tracer.spans[-1:])
                with tracer.span("probe.groups.element_orders"):
                    fresh().element_orders()
                for det in sorted({DETECTOR[j.kind] for j in jobs
                                   if j.kind in DETECTOR}):
                    G = fresh()
                    with tracer.span(f"probe.structure.{det}"):
                        DETECTORS[det](G)
                blocks = [j for j in jobs if j.kind == "block"]
                if blocks:
                    G = fresh()
                    with tracer.span("probe.cubegen.greedy") as c:
                        cube, _ = gt.greedy_cube_sequence(G)
                        c["k"] = cube.k
                    for j in blocks:
                        G = fresh()
                        with tracer.span("probe.blockrep.fill"):
                            make_rep("block", **j.params).fit(G, cube=cube)
            except Exception as exc:
                tally.fail(f"stage probe on {name}: {type(exc).__name__}: {exc}")
            else:
                tally.ok()
    # validation is paid by every job that loads the table
    return sum(validate.get(j.table, 0.0) for j in wl.jobs)


def audit_probes(targets, tracer, tally) -> None:
    """Probe-counted queries over each structure's first scalar pairs."""
    for t in targets:
        pairs = t.table.scalar[:AUDIT_PAIRS]
        totals = dict.fromkeys(PROBE_FAMILIES, 0)
        got = []
        with tracer.span("audit.probe_counted_multiply", t.jid) as c:
            for x, y in pairs.tolist():
                z, ledger = gt.probe_counted_multiply(t.rep, x, y)
                got.append(z)
                for f, k in ledger.counts.items():
                    totals[f] += k
            c.update(totals)
        tally.check(f"probe_counted_multiply {t.job.label()}", got,
                    t.table.products(pairs))


def per_layer(wl, tables, targets, records, tracer, tally) -> dict:
    audit_probes(targets, tracer, tally)
    validate_s = stage_probes(wl, tables, tracer, tally)
    named = tracer.named
    layer_of = {t.jid: t.job.layer for t in targets}
    m = {}

    m["groups.parse_s"] = seconds(named("groups.load_cayley_file")) - validate_s
    m["groups.validate_s"] = validate_s
    m["groups.element_orders_s"] = seconds(named("probe.groups.element_orders"))
    for det in DETECTORS:
        m[f"structure.{det}_s"] = seconds(named(f"probe.structure.{det}"))
    m["cubegen.greedy_s"] = seconds(named("probe.cubegen.greedy"))
    m["cubegen.k"] = sum(s["counts"]["k"] for s in named("probe.cubegen.greedy"))
    m["blockrep.fill_s"] = seconds(named("probe.blockrep.fill"))

    def query(layer, op, scale, per=None):
        meds = _per_job(named(f"{layer}.{op}"), scale, per)
        return geomean(v for j, v in meds.items() if layer_of.get(j) == layer)

    for layer in QUERY_LAYERS + FM_LAYERS:
        if layer != "blockrep":
            m[f"{layer}.fit_s"] = seconds(named(f"{layer}.fit"))
        if layer in FM_LAYERS:
            m[f"{layer}.label_multiply_us"] = query(layer, "label_multiply", 1e3, "calls")
        else:
            m[f"{layer}.multiply_us"] = query(layer, "multiply", 1e3, "calls")
        m[f"{layer}.predict_ns_per_pair"] = query(layer, "predict", 1, "pairs")
        m[f"{layer}.predict64_us"] = query(layer, "predict64", 1e3, "calls")
    m["blockrep.store_bytes"] = sum(r["store_bytes"] for r in records
                                    if r["kind"] == "block")
    m["special.simple.diameter"] = sum(r.get("diameter") or 0 for r in records
                                       if r["kind"] == "simple")

    m["serialize.encode_s"] = seconds(named("serialize.to_bytes"))
    m["serialize.decode_s"] = sum(_per_job(
        named("serialize.from_bytes"), 1e9).values())
    m["serialize.artifact_bytes"] = sum(r["artifact_bytes"] for r in records)

    verify = [s for s in tracer.spans if s["name"].startswith("verify.")]
    m["verify.pairs_per_s"] = geomean(
        1 / v for v in _per_job(verify, 1e9, per="pairs").values())

    m["audit.slots"] = sum(r["ledger"]["slots"] for r in records)
    audited = named("audit.probe_counted_multiply")
    for f in PROBE_FAMILIES:
        m[f"audit.probes.{f}"] = sum(s["counts"][f] for s in audited)
    m["cli.query_ms"] = geomean(_per_job(named("cli.main"), 1e6).values())
    return m


def write_records(path, wl, seed: int, records, tally) -> None:
    doc = {"workload": wl.name, "seed": seed, "jobs": len(wl.jobs),
           "attempted": tally.attempted, "failed": tally.failed,
           "errors": tally.errors, "records": records}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=_plain)


def _plain(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)
