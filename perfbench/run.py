"""Table-to-query benchmark for gtool.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 0

Runs one workload from the root of a gtool checkout, importing gtool from
its ``src`` directory.  Every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) is printed by name with its unit, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-job records (slot
ledgers, probe bounds, artifact sizes and SHA-256) and, when traced, the
spans are written under ``.perfbench/out`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["build-large", "serve", "corpus-verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured query window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_gtool() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other gtool."""
    if not (SRC / "gtool" / "__init__.py").is_file():
        raise SystemExit(f"no gtool sources under {SRC}: run from a gtool checkout")
    sys.path.insert(0, str(SRC))
    import gtool
    if Path(gtool.__file__).resolve().parent != SRC / "gtool":
        raise SystemExit(f"imported gtool from {gtool.__file__}, not {SRC}")


def report(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload in a scratch directory of the checkout; print its
    metrics and return the result object."""
    import layers
    import pipeline

    base = ROOT / ".perfbench"
    out = base / "out"
    work = base / f"work-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        res = pipeline.run(wl, seed, seconds, trace, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = res["tally"]
    metrics = res["metrics"]
    units = {k: (pipeline.E2E_UNITS[k] if not trace else layers.unit_of(k))
             for k in metrics}
    print(f"# {wl.name} seed={seed} jobs={res['jobs']} "
          f"structures={res['structures']} attempted={tally.attempted} "
          f"failed={tally.failed} trace={int(trace)}")
    for err in tally.errors:
        print(f"# failure: {err}")
    for name, value in metrics.items():
        shown_value = f"{value:>18d}" if isinstance(value, int) else f"{value:>18.6g}"
        print(f"{name:40s} {shown_value} {units[name]}")
    shown = {k: {"value": None if isinstance(v, float) and math.isnan(v) else v,
                 "unit": units[k]}
             for k, v in metrics.items() if k not in pipeline.UNBOUNDED}
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": shown}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_gtool()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    result = report(wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
