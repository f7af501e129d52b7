"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload in its tiny form, untraced and traced, and checks
that each metric ``BENCHMARK.json`` names is printed with its unit and
reported in the result object.  Then it adds a deliberately wrong
structure to a tiny workload and checks that the failures are counted,
and checks that the benchmark refuses to run without the gtool sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import run

run.import_gtool()

import gtool as gt  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class WrongCyclic(gt.CyclicRep):
    """Consistent-looking exponent maps that answer x*y*g^-1, not x*y."""

    def fit(self, group):
        super().fit(group)
        self.F_ = (self.F_ - 1) % self.n_
        self.B_ = np.roll(self.B_, -1)
        return self


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run_tiny(wl, trace: bool):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.report(wl, seed=7, seconds=0.3, trace=trace)
    printed = {}
    for line in buf.getvalue().splitlines():
        if line and not line.startswith("#"):
            name, value, unit = line.split()
            printed[name] = (float(value), unit)
    json.dumps(result, allow_nan=False)
    return printed, result


def check_metrics(wl, trace: bool) -> None:
    printed, result = run_tiny(wl, trace)
    where = f"{wl.name} trace={int(trace)}"
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        check(m["name"] in printed, f"{where}: {m['name']} not printed")
        check(printed[m["name"]][1] == m["unit"],
              f"{where}: {m['name']} printed in {printed[m['name']][1]}, not {m['unit']}")
        got = result["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float)),
              f"{where}: {m['name']} missing from the result or not a number")
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{where}: result metrics differ from BENCHMARK.json")
    if not trace:
        check(printed.get("fail_rate") == (0.0, "ratio"), f"{where}: fail_rate not 0")
        check(printed.get("multiply_us_p99", (0, ""))[1] == "us",
              f"{where}: multiply_us_p99 not printed in us")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{where}: {result['failed']} of {result['attempted']} operations failed")
    print(f"ok  {where}: {len(wanted)} metrics, {result['attempted']} operations")


def check_wrong_structure() -> None:
    wl = workloads.tiny("serve")
    wrong = workloads.Job("C8", "cyclic", factory=WrongCyclic)
    wl = dataclasses.replace(wl, jobs=[*wl.jobs, wrong])
    printed, result = run_tiny(wl, trace=False)
    check(printed["fail_rate"][0] > 0, "a wrong structure left fail_rate at 0")
    check(not result["correct"] and result["failed"] > 0,
          "a wrong structure was reported correct")
    print(f"ok  wrong structure: fail_rate={printed['fail_rate'][0]:.4g}")


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark ran without the gtool sources")
    print(f"ok  refuses without sources: exit {proc.returncode}")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            check_metrics(workloads.tiny(name), trace)
    check_wrong_structure()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
