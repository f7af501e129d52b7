"""Workload definitions: the tables each workload generates and the jobs it builds.

A job is one (group, kind, params) build, run exactly as ``gtool build``
would run it: table file -> ``load_cayley_file`` -> ``fit`` -> ``to_bytes``.
Kinds use the CLI names, and each kind is constructed with the CLI's
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

import gtool as gt
from gtool.corpus import STANDARD_CORPUS, applicable_kinds, make_metacyclic

# layer (module) each kind's query and fit numbers are reported under
LAYER = {
    "block": "blockrep",
    "cyclic": "special.cyclic",
    "composite": "special.composite",
    "zgroup": "special.composite",
    "simple": "special.simple",
    "fm-abelian": "fm.abelian",
    "fm-hamiltonian": "fm.hamiltonian",
    "fm-zgroup": "fm.zgroup",
    "fm-semidirect": "fm.semidirect",
}

# structure detector each kind's fit depends on (stage probes time these)
DETECTOR = {
    "composite": "semidirect_decomposition",
    "fm-semidirect": "semidirect_decomposition",
    "zgroup": "zgroup_decomposition",
    "fm-zgroup": "zgroup_decomposition",
    "fm-abelian": "abelian_basis",
    "fm-hamiltonian": "hamiltonian_decomposition",
    "simple": "is_simple",
}


def make_rep(kind: str, delta: str | None = None, l: int | None = None):
    """Unfitted estimator for a CLI kind, with the CLI's default parameters."""
    if kind == "block":
        return gt.BlockRep(l=l, delta=Fraction(delta) if delta else None)
    return {
        "cyclic": gt.CyclicRep,
        "zgroup": lambda: gt.CompositeRep(mode="zgroup"),
        "composite": gt.CompositeRep,
        "simple": gt.SimpleRep,
        "fm-abelian": gt.AbelianFM,
        "fm-hamiltonian": gt.HamiltonianFM,
        "fm-zgroup": gt.ZGroupFM,
        "fm-semidirect": gt.SemidirectFM,
    }[kind]()


@dataclass(frozen=True)
class Job:
    table: str
    kind: str
    params: dict = field(default_factory=dict)
    # builds the unfitted estimator; replaced only to inject a fake structure
    factory: Callable | None = None

    def make(self):
        return self.factory() if self.factory else make_rep(self.kind, **self.params)

    @property
    def layer(self) -> str:
        return LAYER[self.kind]

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.table}/{self.kind}" + (f"[{extra}]" if extra else "")


@dataclass(frozen=True)
class Workload:
    name: str
    tables: dict           # table name -> () -> (GroupTable, table file text)
    jobs: list
    setup_repeats: int     # build passes per run; setup_s is their median
    verify: str            # "exhaustive" or "random"


def _text_of(make: Callable[[], gt.GroupTable]) -> Callable:
    """A constructed group and its table text in the ``GroupTable.dumps``
    format, joined row by row (``dumps`` takes twice as long at n=4096)."""
    def generate():
        G = make()
        ids = [str(i) for i in range(G.n + 1)]
        rows = (" ".join([ids[v] for v in row]) for row in G.table.tolist())
        return G, "\n".join([str(G.n), *rows]) + "\n"
    return generate


def _shipped(name: str) -> Callable:
    """A table file shipped with gtool, copied verbatim."""
    def generate():
        text = resources.files("gtool").joinpath("data", name).read_text()
        return gt.load_cayley_table(text), text
    return generate


TABLES = {
    "C4096": _text_of(lambda: gt.make_cyclic(4096)),
    "C1024": _text_of(lambda: gt.make_cyclic(1024)),
    "D500": _text_of(lambda: gt.make_dihedral(500)),
    "C127:C7": _text_of(lambda: make_metacyclic(127, 7, 2)),
    "Q8xC15": _text_of(lambda: gt.make_direct(gt.make_quaternion(),
                                              gt.make_cyclic(15))),
    "S5": _text_of(lambda: gt.make_symmetric(5)),
    "A5": _text_of(lambda: gt.make_alternating(5)),
    "PSL(2,7)": _shipped("psl2_7.table"),
}


def _block(table: str, delta: str) -> Job:
    return Job(table, "block", {"delta": delta})


def build_large() -> Workload:
    jobs = [
        _block("C4096", "1"), Job("C4096", "cyclic"),
        _block("C1024", "1/10"), Job("C1024", "fm-abelian"),
        _block("D500", "1/2"), Job("D500", "composite"),
        Job("D500", "fm-semidirect"),
        _block("C127:C7", "1"), Job("C127:C7", "zgroup"),
        Job("C127:C7", "fm-zgroup"), Job("C127:C7", "fm-semidirect"),
        _block("Q8xC15", "1/2"), Job("Q8xC15", "fm-hamiltonian"),
        _block("S5", "1/6"), _block("S5", "1"),      # 1/6 = 1/floor(log2 120)
        Job("A5", "simple"),
        _block("PSL(2,7)", "1/2"), Job("PSL(2,7)", "simple"),
    ]
    return Workload("build-large", _tables_of(jobs), jobs,
                    setup_repeats=1, verify="random")


def serve() -> Workload:
    jobs = [
        _block("D500", "1/9"), _block("D500", "1/2"), _block("D500", "1"),
        Job("C1024", "cyclic"), Job("C1024", "fm-abelian"),
        Job("C127:C7", "composite"), Job("C127:C7", "fm-zgroup"),
        Job("C127:C7", "fm-semidirect"),
        Job("Q8xC15", "fm-hamiltonian"),
        Job("A5", "simple"),
    ]
    return Workload("serve", _tables_of(jobs), jobs,
                    setup_repeats=5, verify="random")


def corpus_verify() -> Workload:
    tables, jobs = {}, []
    for entry in STANDARD_CORPUS:
        if entry.virtual:
            continue
        tables[entry.name] = (_shipped(entry.params["path"])
                              if entry.family == "file"
                              else _text_of(entry.build))
        for kind in applicable_kinds(entry):
            if kind != "block":
                jobs.append(Job(entry.name, kind))
            elif entry.build().n < 4:
                jobs.append(Job(entry.name, "block", {"l": 1}))
            else:
                jobs.append(_block(entry.name, "1/2"))
    return Workload("corpus-verify", tables, jobs,
                    setup_repeats=1, verify="exhaustive")


def tiny(name: str) -> Workload:
    """A few-second version of a workload that still builds every kind."""
    tables = {
        "C8": _text_of(lambda: gt.make_cyclic(8)),
        "C3": _text_of(lambda: gt.make_cyclic(3)),
        "S3": _text_of(lambda: gt.make_symmetric(3)),
        "Q8xC3": _text_of(lambda: gt.make_direct(gt.make_quaternion(),
                                                 gt.make_cyclic(3))),
        "A5": TABLES["A5"],
    }
    jobs = [
        _block("C8", "1/2"), Job("C8", "cyclic"), Job("C8", "fm-abelian"),
        Job("C3", "block", {"l": 1}),
        Job("S3", "composite"), Job("S3", "zgroup"), Job("S3", "fm-zgroup"),
        Job("S3", "fm-semidirect"),
        Job("Q8xC3", "fm-hamiltonian"),
        Job("A5", "simple"),
    ]
    base = WORKLOADS[name]()
    return Workload(f"{name}-tiny", tables, jobs,
                    setup_repeats=min(base.setup_repeats, 2),
                    verify=base.verify)


def _tables_of(jobs) -> dict:
    return {j.table: TABLES[j.table] for j in jobs}


WORKLOADS = {
    "build-large": build_large,
    "serve": serve,
    "corpus-verify": corpus_verify,
}
