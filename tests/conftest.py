"""Session-wide caches so corpus groups and representations build once."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import gtool as gt
from gtool.blockrep import BlockRep
from gtool.corpus import CORPUS_BY_NAME, STANDARD_CORPUS, applicable_kinds
from gtool.cubegen import greedy_cube_sequence
from gtool.fm import AbelianFM, HamiltonianFM, SemidirectFM, ZGroupFM
from gtool.special import CompositeRep, CyclicRep, SimpleRep


# nonabelian simple groups past A5 and PSL(2,7), kept out of STANDARD_CORPUS
# so that the perfbench job lists drawn from it do not change
LARGE_SIMPLE = {
    "A6": lambda: gt.make_alternating(6),                # n = 360
    "PSL(2,11)": lambda: gt.make_psl2(11),               # n = 660
    "PSL(2,13)": lambda: gt.make_psl2(13),               # n = 1092
}


def build_table(name: str):
    """The table of a corpus or ``LARGE_SIMPLE`` group, built afresh."""
    if name in LARGE_SIMPLE:
        return LARGE_SIMPLE[name]()
    return CORPUS_BY_NAME[name].build()


def build_rep(G, kind: str, **params):
    if kind == "block":
        cube = params.pop("cube", None)
        return BlockRep(**params).fit(G, cube=cube)
    if kind == "zgroup":
        return CompositeRep(mode="zgroup", **params).fit(G)
    cls = {
        "cyclic": CyclicRep,
        "composite": CompositeRep,
        "simple": SimpleRep,
        "fm-abelian": AbelianFM,
        "fm-hamiltonian": HamiltonianFM,
        "fm-zgroup": ZGroupFM,
        "fm-semidirect": SemidirectFM,
    }[kind]
    return cls(**params).fit(G)


class CorpusCache:
    def __init__(self):
        self._tables = {}
        self._cubes = {}
        self._reps = {}

    @property
    def entries(self):
        return STANDARD_CORPUS

    def entry(self, name):
        return CORPUS_BY_NAME[name]

    def table(self, name):
        if name not in self._tables:
            self._tables[name] = build_table(name)
        return self._tables[name]

    def cube(self, name):
        if name not in self._cubes:
            self._cubes[name] = greedy_cube_sequence(self.table(name))
        return self._cubes[name]

    def rep(self, name, kind, **params):
        key = (name, kind, tuple(sorted(params.items())))
        if key not in self._reps:
            G = self.table(name)
            if kind == "block":
                cube, _ = self.cube(name)
                self._reps[key] = BlockRep(**params).fit(G, cube=cube)
            else:
                self._reps[key] = build_rep(G, kind, **params)
        return self._reps[key]

    def block_lengths(self, name) -> list[int]:
        """The acceptance sweep lengths {1, 2, ceil(k/2), k}, clamped."""
        cube, _ = self.cube(name)
        k = max(cube.k, 1)
        return sorted({min(max(v, 1), k)
                       for v in (1, 2, -(-cube.k // 2), cube.k)})


_CACHE = CorpusCache()


@pytest.fixture(scope="session")
def corpus():
    return _CACHE


def table_backed_entries():
    return [e for e in STANDARD_CORPUS if not e.virtual]


def small_entries(max_n: int = 512):
    out = []
    for e in table_backed_entries():
        n = _entry_order(e)
        if n is not None and n <= max_n:
            out.append(e)
    return out


def _entry_order(e):
    if e.family == "cyclic":
        return e.params["n"]
    if e.family == "dihedral":
        return 2 * e.params["m"]
    if e.family == "abelian":
        out = 1
        for d in e.params["orders"]:
            out *= d
        return out
    if e.family == "quaternion":
        return 8
    if e.family == "direct":
        sizes = {"q8": 8}
        out = 1
        for p in e.params["parts"]:
            out *= sizes.get(p, int(p[1:]) if p[0] == "c" else None)
        return out
    if e.family == "semidirect":
        return e.params["m"] * e.params["d"]
    if e.family == "symmetric":
        import math
        return math.factorial(e.params["k"])
    if e.family == "alternating":
        import math
        return math.factorial(e.params["k"]) // 2
    if e.family == "file":
        return 168 if "psl2_7" in e.params["path"] else None
    return None
