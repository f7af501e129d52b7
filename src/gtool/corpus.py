"""The standard corpus: named groups with their expected structure flags.

Each entry records how to build the group's table and which
representations apply to it.  The PSL(2,7) table ships as a data file and
is loaded, not regenerated, at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .base import ValidationError, check_integer
from .groups import (GroupTable, SemidirectSpec, load_cayley_table,
                     make_abelian, make_alternating, make_cyclic,
                     make_dihedral, make_direct, make_quaternion,
                     make_semidirect, make_symmetric)

import numpy as np


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus group: construction recipe plus expected properties."""

    name: str
    family: str
    params: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    virtual = False     # every entry has a table; perfbench reads the flag

    def build(self) -> GroupTable:
        return build_family(self.family, self.params)


def _part(spec: str) -> GroupTable:
    if spec == "q8":
        return make_quaternion()
    if spec.startswith("c"):
        return make_cyclic(int(spec[1:]))
    if spec.startswith("d"):
        return make_dihedral(int(spec[1:]))
    if spec.startswith("s"):
        return make_symmetric(int(spec[1:]))
    if spec.startswith("a"):
        return make_alternating(int(spec[1:]))
    raise ValidationError(f"unknown direct-product part {spec!r}")


def make_metacyclic(m: int, d: int, multiplier: int) -> GroupTable:
    """C_m x| C_d where the complement generator acts as x -> multiplier*x."""
    m, d, multiplier = map(check_integer, (m, d, multiplier),
                           ("order m", "order d", "multiplier"))
    if pow(multiplier, d, m) != 1 % m:
        raise ValidationError(
            f"multiplier {multiplier} does not define an order-{d} action mod {m}")
    A = make_cyclic(m)
    B = make_cyclic(d)
    action = np.array([[(i * pow(multiplier, j, m)) % m + 1
                        for i in range(m)] for j in range(d)], dtype=np.int64)
    return make_semidirect(SemidirectSpec(A, B, action))


def build_family(family: str, params: dict) -> GroupTable:
    if family == "cyclic":
        return make_cyclic(params["n"])
    if family == "dihedral":
        return make_dihedral(params["m"])
    if family == "abelian":
        return make_abelian(params["orders"])
    if family == "quaternion":
        return make_quaternion()
    if family == "direct":
        parts = [_part(p) for p in params["parts"]]
        G = parts[0]
        for P in parts[1:]:
            G = make_direct(G, P)
        return G
    if family == "semidirect":
        return make_metacyclic(params["m"], params["d"], params["a"])
    if family == "symmetric":
        return make_symmetric(params["k"])
    if family == "alternating":
        return make_alternating(params["k"])
    if family == "file":
        text = resources.files("gtool").joinpath(
            "data", params["path"]).read_text()
        return load_cayley_table(text)
    raise ValidationError(f"unknown family {family!r}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def _flags(*, abelian: bool, cyclic: bool, z_group: bool, hamiltonian: bool,
           simple: bool, semidirect: bool) -> dict:
    return {"abelian": abelian, "cyclic": cyclic, "z_group": z_group,
            "hamiltonian": hamiltonian, "simple": simple,
            "semidirect": semidirect}


def _cyclic_entry(n: int) -> CorpusEntry:
    return CorpusEntry(
        name=f"C{n}", family="cyclic", params={"n": n},
        flags=_flags(abelian=True, cyclic=True, z_group=True,
                     hamiltonian=False, simple=_is_prime(n), semidirect=True))


def _dihedral_entry(m: int) -> CorpusEntry:
    # order 2m; the Sylow 2-subgroup is cyclic exactly when m is odd
    return CorpusEntry(
        name=f"D{m}", family="dihedral", params={"m": m},
        flags=_flags(abelian=m <= 2, cyclic=m == 1, z_group=m % 2 == 1,
                     hamiltonian=False, simple=False, semidirect=True))


def standard_corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for n in list(range(1, 65)) + [100, 256, 360, 1024]:
        entries.append(_cyclic_entry(n))
    for m in range(2, 17):
        entries.append(_dihedral_entry(m))
    entries.append(CorpusEntry(
        name="Q8", family="quaternion",
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=True, simple=False, semidirect=False)))
    entries.append(CorpusEntry(
        name="Q8xC3", family="direct", params={"parts": ["q8", "c3"]},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=True, simple=False, semidirect=False)))
    entries.append(CorpusEntry(
        name="Q8xC2xC5", family="direct",
        params={"parts": ["q8", "c2", "c5"]},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=True, simple=False, semidirect=False)))
    for k in range(2, 7):
        entries.append(CorpusEntry(
            name=f"C2^{k}", family="abelian", params={"orders": [2] * k},
            flags=_flags(abelian=True, cyclic=False, z_group=False,
                         hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="C2xC4xC9", family="abelian", params={"orders": [2, 4, 9]},
        flags=_flags(abelian=True, cyclic=False, z_group=False,
                     hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="S3", family="symmetric", params={"k": 3},
        flags=_flags(abelian=False, cyclic=False, z_group=True,
                     hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="S4", family="symmetric", params={"k": 4},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=False, simple=False, semidirect=False)))
    entries.append(CorpusEntry(
        name="A4", family="alternating", params={"k": 4},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="A5", family="alternating", params={"k": 5},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=False, simple=True, semidirect=False)))
    entries.append(CorpusEntry(
        name="C7:C3", family="semidirect", params={"m": 7, "d": 3, "a": 2},
        flags=_flags(abelian=False, cyclic=False, z_group=True,
                     hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="C5:C4", family="semidirect", params={"m": 5, "d": 4, "a": 2},
        flags=_flags(abelian=False, cyclic=False, z_group=True,
                     hamiltonian=False, simple=False, semidirect=True)))
    entries.append(CorpusEntry(
        name="PSL(2,7)", family="file", params={"path": "psl2_7.table"},
        flags=_flags(abelian=False, cyclic=False, z_group=False,
                     hamiltonian=False, simple=True, semidirect=False)))
    return entries


STANDARD_CORPUS = standard_corpus()
CORPUS_BY_NAME = {e.name: e for e in STANDARD_CORPUS}


def applicable_kinds(entry: CorpusEntry) -> list[str]:
    """Representation kinds whose preconditions this entry satisfies."""
    kinds = ["block"]
    if entry.flags["cyclic"]:
        kinds.append("cyclic")
    if entry.flags["semidirect"]:
        kinds.append("composite")
    if entry.flags["z_group"]:
        kinds.append("zgroup")
    if entry.flags["simple"]:
        kinds.append("simple")
    if entry.flags["abelian"]:
        kinds.append("fm-abelian")
    if entry.flags["hamiltonian"]:
        kinds.append("fm-hamiltonian")
    if entry.flags["z_group"]:
        kinds.append("fm-zgroup")
    if entry.flags["semidirect"]:
        kinds.append("fm-semidirect")
    return kinds
