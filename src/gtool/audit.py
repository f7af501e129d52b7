"""Uniform word/slot accounting and per-query probe counting.

Space is counted in slots: stored integers, each conceptually one
machine word of ceil(log2(n+1)) bits.  Structures physically hold 8- to
64-bit cells; reports carry the conceptual width.
Probes are array reads grouped by family so each structure's query
contract is directly assertable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PROBE_FAMILIES = ("word_index", "mult_array", "forward", "backward",
                  "action", "table")


@dataclass
class ProbeLedger:
    """Per-query array-read counters, one bucket per array family."""

    counts: dict[str, int] = field(
        default_factory=lambda: {f: 0 for f in PROBE_FAMILIES})

    def count(self, family: str, k: int = 1) -> None:
        self.counts[family] += k

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, family: str) -> int:
        return self.counts[family]


@dataclass(frozen=True)
class SpaceReport:
    """Exact slot ledger of one representation.

    ``bits_per_slot`` is the conceptual word width ceil(log2(n+1)).
    ``ratio`` compares against the n^2-slot baseline of the raw table.
    """

    rep_type: str
    n: int
    params: str
    slots: int
    by_array: dict[str, int]
    bits_per_slot: int
    probes_min: int
    probes_max: int

    @property
    def baseline_cayley_slots(self) -> int:
        return self.n * self.n

    @property
    def ratio(self) -> float:
        return self.slots / self.baseline_cayley_slots

    CSV_HEADER = ("rep_type,n,params,slots,bits_per_slot,ratio,"
                  "probes_min,probes_max")

    def csv_row(self) -> str:
        return (f"{self.rep_type},{self.n},{self.params},{self.slots},"
                f"{self.bits_per_slot},{self.ratio:.6g},"
                f"{self.probes_min},{self.probes_max}")


def word_bits(n: int) -> int:
    """Conceptual word width: enough bits for any id in [1, n]."""
    return max(int(n).bit_length(), 1)


def _params_string(rep) -> str:
    get = getattr(rep, "get_params", None)
    if get is None:
        return ""
    items = [(k, v) for k, v in sorted(get().items()) if v is not None]
    return ";".join(f"{k}={v}" for k, v in items)


def measure(rep) -> SpaceReport:
    """Exact slot ledger for any fitted representation (or a raw table)."""
    by_array = dict(rep.space_slots())
    n = getattr(rep, "n_", None) or rep.n
    pmin, pmax = rep.probe_bounds()
    return SpaceReport(
        rep_type=rep.rep_kind, n=int(n), params=_params_string(rep),
        slots=sum(by_array.values()), by_array=by_array,
        bits_per_slot=word_bits(int(n)),
        probes_min=int(pmin), probes_max=int(pmax))


def probe_counted_multiply(rep, x: int, y: int) -> tuple[int, ProbeLedger]:
    """Run one query, then count its reads in a fresh ledger.

    The query is ``rep.multiply(x, y)`` itself, ids checked as it checks
    them; ``rep._count`` counts the reads that its kind states once.
    """
    result = rep.multiply(x, y)
    ledger = ProbeLedger()
    rep._count(ledger, y)
    return result, ledger
