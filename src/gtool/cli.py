"""gtool: generate groups, build representations, query, verify, benchmark.

Exit codes: 0 success, 1 usage error, 2 precondition failure (including
malformed inputs), 3 verification mismatch, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .audit import SpaceReport, measure, probe_counted_multiply
from .base import GtoolError, ParseError, PreconditionError, ValidationError
from .blockrep import BlockRep, parse_delta, tradeoff_table
from .corpus import build_family
from .fm import AbelianFM, HamiltonianFM, SemidirectFM, ZGroupFM, _FMBase
from .groups import GroupTable, load_cayley_file
from .special import CompositeRep, CyclicRep, SimpleRep
from .structure import is_simple, is_z_group
from .verify import MAX_SEED, verify_exhaustive, verify_random

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="gtool", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a Cayley-table file")
    g.add_argument("family", choices=[*_FAMILIES, "file"])
    g.add_argument("params", nargs="*", help="family parameters")
    g.add_argument("out", help="output table path")
    g.add_argument("--strict", action="store_true",
                   help="run the O(n^3) associativity check")

    b = sub.add_parser("build", help="build and serialize a representation")
    b.add_argument("table", help="Cayley-table file")
    b.add_argument("kind", choices=_REPS)
    b.add_argument("out", help="output artifact path")
    b.add_argument("--delta", help="exact rational p/q for the block length")
    b.add_argument("--l", type=int, help="block length directly")
    b.add_argument("--table-max", type=int, default=64,
                   help="largest stored automorphism-image table for fm-zgroup")
    b.add_argument("--max-slots", type=int, default=1 << 29)
    b.add_argument("--strict", action="store_true")

    q = sub.add_parser("query", help="answer one multiplication query")
    q.add_argument("rep", help="serialized representation")
    q.add_argument("x", type=int)
    q.add_argument("y", type=int)
    q.add_argument("--stats", action="store_true",
                   help="print the probe ledger")

    v = sub.add_parser("verify", help="check a representation against a table")
    v.add_argument("rep")
    v.add_argument("table")
    v.add_argument("--mode", default="exhaustive",
                   help="exhaustive or random:N")
    v.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("bench", help="space/probe sweep to CSV")
    e.add_argument("table")
    e.add_argument("out", help="output CSV path")
    e.add_argument("--deltas", default="1/8,1/4,1/2,1",
                   help="comma-separated rationals")
    return p


# each family ``gen`` builds, and its ``build_family`` parameters from the
# command's; a missing or non-integer one raises IndexError or ValueError
_FAMILIES = {
    "cyclic": lambda p: {"n": int(p[0])},
    "dihedral": lambda p: {"m": int(p[0])},
    "abelian": lambda p: {"orders": [int(v) for v in p]},
    "quaternion": lambda p: {},
    "direct": lambda p: {"parts": list(p)},
    "semidirect": lambda p: dict(zip("mda", map(int, p[:3]), strict=True)),
    "symmetric": lambda p: {"k": int(p[0])},
    "alternating": lambda p: {"k": int(p[0])},
}


def _gen_group(family: str, params: list[str]) -> GroupTable:
    try:
        if family == "file":
            return load_cayley_file(params[0])
        return build_family(family, _FAMILIES[family](params))
    except GtoolError:
        raise
    except (IndexError, ValueError) as exc:
        raise UsageError(f"bad parameters for family {family}: {exc}") from exc


def _block_rep(args) -> BlockRep:
    if args.l is None and args.delta is None:
        raise UsageError("block builds need --delta or --l")
    delta = parse_delta(args.delta) if args.delta is not None else None
    return BlockRep(l=args.l, delta=delta, max_slots=args.max_slots)


# each kind the parser accepts, and its estimator from the build options
_REPS = {
    "block": _block_rep,
    "cyclic": lambda args: CyclicRep(),
    "zgroup": lambda args: CompositeRep(mode="zgroup"),
    "simple": lambda args: SimpleRep(),
    "composite": lambda args: CompositeRep(),
    "fm-abelian": lambda args: AbelianFM(),
    "fm-hamiltonian": lambda args: HamiltonianFM(),
    "fm-zgroup": lambda args: ZGroupFM(table_max=args.table_max),
    "fm-semidirect": lambda args: SemidirectFM(),
}


def _cmd_gen(args) -> int:
    G = _gen_group(args.family, args.params)
    if args.strict:
        G.check_associativity()
    G.dump(args.out)
    print(f"wrote {args.out}: order {G.n}, identity {G.identity}")
    return 0


def _cmd_build(args) -> int:
    G = load_cayley_file(args.table, strict=args.strict)
    rep = _REPS[args.kind](args).fit(G)
    serialize.save(rep, args.out)
    report = measure(rep)
    print(SpaceReport.CSV_HEADER)
    print(report.csv_row())
    return 0


def _cmd_query(args) -> int:
    rep = serialize.load(args.rep)
    result, ledger = probe_counted_multiply(rep, args.x, args.y)
    if isinstance(rep, _FMBase):
        label = rep.labeler_.label(result)
        print(f"{result} label: {','.join(str(v) for v in label)}")
    else:
        print(result)
    if args.stats:
        used = sorted((k, v) for k, v in ledger.counts.items() if v)
        print("probes:", ledger.total(), *(f"{k}={v}" for k, v in used))
    return 0


def _cmd_verify(args) -> int:
    rep = serialize.load(args.rep)
    G = load_cayley_file(args.table)
    if getattr(rep, "n_", None) != G.n:
        raise PreconditionError(
            f"representation order {getattr(rep, 'n_', '?')} does not match "
            f"table order {G.n}")
    if args.mode == "exhaustive":
        bad = verify_exhaustive(rep, G)
    elif args.mode.startswith("random:"):
        count = args.mode.split(":", 1)[1]
        if not (count.isascii() and count.isdigit()):
            raise UsageError(f"random:N needs a count N >= 0, got {args.mode}")
        if not 0 <= args.seed <= MAX_SEED:
            raise UsageError(f"--seed must be in [0, {MAX_SEED}], "
                             f"got {args.seed}")
        bad = verify_random(rep, G, int(count), seed=args.seed)
    else:
        raise UsageError(f"unknown mode {args.mode}")
    if bad is None:
        print(f"pass: {args.mode}")
        return 0
    x, y, got, want = bad
    print(f"fail: ({x}, {y}) -> got {got}, want {want}")
    return 3


def _cmd_bench(args) -> int:
    G = load_cayley_file(args.table)
    deltas = [parse_delta(tok) for tok in args.deltas.split(",") if tok]
    lines = ["delta,l,m,slots,probes"]
    for row in tradeoff_table(G, deltas):
        if row.error:
            lines.append(f"{row.delta},,,,error: {row.error}")
            continue
        lines.append(f"{row.delta},{row.l},{row.m},{row.slots},{row.probes}")
    extras = []
    if (G.element_orders() == G.n).any():
        extras.append(("cyclic", CyclicRep()))
    if is_z_group(G):
        extras.append(("zgroup", CompositeRep(mode="zgroup")))
    if is_simple(G):
        extras.append(("simple", SimpleRep()))
    for name, rep in extras:
        rep.fit(G)
        lines.append(f"{name},,,{sum(rep.space_slots().values())},"
                     f"{rep.probe_bounds()[1]}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


_COMMANDS = {"gen": _cmd_gen, "build": _cmd_build, "query": _cmd_query,
             "verify": _cmd_verify, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, PreconditionError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except GtoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
