"""Command-line interface.

Exit codes: 0 success (and applied updates), 1 parse, validation or usage
errors, 2 the chosen semantics rejected the update (database unchanged),
3 precondition or resource-limit violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .model import (Database, DeltaSet, ParseError, PreconditionError,
                    ResourceLimitError, SchemaError, UpdateProgram,
                    ValidationError)
from .parse import parse_database, parse_delta, parse_program, render
from .stable import DEFAULT_ENUMERATION_CAP
from .update import Semantics, _Session, compare, run
from . import selftest

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REJECTED = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, since exit code 2 means the update was rejected."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def non_negative(text: str) -> int:
    """A count that must not be negative: an enumeration cap or a suite size."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _add_io_flags(parser: argparse.ArgumentParser, *, db: bool = True,
                  delta: bool = True) -> None:
    parser.add_argument("-p", "--program", required=True, help="program file (.adl)")
    if db:
        parser.add_argument("-d", "--db", help="database file (.adb); empty if omitted")
    if delta:
        parser.add_argument("-u", "--delta", help="input update file (.adu); empty if omitted")


def _load(args) -> tuple[UpdateProgram, Database]:
    with open(args.program, encoding="utf-8") as handle:
        program = parse_program(handle.read(), origin=args.program)
    delta = DeltaSet()
    if getattr(args, "delta", None):
        with open(args.delta, encoding="utf-8") as handle:
            delta = parse_delta(handle.read(), origin=args.delta)
    database = Database()
    if getattr(args, "db", None):
        with open(args.db, encoding="utf-8") as handle:
            database = parse_database(handle.read(), origin=args.db)
    return UpdateProgram(delta, program), database


def cmd_rewrite(args) -> int:
    sys.stdout.write(render(_Session(*_load(args)).rewritten(args.mode)))
    return EXIT_OK


def cmd_ground(args) -> int:
    sys.stdout.write(render(_Session(*_load(args)).ground(args.mode)))
    return EXIT_OK


def cmd_wf(args) -> int:
    print(_Session(*_load(args)).wf(args.mode).render_key())
    return EXIT_OK


def cmd_models(args) -> int:
    family = _Session(*_load(args), cap=args.cap).family(args.mode)
    if args.json:
        doc = {"models": [{"literals": r.model.render_key(),
                           "flags": sorted(r.flags),
                           "undefined": r.undefined_count}
                          for r in family.records],
               "counts": family.counts()}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{len(family.records)} stable models")
    for number, record in enumerate(family.records, start=1):
        flags = " ".join(sorted(record.flags))
        suffix = f"  [{flags}]" if flags else ""
        print(f"M{number}: {record.model.render_key()}{suffix}")
    counts = family.counts()
    print("counts: " + " ".join(f"{k}={counts[k]}" for k in sorted(counts)))
    return EXIT_OK


def cmd_apply(args) -> int:
    up, database = _load(args)
    semantics = Semantics.parse(args.semantics)
    report = run(up, database, semantics, policy=args.choose, seed=args.seed, cap=args.cap)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(f"semantics: {report.semantics.value}")
        print(f"status: {report.status}")
        print("output:")
        sys.stdout.write(render(report.output_db))
    return EXIT_OK if report.applied else EXIT_REJECTED


def cmd_compare(args) -> int:
    up, database = _load(args)
    result = compare(up, database, cap=args.cap)
    if args.json:
        doc = {"rows": [{"semantics": row.semantics.value,
                         "report": row.report.to_json_dict() if row.report else None,
                         "error": row.error}
                        for row in result.rows],
               "info_leq": [{"lower": s1.value, "upper": s2.value}
                            for (s1, s2), holds in sorted(result.info_matrix().items(),
                                                          key=lambda kv: (kv[0][0].value,
                                                                          kv[0][1].value))
                            if holds]}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for row in result.rows:
        if row.report is None:
            print(f"{row.semantics.value:6s} error: {row.error}")
        else:
            out = render(row.report.output_db).replace("\n", " ").strip()
            print(f"{row.semantics.value:6s} {row.report.status:19s} {out}")
    matrix = result.info_matrix()
    ids = [row.semantics for row in result.rows if row.report is not None]
    if ids:
        print("info_leq matrix (y: row output below column output):")
        print("       " + " ".join(f"{s.value:>6s}" for s in ids))
        for s1 in ids:
            cells = " ".join(f"{'y' if matrix[(s1, s2)] else '.':>6s}" for s2 in ids)
            print(f"{s1.value:>6s} {cells}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selftest.run_all(args.seed,
                               ordering_count=args.ordering_count,
                               oracle_count=args.oracle_count,
                               genericity_count=args.genericity_count)
    failed = False
    for result in results:
        verdict = "ok" if result.ok else f"FAILED ({len(result.failures)})"
        print(f"{result.name}: {result.cases} checks, {verdict}")
        failed = failed or not result.ok
    for result in results:
        if result.failures:
            print("\nfirst counterexample:")
            print(result.failures[0])
            break
    return EXIT_INPUT_ERROR if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adlog",
        description="Apply active-rule update programs to three-valued databases "
                    "under declarative semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewrite", help="print the standard rewriting of an update program")
    _add_io_flags(p, db=False)
    p.add_argument("--mode", choices=("st", "bm"), default="st")
    p.set_defaults(handler=cmd_rewrite)

    p = sub.add_parser("ground", help="print the ground instantiation")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("st", "bm"), default="st")
    p.set_defaults(handler=cmd_ground)

    p = sub.add_parser("wf", help="print the well-founded model of the rewritten program")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("st", "bm"), default="st")
    p.set_defaults(handler=cmd_wf)

    p = sub.add_parser("models", help="list the partial stable models with their classes")
    _add_io_flags(p)
    p.add_argument("--mode", choices=("st", "bm"), default="st")
    p.add_argument("--cap", type=non_negative, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_models)

    p = sub.add_parser("apply", help="apply the update program under one semantics")
    _add_io_flags(p)
    p.add_argument("--semantics", required=True,
                   help="ws, md, twfs, tmds, uts, ts, ms, mstt or ws-bm")
    p.add_argument("--choose", choices=("lex", "random"), default="lex")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=non_negative, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("compare", help="run every semantics and relate the outputs")
    _add_io_flags(p)
    p.add_argument("--cap", type=non_negative, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("selftest", help="run the fixture corpus and the property suites")
    p.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    p.add_argument("--ordering-count", type=non_negative, default=200)
    p.add_argument("--oracle-count", type=non_negative, default=100)
    p.add_argument("--genericity-count", type=non_negative, default=50)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ParseError, ValidationError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (PreconditionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    # Engine-internal errors (EngineError, ConsistencyError) propagate: they
    # are defects, not usage errors, and deserve a traceback.


if __name__ == "__main__":
    sys.exit(main())
