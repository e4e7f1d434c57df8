"""Command-line interface.

Exit codes: 0 success (and applied updates), 1 parse, validation or usage
errors, 2 the chosen semantics rejected the update (database unchanged),
3 precondition or resource-limit violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .model import (Database, DeltaSet, ParseError, PreconditionError,
                    ResourceLimitError, SchemaError, UpdateProgram,
                    ValidationError)
from .parse import parse_database, parse_delta, parse_program, render
from .stable import DEFAULT_ENUMERATION_CAP
from .update import CompareResult, RunReport, Semantics, _Session, compare, run

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


def _add_io_flags(parser: argparse.ArgumentParser, *, db: bool = True) -> None:
    parser.add_argument("-p", "--program", required=True, help="program file (.adl)")
    if db:
        parser.add_argument("-d", "--db", help="database file (.adb); empty if omitted")
    parser.add_argument("-u", "--delta", help="input update file (.adu); empty if omitted")


_ENCODE = json.encoder.encode_basestring_ascii   # the string encoder `json.dumps` uses

# A report's eight keys in `sort_keys` order, as its lines start them.
_REPORT_KEYS = tuple(f'"{key}": ' for key in ("family", "input", "model", "output", "policy",
                                              "seed", "semantics", "status"))


def _block(items, pad: str, brackets: str = "[]") -> str:
    """A list, or with `brackets` "{}" a dict, of item texts (none empty) as `json.dumps`
    writes it with `indent=2`: the items on lines that start with `pad` and two more spaces."""
    inner = pad + "  "
    body = ("," + inner).join(items)
    return brackets[0] + inner + body + pad + brackets[1] if body else brackets


def _database_json(database: Database, pad: str, written: dict) -> str:
    """`{"true": [...], "unknown": [...]}`, written once per database in `written`."""
    if (text := written.get(id(database))) is None:
        inner = pad + "  "
        text = written[id(database)] = _block(
            [key + _block(map(_ENCODE, facts), inner)
             for key, facts in zip(('"true": ', '"unknown": '), database.fact_texts)], pad, "{}")
    return text


def report_json(report: RunReport, pad: str = "\n", written: dict | None = None) -> str:
    """`json.dumps(report.to_json_dict(), indent=2, sort_keys=True)`, from the report's fixed keys.

    `pad` starts the report's own lines: a newline and two spaces per level of
    nesting.  `written` holds the text of each database and model (by id) and
    of each family's counts already written at this `pad`, and gains the ones
    written here; its caller keeps those objects alive while it keeps it.
    """
    written = {} if written is None else written
    inner = pad + "  "
    model, stats, seed = report.chosen_model, report.family_stats, report.seed
    if model is None:
        model_text = "null"
    elif (model_text := written.get(id(model))) is None:
        model_text = written[id(model)] = _ENCODE(model.render_key())
    if stats is None:
        family = "null"
    elif (family := written.get(counts := tuple(stats.items()))) is None:
        family = written[counts] = _block(
            [_ENCODE(name) + ": " + int.__repr__(count) for name, count in sorted(counts)],
            inner, "{}")
    return _block(map(str.__add__, _REPORT_KEYS, (
        family, _database_json(report.input_db, inner, written), model_text,
        _database_json(report.output_db, inner, written), _ENCODE(report.policy),
        "null" if seed is None else int.__repr__(seed), _ENCODE(report.semantics.value),
        _ENCODE(report.status))), pad, "{}")


# Every ordered pair of semantics with the text of its `info_leq` entry, in the order
# `compare --json` lists them (by the names of the lower, then the upper), nested as there.
_INFO_LEQ = sorted((((s1, s2), json.dumps({"lower": s1.value, "upper": s2.value}, indent=2,
                                           sort_keys=True).replace("\n", "\n    "))
                    for s1 in Semantics for s2 in Semantics),
                   key=lambda pair: (pair[0][0].value, pair[0][1].value))


def compare_json(result: CompareResult) -> str:
    """What `compare --json` prints, `json.dumps(doc, indent=2, sort_keys=True)`: `doc` holds
    `rows` (each row's `semantics`, `report` as `to_json_dict()` and `error`) and `info_leq`,
    the pairs of semantics whose outputs `info_matrix` relates.  `result` keeps every row's
    databases and models alive, so each is written once."""
    matrix = result.info_matrix()
    written: dict = {}
    rows = [_block(('"error": ' + ("null" if row.error is None else _ENCODE(row.error)),
                    '"report": ' + ("null" if row.report is None
                                    else report_json(row.report, "\n      ", written)),
                    '"semantics": ' + _ENCODE(row.semantics.value)), "\n    ", "{}")
            for row in result.rows]
    return _block(('"info_leq": ' + _block([text for pair, text in _INFO_LEQ if matrix.get(pair)],
                                           "\n  "),
                   '"rows": ' + _block(rows, "\n  ")), "\n", "{}")


def _load(args) -> tuple[UpdateProgram, Database]:
    with open(args.program, encoding="utf-8") as handle:
        program = parse_program(handle.read(), origin=args.program)
    delta = DeltaSet()
    if args.delta:
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
        print(report_json(report))
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
        print(compare_json(result))
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
    # Imported here: the suites and their generators are the largest module, and
    # no other command reads them.
    from . import selftest
    seed = selftest.DEFAULT_SEED if args.seed is None else args.seed
    results = selftest.run_all(seed,
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
    p.add_argument("--seed", type=int, default=None)    # None: selftest.DEFAULT_SEED
    p.add_argument("--ordering-count", type=non_negative, default=200)
    p.add_argument("--oracle-count", type=non_negative, default=100)
    p.add_argument("--genericity-count", type=non_negative, default=50)
    p.set_defaults(handler=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for later ones."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
