"""The report writer writes exactly what `json.dumps(doc, indent=2, sort_keys=True)` writes.

`report_json` and `compare_json` write `apply --json`'s and `compare --json`'s
documents from their fixed layouts.  Each is checked here against
`json.dumps` of the document that `to_json_dict()` builds, on every fixture
under every semantics and on seeded random programs: error rows, the
`random` policy with an integer seed, a null family, empty databases,
unknown facts, and constants that the encoder escapes.
"""

import json
import pathlib
import random

import pytest

from adlog import (Atom, Database, DeltaSet, Polarity, Semantics, UpdateAtom, UpdateProgram,
                   compare, parse_program, rename_constants, run)
from adlog.cli import compare_json, report_json
from adlog.model import PreconditionError, ResourceLimitError
from adlog.selftest import InstanceGenerator

from conftest import FIXTURES, load_update_program

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.adu"))

CHOICE = parse_program("""\
pick(X) :- cand(X), not skip(X).
skip(X) :- cand(X), not pick(X).
+chosen(X) :- pick(X), +req(X).
+covered(G) :- pick(X), member(X,G), +want(G).
""")

# Constants that render quoted or escape in JSON: a quote, a backslash, a space,
# an upper-case word, the empty symbol, a line break and non-ASCII text.
CONSTANTS = ("it's", "é", "a\\b", "Quoted Name", "X", "", "a\nb", "été", "c1")
ARITIES = {"cand": 1, "member": 2, "other": 1}   # the database predicates of CHOICE, and one more


def expected(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def compare_doc(result) -> dict:
    """`compare --json`'s document, built as data."""
    matrix = result.info_matrix()
    return {"rows": [{"semantics": row.semantics.value,
                      "report": row.report.to_json_dict() if row.report else None,
                      "error": row.error} for row in result.rows],
            "info_leq": [{"lower": s1.value, "upper": s2.value}
                         for s1, s2 in sorted(matrix, key=lambda p: (p[0].value, p[1].value))
                         if matrix[s1, s2]]}


def assert_written_as_dumps(up: UpdateProgram, db: Database, *, cap: int = 20,
                            policy: str = "lex", seed: int | None = None) -> list:
    """Checks `compare` and a run under each semantics; returns the compare rows and reports."""
    result = compare(up, db, cap=cap)
    assert compare_json(result) == expected(compare_doc(result))
    reports = []
    for semantics in Semantics:
        try:
            report = run(up, db, semantics, policy=policy, seed=seed, cap=cap)
        except (PreconditionError, ResourceLimitError):
            continue
        assert report_json(report) == expected(report.to_json_dict())
        reports.append(report)
    return [*result.rows, *reports]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("policy, seed", [("lex", None), ("random", 7)])
def test_every_fixture_under_every_semantics(name, policy, seed):
    up, db = load_update_program(name, db=(FIXTURES / f"{name}.adb").exists())
    assert_written_as_dumps(up, db, policy=policy, seed=seed)


def random_choice(rng: random.Random) -> tuple[UpdateProgram, Database]:
    """The choice program on random candidates, true and unknown facts and requests."""
    constants = rng.sample(CONSTANTS, rng.randint(1, 4))
    facts = {Atom(p, tuple(rng.choice(constants) for _ in range(ARITIES[p])))
             for p in rng.choices(sorted(ARITIES), k=rng.randint(0, 5))}
    unknown = {atom for atom in facts if rng.random() < 0.3}
    requests = {Atom(rng.choice(("req", "want")), (rng.choice(constants),)):
                rng.choice(list(Polarity)) for _ in range(rng.randint(0, 3))}
    delta = DeltaSet.of(UpdateAtom(polarity, atom) for atom, polarity in requests.items())
    return UpdateProgram(delta, CHOICE), Database.of(facts - unknown, unknown)


def random_instance(rng: random.Random) -> tuple[UpdateProgram, Database]:
    """A property-suite instance with its constants renamed to ones the encoder escapes."""
    session = InstanceGenerator(rng).instance()
    rho = dict(zip("abc", rng.sample(CONSTANTS, 3)))
    up = UpdateProgram(rename_constants(session.up.delta, rho),
                       rename_constants(session.up.program, rho))
    db = rename_constants(session.database, rho)
    if rng.random() < 0.3:   # some of its facts unknown
        unknown = {atom for atom in db.true_facts if rng.random() < 0.5}
        db = Database.of(db.true_facts - unknown, unknown)
    return up, db


@pytest.mark.parametrize("seed", range(40))
def test_seeded_random_results(seed):
    rng = random.Random(f"json:{seed}")
    up, db = (random_choice if seed % 2 else random_instance)(rng)
    assert_written_as_dumps(up, db, cap=rng.choice((0, 1, 3, 20)),
                            policy=rng.choice(("lex", "random")), seed=rng.randint(-5, 10 ** 6))


def test_error_rows_seeds_null_families_and_escaped_constants():
    """Each shape the random cases must reach, pinned: also an empty database."""
    quoted = Database.of({Atom("cand", ("it's",)), Atom("cand", ("é",)),
                          Atom("cand", ("a\\b",))})
    delta = DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("req", ("it's",)))])
    rows = assert_written_as_dumps(UpdateProgram(delta, CHOICE), quoted, cap=0)
    assert {row.semantics for row in rows[:9] if row.report is None} == {
        Semantics.MD, Semantics.TMDS, Semantics.UTS, Semantics.TS, Semantics.MS, Semantics.MSTT}
    reports = assert_written_as_dumps(UpdateProgram(delta, CHOICE), quoted,
                                      policy="random", seed=31)[9:]
    assert {r.seed for r in reports if r.policy == "random"} == {31}
    assert any(r.family_stats is None for r in reports)
    for report in reports:
        text = report_json(report)
        assert all(part in text for part in ("cand('it''s')", "cand(\\u00e9)", "cand('a\\\\b')"))
    empty = assert_written_as_dumps(UpdateProgram(DeltaSet(), CHOICE), Database())
    assert all(report.input_db == Database() for report in empty[9:])


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_golden_documents(path):
    """The golden files are `json.dumps` layouts, the reference the writer is checked against."""
    text = path.read_text()
    assert expected(json.loads(text)) + "\n" == text
