import pathlib

import pytest

from adlog import Database, DeltaSet, UpdateProgram, parse_database, parse_delta, parse_program

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "adlog" / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def rule_lists(table) -> tuple[list, list, list]:
    """Each rule's head, positive and negated body atoms, a kept prefix's rules first."""
    rules = [*(table.prefix._rules if table.prefix else ()), *table._rules]
    return ([r[0] for r in rules], [[a for a in r[1:] if a >= 0] for r in rules],
            [[~a for a in r[1:] if a < 0] for r in rules])


def load_update_program(name: str, *, db: bool = False, delta: bool = True):
    program = parse_program(fixture_text(f"{name}.adl"), origin=name)
    d = parse_delta(fixture_text(f"{name}.adu")) if delta else DeltaSet()
    database = parse_database(fixture_text(f"{name}.adb")) if db else Database()
    return UpdateProgram(d, program), database


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES
