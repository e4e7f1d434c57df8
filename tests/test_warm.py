"""A program reused across transactions answers as a program seen for the first time.

The parts of a rewriting that depend on the program alone are computed once
per `Program` and kept with it (warm); each result here must equal the one
from a fresh `Program` of the same rules (cold): the rewritten rules with
their origins, the ground rules and atoms in order, and `compare --json`.
"""

import pathlib
import random
import sys
import threading

import pytest

from adlog import (DeltaSet, Program, Semantics, UpdateProgram, compare, embed_database,
                   ground, parse_database, parse_delta, parse_program, render, rewrite_bm,
                   rewrite_st, run)
from adlog.cli import main
from adlog.model import Polarity, UpdateAtom
from adlog.rewrite import _Plan, _Static, _Trigger
from adlog.selftest import InstanceGenerator

from conftest import FIXTURES, fixture_text, rule_lists

UPDATE_FIXTURES = ("confirm_manager", "new_hire_mixed", "new_hire_roles", "new_hire_unique",
                   "new_hire_worker", "project_cascade", "promotion")


def cold(up: UpdateProgram) -> UpdateProgram:
    return UpdateProgram(up.delta, Program(up.program.rules))


def with_origins(rules) -> list:
    return [(rule, rule.origin) for rule in rules]


def assert_warm_is_cold(up: UpdateProgram, db) -> None:
    """Every rewriting and grounding of `up` equals the one of a fresh program.

    Every entry the program keeps (the rewritings, each `bm` insertable set's
    run, the shared phase 1) must equal what the fresh program computes, so a
    call that changes it in place is caught even where its output is not.
    """
    fresh_up = cold(up)
    for rewriting in (rewrite_st, rewrite_bm):
        warm = rewriting(up)
        fresh = rewriting(fresh_up)
        assert with_origins(warm.rules) == with_origins(fresh.rules)
        grounded = ground(embed_database(warm, db))
        # Prepared in one run, as a program with no kept parts grounds.
        single = ground(Program(embed_database(fresh, db).rules))
        assert with_origins(grounded.rules) == with_origins(single.rules)
        assert grounded.atoms == single.atoms
        assert rule_lists(grounded) == rule_lists(single)
    for key, entry in fresh_up.program.cache.items():
        assert kept_view(up.program.cache[key]) == kept_view(entry), key


def kept_view(value):
    """A kept entry as a value to compare: a plan's `emit` and a trigger's `join` are code
    made per run, and a run's `base` the one slot a call changes, so each is left out."""
    if isinstance(value, (_Plan, _Trigger, _Static)):
        return kept_view(value[:-1])
    if isinstance(value, dict):
        return {key: kept_view(entry) for key, entry in value.items()}
    if isinstance(value, tuple):
        return tuple([kept_view(entry) for entry in value])
    return value


def compare_json(capsys, program: str, db: str, delta: str, *cap: str) -> str:
    """`adlog compare --json` on the given files; `delta` may be None."""
    argv = ["compare", "--json", *cap, "-p", program, "-d", db]
    if delta is not None:
        argv += ["-u", delta]
    assert main(argv) == 0
    return capsys.readouterr().out


def flipped(delta: DeltaSet) -> DeltaSet:
    return DeltaSet.of(UpdateAtom(Polarity.DELETE if u.polarity is Polarity.INSERT
                                  else Polarity.INSERT, u.atom) for u in delta.updates)


@pytest.mark.parametrize("name", UPDATE_FIXTURES)
def test_fixture_with_its_delta_then_an_empty_one(name, tmp_path, capsys):
    has_db = (FIXTURES / f"{name}.adb").exists()
    db = parse_database(fixture_text(f"{name}.adb")) if has_db else parse_database("")
    program = parse_program(fixture_text(f"{name}.adl"), origin=name)
    for delta in (parse_delta(fixture_text(f"{name}.adu")), DeltaSet()):
        assert_warm_is_cold(UpdateProgram(delta, program), db)
    assert {"rewrite st", "rewrite bm"} <= set(program.cache)

    paths = {suffix: tmp_path / f"warm.{suffix}" for suffix in ("adl", "adb", "adu")}
    for suffix, path in paths.items():
        path.write_text(fixture_text(f"{name}.{suffix}") if suffix != "adb" or has_db else "")
    for k, delta in enumerate((str(paths["adu"]), None)):
        for cap in ((), ("--cap", "3")):
            warm = compare_json(capsys, str(paths["adl"]), str(paths["adb"]), delta, *cap)
            fresh = tmp_path / f"cold{k}{len(cap)}.adl"     # a new origin parses anew
            fresh.write_text(paths["adl"].read_text())
            assert warm == compare_json(capsys, str(fresh), str(paths["adb"]), delta, *cap)
    golden = pathlib.Path(__file__).resolve().parent / "golden" / f"compare_{name}.json"
    assert compare_json(capsys, str(paths["adl"]), str(paths["adb"]),
                        str(paths["adu"])) == golden.read_text()


def test_random_programs_under_two_deltas(tmp_path, capsys):
    gen = InstanceGenerator(random.Random(777))
    for i in range(300):
        up, db = gen._candidate()
        program = parse_program(render(up.program))
        second = flipped(up.delta) if up.delta.updates else \
            DeltaSet.of(UpdateAtom(Polarity.DELETE, atom) for atom in sorted(db.true_facts)[:1])
        files = {suffix: tmp_path / f"{i}.{suffix}" for suffix in ("adl", "adb")}
        files["adl"].write_text(render(program))
        files["adb"].write_text(render(db))
        for k, delta in enumerate((up.delta, second)):
            assert_warm_is_cold(UpdateProgram(delta, program), db)
            delta_file = tmp_path / f"{i}-{k}.adu"
            delta_file.write_text(render(delta))
            for cap in ((), ("--cap", "3")):
                warm = compare_json(capsys, str(files["adl"]), str(files["adb"]),
                                    str(delta_file), *cap)
                fresh = tmp_path / f"{i}-{k}-{len(cap)}-cold.adl"
                fresh.write_text(files["adl"].read_text())
                assert warm == compare_json(capsys, str(fresh), str(files["adb"]),
                                            str(delta_file), *cap)


CHAIN = "".join([f"a(n{i}) :- not a(n{i + 1}).\n" for i in range(12)]
                + [f"+out(n{i}) :- a(n{i}), +ev(n{i}).\n" for i in range(13)])


def outcome(up: UpdateProgram, db) -> tuple:
    rows = compare(up, db)
    return (run(up, db, Semantics.WS).to_json_dict(),
            [row.report.to_json_dict() if row.report else row.error for row in rows.rows],
            sorted((s1.value, s2.value) for (s1, s2), holds in rows.info_matrix().items()
                   if holds))


def test_threads_sharing_one_program():
    # A text no other test parses, so that the threads also race to fill the kept parts.
    program = parse_program("% shared by four threads\n" + CHAIN)
    db = parse_database("out(n3).")
    deltas = [[parse_delta("".join(f"+ev(n{i}).\n" for i in range(t, 13, 4)) + extra)
               for extra in ("", "-out(n3).\n", "+out(n5).\n")] for t in range(4)]
    expected = [[outcome(cold(UpdateProgram(delta, program)), db) for delta in mine]
                for mine in deltas]
    assert not program.cache.get("rewrite st")
    results: list = [None] * 4
    start = threading.Barrier(4)

    def work(t: int) -> None:
        start.wait()
        results[t] = [outcome(UpdateProgram(delta, program), db)
                      for _ in range(3) for delta in deltas[t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [mine * 3 for mine in expected]
