"""Acceptance criteria, one test per criterion.

Each test prints a PASS line (visible with `pytest -s`) so the suite doubles
as a checklist.  All assertions are exact; there are no tolerances to tune.
"""

import time

from adlog import (Atom, GroundProgram, Semantics,
                   enumerate_pstable, info_leq, parse_program, run)
from adlog.selftest import (suite_genericity, suite_oracle, suite_ordering,
                            suite_roundtrip)
from adlog.stable import (FLAG_L_STABLE, FLAG_M_STABLE,
                          FLAG_MAX_DETERMINISTIC, FLAG_T_STABLE,
                          FLAG_WELL_FOUNDED)

from conftest import fixture_text, load_update_program


def atom(text: str) -> Atom:
    name, _, args = text.partition("(")
    if not args:
        return Atom(name)
    return Atom(name, tuple(args.rstrip(")").split(",")))


def family_of(name: str):
    program = parse_program(fixture_text(f"{name}.adl"))
    # Taken as written, like the selftest fixture corpus: grounding would drop
    # atoms the pinned families mention.
    return enumerate_pstable(GroundProgram(program.rules))


def keys(records) -> set[str]:
    return {r.model.render_key() for r in records}


def test_a1_choice_program_model_family():
    family = family_of("zoo_choice")
    assert len(family.records) == 5
    (wf,) = family.with_flag(FLAG_WELL_FOUNDED)
    assert wf.model.true_atoms == {Atom("a")} and not wf.model.false_atoms
    assert keys(family.with_flag(FLAG_M_STABLE)) == {
        "a. b. not c. d? e? p? q?",
        "a. not b. c. not d. e. not p. q?",
        "a. not b. c. d. not e. not p. not q.",
    }
    total = keys(family.with_flag(FLAG_T_STABLE))
    assert total == keys(family.with_flag(FLAG_L_STABLE)) == {
        "a. not b. c. d. not e. not p. not q."}

    variant = family_of("zoo_choice_nofact")
    assert len(variant.records) == 3
    assert keys(variant.with_flag(FLAG_L_STABLE)) == {
        "not a. not b. c. not d. not e. not p. q?"}
    assert not variant.with_flag(FLAG_T_STABLE)
    assert all(Atom("q") in r.model.undefined_atoms() for r in variant.records)
    print("PASS A1: choice-program families match exactly")


def test_a2_join_program_model_family():
    family = family_of("zoo_join")
    assert len(family.records) == 4
    (wf,) = family.with_flag(FLAG_WELL_FOUNDED)
    assert wf.model.undefined_count == 4
    assert keys(family.with_flag(FLAG_T_STABLE)) == {
        "a. not b. c. not d.", "not a. b. c. not d."}
    (md,) = family.with_flag(FLAG_MAX_DETERMINISTIC)
    assert md.model.true_atoms == {Atom("c")}
    assert md.model.false_atoms == {Atom("d")}
    # Lattice bounds: bottom is the well-founded model, top the max-deterministic.
    for record in family.records:
        if record.has("deterministic"):
            assert wf.model.issubset(record.model)
            assert record.model.issubset(md.model)
    print("PASS A2: join-program family and deterministic lattice match")


def test_a3_two_rewritings_differ_by_information():
    up, db = load_update_program("confirm_manager")
    ws = run(up, db, Semantics.WS)
    bm = run(up, db, Semantics.WS_BM)
    assert ws.output_db.is_total
    assert atom("mgr(x,d)") in ws.output_db.true_facts
    assert atom("mgr(x,d)") in bm.output_db.unknown_facts
    assert info_leq(bm.output_db, ws.output_db)
    print("PASS A3: guarded rewriting strictly more informative on the confirm fixture")


def test_a4_semantics_selectors_on_new_hire_fixtures():
    up, db = load_update_program("new_hire_roles")
    md = run(up, db, Semantics.MD).output_db
    assert atom("worker(a)") in md.true_facts
    assert atom("emp(a)") in md.unknown_facts and atom("mgr(a)") in md.unknown_facts

    up, db = load_update_program("new_hire_mixed")
    assert run(up, db, Semantics.TWFS).status == "rejected-unchanged"
    tmds = run(up, db, Semantics.TMDS)
    assert tmds.applied
    assert tmds.output_db.true_facts == {atom("new(a)"), atom("worker(a)")}

    up, db = load_update_program("new_hire_unique")
    uts = run(up, db, Semantics.UTS)
    assert uts.applied
    assert uts.output_db.true_facts == {atom("new(a)"), atom("emp(a)"),
                                        atom("worker(a)")}

    up, db = load_update_program("new_hire_worker")
    for policy, seed in (("lex", None), ("random", 2), ("random", 7)):
        out = run(up, db, Semantics.MS, policy=policy, seed=seed).output_db
        assert atom("worker(a)") in out.true_facts
        assert (atom("emp(a)") in out.true_facts) != (atom("mgr(a)") in out.true_facts)
    print("PASS A4: md/twfs/tmds/uts/ms selectors behave as pinned")


def test_a5_cascade_livelock_resolves_to_unknown():
    up, db = load_update_program("project_cascade", db=True)
    report = run(up, db, Semantics.WS)
    out = report.output_db
    assert atom("proj(p)") not in out.true_facts | out.unknown_facts
    assert atom("mgr(x,p,d)") in out.unknown_facts
    assert out.true_facts == frozenset()
    print("PASS A5: cascade fixture ends with the manager unknown, project gone")


def test_a6_ordering_and_lattice_laws_on_random_programs():
    started = time.time()
    result = suite_ordering(200)
    elapsed = time.time() - started
    assert result.failures == [], result.failures[:1]
    assert elapsed < 60, f"ordering suite took {elapsed:.1f}s"
    print(f"PASS A6: {result.cases} ordering/lattice checks on 200 programs "
          f"in {elapsed:.1f}s")


def test_a7_enumeration_equals_exhaustive_oracle():
    result = suite_oracle(100)
    assert result.failures == [], result.failures[:1]
    print(f"PASS A7: {result.cases} oracle-equivalence checks on 100 programs")


def test_a8_constant_genericity():
    result = suite_genericity(50)
    assert result.failures == [], result.failures[:1]
    print(f"PASS A8: {result.cases} genericity checks on 50 instances")


def test_a9_round_trips_and_golden_stability():
    result = suite_roundtrip()
    assert result.failures == [], result.failures[:1]
    print(f"PASS A9: {result.cases} round-trip and golden-stability checks")
