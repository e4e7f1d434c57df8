"""`rewrite_bm`'s insertion rules: one prepared run per program, one small run per predicate.

The program's run holds its `bm` rules and the insertion rules of what its
action rules insert into; a predicate only the delta inserts into adds its
insertion rule's own run (`_insertion`), shared by every program.  The oracle
is the construction this replaces: the `bm` rules and the insertion rules of
the whole insertable set, prepared as one run per set.  Both must give the
same ground table, rule by rule and atom by atom, the same kept prefix and
the same well-founded models.
"""

import random

import pytest

from adlog import (Atom, Database, DeltaSet, Polarity, Program, UpdateAtom, UpdateProgram,
                   embed_database, ground, parse_database, parse_delta, parse_program, rewrite_bm,
                   well_founded)
from adlog.model import Rule, StdLiteral, Variable
from adlog.rewrite import _prepare, _Rewritten, _Seeded
from adlog.selftest import InstanceGenerator

from conftest import FIXTURES, fixture_text
from test_replay import assert_grounds_as_one_phase
from test_static import CHAIN_AB, with_static_part
from test_warm import assert_warm_is_cold


def insertions(insertable) -> list[Rule]:
    """`p(X1, ..) :- @plus_p(X1, ..)` for each (p, arity) of `insertable`, in order."""
    rules = []
    for predicate, arity in insertable:
        args = tuple(Variable(f"X{i + 1}") for i in range(arity))
        rules.append(Rule(Atom(predicate, args), (StdLiteral(Atom("@plus_" + predicate, args)),)))
    return rules


def per_set(up: UpdateProgram) -> _Rewritten:
    """The replaced construction: the `bm` rules and the insertion rules of the program's
    and the delta's insertable set, prepared as one run, then the delta's seeds."""
    runs = rewrite_bm(up).cache["runs"]
    run, insertable = up.program.cache["rewrite bm"]
    own = insertions(insertable)
    full = insertable | {(u.atom.predicate, u.atom.arity)
                         for u in up.delta.updates if u.polarity is Polarity.INSERT}
    rules = [rule for rule in run.rules if rule not in own] + insertions(sorted(full))
    return _Rewritten(_prepare(rules, up.program), runs[-1])


def assert_same_table(mine, theirs) -> None:
    assert list(mine._rules.items()) == list(theirs._rules.items())
    assert list(mine._index.items()) == list(theirs._index.items())
    assert mine.atoms == theirs.atoms
    assert well_founded(mine) == well_founded(theirs)


def assert_grounds_as_one_run_per_set(up: UpdateProgram, db: Database) -> None:
    table = ground(embed_database(rewrite_bm(up), db))
    oracle = ground(embed_database(per_set(up), db))
    assert_same_table(table, oracle)
    assert (table.prefix is None) == (oracle.prefix is None)
    if table.prefix is not None:
        assert_same_table(table.prefix, oracle.prefix)
    assert not [key for key in up.program.cache if isinstance(key, tuple) and "rewrite bm" in key]


def insertion_runs(up: UpdateProgram) -> list:
    return [run for run in rewrite_bm(up).cache["runs"][1:] if not isinstance(run, _Seeded)]


@pytest.mark.parametrize("name", sorted(path.stem for path in FIXTURES.glob("*.adl")))
def test_fixtures(name):
    program = parse_program(fixture_text(f"{name}.adl"), origin=name)
    delta = fixture_text(f"{name}.adu") if (FIXTURES / f"{name}.adu").exists() else ""
    db = parse_database(fixture_text(f"{name}.adb")) if (FIXTURES / f"{name}.adb").exists() \
        else Database()
    for more in ("", "+zz(q).\n", "+q.\n", "+zz(q).\n+q.\n-yy(q).\n"):
        assert_grounds_as_one_run_per_set(UpdateProgram(parse_delta(delta + more), program), db)


# On the chain, `out` is what the action rules insert into, and `a` and `b` are static.
CHAIN_CASES = [
    ("+q.\n", "", 1),                        # arity 0: its trigger is keyed by the ground atom
    ("+zz(q).\n+ev(n3).\n", "", 2),          # a predicate no rule mentions, and `ev`
    ("+out(n3).\n", "ev(n3).", 0),           # an action-inserted predicate: no run of its own
    ("+ev(n3).\n+zz(q).\n", "b(n5).", 2),    # a database fact on a static predicate
]


@pytest.mark.parametrize("delta, facts, runs", CHAIN_CASES)
def test_chain_cases(delta, facts, runs):
    program = parse_program(CHAIN_AB)
    up, db = UpdateProgram(parse_delta(delta), program), parse_database(facts)
    for _ in range(2):      # cold, then warm
        assert len(insertion_runs(up)) == runs
        assert_grounds_as_one_run_per_set(up, db)
    table = ground(embed_database(rewrite_bm(up), db))
    kept = program.cache["rewrite bm"][0].static.table
    assert (table.prefix is kept) == ("b(" not in facts)


def test_an_unvalidated_insertion_into_a_static_predicate_grounds_as_one_run():
    program = parse_program(CHAIN_AB)
    up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("a", ("n3",)))]), program)
    assert insertion_runs(up)[0].heads == {"a"} <= program.cache["rewrite bm"][0].static.predicates
    # `a(n5).` is on a predicate the insertion leaves static no more, `b(n2)?` on a static one.
    for db in (Database(), parse_database("out(n2). ev(n4)?"), parse_database("a(n5). b(n2)?")):
        assert_grounds_as_one_run_per_set(up, db)
        assert_grounds_as_one_phase(up, db)
        assert_warm_is_cold(up, db)
        assert ground(embed_database(rewrite_bm(up), db)).prefix is not \
            program.cache["rewrite bm"][0].static.table
    # A fact that enters no base needs none of its own: these share the last base.
    prefixes = [ground(embed_database(rewrite_bm(up), parse_database(facts))).prefix
                for facts in ("a(n6).", "a(n7). out(n1).", "")]
    assert prefixes[0] is prefixes[1] is prefixes[2]
    # Here the insertion leaves no predicate static: the base has no phase 1.
    program = parse_program("a(n0) :- not a(n1).\na(n1) :- a(n2).\n+out(n0) :- a(n0), +ev(n0).\n")
    up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("a", ("n2",)))]), program)
    db = parse_database("a(n5). a(n1)?")
    assert_grounds_as_one_run_per_set(up, db)
    assert_warm_is_cold(up, db)
    assert ground(embed_database(rewrite_bm(up), db)).prefix is None


def test_random_programs_under_new_insertable_sets():
    gen, rng = InstanceGenerator(random.Random(2901)), random.Random(2902)
    for case in range(300):
        up, db = gen._candidate()
        if case % 2:        # static predicates, at times with a database fact on one
            up = with_static_part(up, rng)
            if rng.random() < 0.3:
                db = Database.of(db.true_facts | {Atom("k_a")}, db.unknown_facts)
        program = up.program
        arities = {atom.predicate: atom.arity
                   for rule in program.rules for atom in Program._all_atoms(rule)}
        base = sorted(set(arities) - program.idb_predicates())
        actions = sorted(program.action_predicates())
        for k in range(3):      # each delta brings a set the earlier ones did not
            updates = {Atom(f"zz{k}", ("a",) * (k % 2)): Polarity.INSERT}
            for predicate in rng.sample(base, min(len(base), 2)) + actions[:k % 2]:
                atom = Atom(predicate, tuple(rng.choices("abc", k=arities[predicate])))
                updates.setdefault(atom, rng.choice(list(Polarity)))
            delta = DeltaSet.of(UpdateAtom(polarity, atom) for atom, polarity in updates.items())
            assert_grounds_as_one_run_per_set(UpdateProgram(delta, program), db)
