"""`rewrite_bm`'s insertion rules: one prepared run per program, one small run per predicate.

The program's run holds its `bm` rules alone; each predicate an action rule or
the delta inserts into adds its insertion rule's own run (`_insertion`), shared
by every program.  The oracle is the construction this replaces: the `bm` rules
and the insertion rules of the whole insertable set, prepared as one run per
set.  Both must give the same ground table, rule by rule and atom by atom, the
same kept prefix and the same well-founded models.
"""

import random
import re

import pytest

from adlog import (Atom, Database, DeltaSet, Polarity, Program, UpdateAtom, UpdateProgram,
                   embed_database, ground, parse_database, parse_delta, parse_program, rewrite_bm,
                   well_founded)
from adlog.model import (Rule, StdLiteral, ValidationError, Variable, validate_program,
                         validate_update_program)
from adlog.rewrite import _prepare, _Rewritten, _Seeded
from adlog.selftest import InstanceGenerator

from conftest import FIXTURES, fixture_text
from test_static import CHAIN_AB, REWRITINGS, with_derived_facts, with_static_part


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


def assert_one_run_per_inserted_predicate(up: UpdateProgram, db: Database, shared: dict) -> None:
    """No kept `bm` run, the prepared run or its base, holds an insertion rule; the rewriting
    has one `_insertion` run per inserted predicate, in order, the one every program has."""
    rewritten = rewrite_bm(up)
    ground(embed_database(rewritten, db))
    run, insertable = up.program.cache["rewrite bm"]
    kept = [run, run.static.base[0][1]] if run.static else [run]
    assert not [rule for k in kept if k for rule in k.rules
                if insertions([(rule.head.predicate, rule.head.arity)]) == [rule]]
    inserted = sorted(insertable | {(atom.predicate, atom.arity) for atom in up.delta.inserts()})
    own = [r for r in rewritten.cache["runs"][1:] if not isinstance(r, _Seeded)]
    assert [r.rules for r in own] == [tuple(insertions([pair])) for pair in inserted]
    assert all(shared.setdefault(pair, r) is r for pair, r in zip(inserted, own))


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.adl"))
MORE = ("", "+zz(q).\n", "+q.\n", "+zz(q).\n+q.\n-yy(q).\n")


def fixture(name: str) -> tuple[Program, str, Database]:
    program = parse_program(fixture_text(f"{name}.adl"), origin=name)
    delta = fixture_text(f"{name}.adu") if (FIXTURES / f"{name}.adu").exists() else ""
    db = parse_database(fixture_text(f"{name}.adb")) if (FIXTURES / f"{name}.adb").exists() \
        else Database()
    return program, delta, db


def new_sets(program: Program, rng: random.Random):
    """Three deltas, each with an insertable set the earlier ones did not bring."""
    arities = {atom.predicate: atom.arity
               for rule in program.rules for atom in Program._all_atoms(rule)}
    base = sorted(set(arities) - program.idb_predicates())
    actions = sorted(program.action_predicates())
    for k in range(3):
        updates = {Atom(f"zz{k}", ("a",) * (k % 2)): Polarity.INSERT}
        for predicate in rng.sample(base, min(len(base), 2)) + actions[:k % 2]:
            atom = Atom(predicate, tuple(rng.choices("abc", k=arities[predicate])))
            updates.setdefault(atom, rng.choice(list(Polarity)))
        yield DeltaSet.of(UpdateAtom(polarity, atom) for atom, polarity in updates.items())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures(name):
    program, delta, db = fixture(name)
    for more in MORE:
        assert_grounds_as_one_run_per_set(UpdateProgram(parse_delta(delta + more), program), db)


def test_no_kept_run_holds_an_insertion_rule():
    shared: dict = {}
    for name in FIXTURE_NAMES:
        program, delta, db = fixture(name)
        for more in MORE:
            assert_one_run_per_inserted_predicate(
                UpdateProgram(parse_delta(delta + more), program), db, shared)
    gen, rng = InstanceGenerator(random.Random(3301)), random.Random(3302)
    for case in range(100):
        up, db = gen._candidate()
        if case % 2:        # static predicates, with facts on them in some databases
            up = with_static_part(up, rng)
            db = with_derived_facts(up, db, rng)
        for delta in new_sets(up.program, rng):
            assert_one_run_per_inserted_predicate(UpdateProgram(delta, up.program), db, shared)
    assert {"mgr", "q", "zz", "zz0", "zz1", "zz2"} <= {predicate for predicate, _ in shared}


# On the chain, `out` is what the action rules insert into, and `a` and `b` are static.
CHAIN_CASES = [
    ("+q.\n", "", 2),                        # arity 0: its trigger is keyed by the ground atom
    ("+zz(q).\n+ev(n3).\n", "", 3),          # a predicate no rule mentions, and `ev`
    ("+out(n3).\n", "ev(n3).", 1),           # an action-inserted predicate: its one run
    ("+ev(n3).\n+zz(q).\n", "b(n5).", 3),    # a database fact on a static predicate
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


def refused(up: UpdateProgram, db: Database, slot: list) -> None:
    """`rewrite_bm` refuses `up` as validation does, and leaves the kept base `slot` as it was."""
    before = slot[0]
    with pytest.raises(ValidationError) as validation:
        validate_update_program(up)
    with pytest.raises(ValidationError) as rewriting:
        ground(embed_database(rewrite_bm(up), db))
    assert str(rewriting.value) == str(validation.value)
    assert slot[0] is before


def test_an_unvalidated_insertion_into_a_static_predicate_is_refused():
    """A static predicate is derived: an insertion into one is refused with validation's
    message, and grounds no rewriting of its own."""
    program = parse_program(CHAIN_AB)
    ground(embed_database(rewrite_bm(UpdateProgram(DeltaSet(), program)),
                          parse_database("b(n5).")))
    assert "a" in program.cache["rewrite bm"][0].static.predicates
    slot = program.cache["rewrite bm"][0].static.base
    assert slot[0][1] is not None
    up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("a", ("n3",)))]), program)
    with pytest.raises(ValidationError, match=r"^input update \+a\(n3\) targets derived "
                                              r"predicate$"):
        rewrite_bm(up)
    # `a(n5).` is a fact on the static predicate, `b(n2)?` an unknown one.
    for db in (Database(), parse_database("out(n2). ev(n4)?"), parse_database("a(n5). b(n2)?")):
        refused(up, db, slot)
    # Here `a` is static only without the insertion rule: the insertion is refused all the same.
    program = parse_program("a(n0) :- not a(n1).\na(n1) :- a(n2).\n+out(n0) :- a(n0), +ev(n0).\n")
    up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("a", ("n2",)))]), program)
    rewrite_bm(UpdateProgram(DeltaSet(), program))
    refused(up, parse_database("a(n5). a(n1)?"), program.cache["rewrite bm"][0].static.base)


def test_an_unvalidated_action_rule_inserting_into_a_static_predicate_is_refused():
    program = Program(parse_program(CHAIN_AB).rules
                      + parse_program("+a(X) :- b(X), +ev(X).\n", origin="extra").rules)
    up = UpdateProgram(parse_delta("+ev(n1)."), program)
    message = ("update atom +a(X) targets derived predicate in rule '+a(X) :- b(X), +ev(X).' "
               "(extra:1)")
    for _ in range(2):      # cold, then from the kept run
        with pytest.raises(ValidationError) as caught:
            rewrite_bm(up)
        assert str(caught.value) == message
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_program(Program(program.rules))


def test_random_programs_under_new_insertable_sets():
    gen, rng = InstanceGenerator(random.Random(2901)), random.Random(2902)
    for case in range(300):
        up, db = gen._candidate()
        if case % 2:        # static predicates, at times with a database fact on one
            up = with_static_part(up, rng)
            if rng.random() < 0.3:
                db = Database.of(db.true_facts | {Atom("k_a")}, db.unknown_facts)
        for delta in new_sets(up.program, rng):
            assert_grounds_as_one_run_per_set(UpdateProgram(delta, up.program), db)


def static_facts(db: Database, predicates) -> tuple[Rule, ...]:
    """The database's facts on `predicates` as its seed run has them: true ones, then unknown
    ones `p(t) :- not p(t)`, each in `str` order."""
    true = [Rule(atom) for atom in sorted(db.true_facts, key=str) if atom.predicate in predicates]
    return tuple(true + [Rule(atom, (StdLiteral(atom, False),))
                         for atom in sorted(db.unknown_facts, key=str)
                         if atom.predicate in predicates])


def assert_base_holds_static_facts(up: UpdateProgram, db: Database, rewriting) -> None:
    table = ground(embed_database(rewriting(up), db))
    run = rewriting(up).cache["runs"][0]
    facts = static_facts(db, run.static.predicates) if run.static else ()
    if not facts:
        return
    moved, base = run.static.base[0]
    assert moved == facts and base.rules == run.rules + facts
    assert base.static.predicates == run.static.predicates
    assert table.prefix is base.static.table


def test_a_base_holds_the_database_facts_on_static_predicates():
    program = parse_program(CHAIN_AB)
    up = UpdateProgram(parse_delta("+ev(n1)."), program)
    for rewriting in REWRITINGS:
        for facts in ("b(n5).", "b(n5)? out(n1). a(n2)?", "a(n3). b(n1)? b(n7). ev(n2)?"):
            assert_base_holds_static_facts(up, parse_database(facts), rewriting)
    # An unvalidated insertion into a static predicate is refused, the kept base as it was.
    slot = program.cache["rewrite bm"][0].static.base
    up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("a", ("n3",)))]), program)
    for facts in ("", "b(n2)?", "a(n5). b(n7)."):
        refused(up, parse_database(facts), slot)
    gen, rng = InstanceGenerator(random.Random(3303)), random.Random(3304)
    for _ in range(60):
        up, db = gen._candidate()
        up = with_static_part(up, rng)
        db = with_derived_facts(up, db, rng)
        for rewriting in REWRITINGS:
            assert_base_holds_static_facts(up, db, rewriting)
