"""The rules a transaction adds, made as seeds straight from its atoms' keys.

`rewrite_st`'s delta markers, `rewrite_bm`'s guarded updates and
`embed_database`'s facts and unknown-fact rules have no positive body, so none
needs a plan: each is a seed of the atom table, made from its atoms' keys
(`_seeded`), and a run's `rules` are built only when read.  The oracle is the
construction they replace: build each `Rule`, then `_prepare` them.  Both must
give equal rules and an equal grounding, rule by rule and atom by atom; and a
warm transaction must build no `Rule`, plan nothing and render no update.
"""

import random

import pytest

import adlog.rewrite
from adlog import (Atom, Database, DeltaSet, Polarity, Program, Rule, Semantics, StdLiteral,
                   UpdateAtom, UpdateProgram, compare, embed_database, ground, parse_database,
                   parse_delta, parse_program, rewrite_bm, rewrite_st, run)
from adlog.rewrite import _prepare, _Rewritten, delta_marker_predicate, renamed_update_atom
from adlog.selftest import InstanceGenerator

from test_replay import chain
from test_static import CHAIN_AB, with_static_part
from test_warm import with_origins

# Plain and quoted symbols: `str` order is not the order of the symbols.
CONSTANTS = ("a", "b", "Ann", "b c", "it's", "7")


def markers(delta: DeltaSet):
    """`rewrite_st`'s delta run as `Rule`s: `@ins_p(t).` per `+p(t)`, `@del_p(t).` per `-p(t)`."""
    return _prepare([Rule(Atom(delta_marker_predicate(u.polarity, u.atom.predicate), u.atom.args))
                     for u in sorted(delta.updates, key=str)])


def guarded(delta: DeltaSet):
    """`rewrite_bm`'s delta run as `Rule`s: `@plus_p(t) :- not @minus_p(t).` per `+p(t)`."""
    rules = []
    for u in sorted(delta.updates, key=str):
        complement = Polarity.DELETE if u.polarity is Polarity.INSERT else Polarity.INSERT
        guard = renamed_update_atom(UpdateAtom(complement, u.atom))
        rules.append(Rule(renamed_update_atom(u), (StdLiteral(guard, positive=False),)))
    return _prepare(rules)


def facts(db: Database):
    """`embed_database`'s run as `Rule`s: `p(t).` per true fact, `p(t) :- not p(t).` per
    unknown one."""
    return _prepare([Rule(atom) for atom in sorted(db.true_facts, key=str)]
                    + [Rule(atom, (StdLiteral(atom, positive=False),))
                       for atom in sorted(db.unknown_facts, key=str)])


def assert_same_run(seeded, oracle) -> None:
    assert with_origins(seeded.rules) == with_origins(oracle.rules)
    for field in ("constants", "heads", "static", "seeds", "triggers", "lookups"):
        assert getattr(seeded, field) == getattr(oracle, field), field
    # The oracle also holds the generated atoms; the seeds leave them to the table.
    assert seeded.atoms.items() <= oracle.atoms.items()


def assert_seeds_match_the_oracle(up: UpdateProgram, db: Database) -> None:
    for rewriting, delta_run in ((rewrite_st, markers), (rewrite_bm, guarded)):
        embedded = embed_database(rewriting(up), db)
        runs = embedded.cache["runs"]
        assert_same_run(runs[1], delta_run(up.delta))
        assert_same_run(runs[-1], facts(db))
        # The same prepared run with the oracle's seed runs.
        built = _Rewritten(runs[0], delta_run(up.delta), facts(db))
        assert with_origins(embedded.rules) == with_origins(built.rules)
        table, oracle = ground(embedded), ground(built)
        assert with_origins(table.rules) == with_origins(oracle.rules)
        assert table.atoms == oracle.atoms
        assert (table.heads, table.pos, table.negs) == (oracle.heads, oracle.pos, oracle.negs)


def random_inputs(program: Program, rng: random.Random) -> tuple[UpdateProgram, Database]:
    """A random delta, both polarities, and a random database with true and unknown facts,
    over plain and quoted constants, for the predicates of `program`."""
    arities = {atom.predicate: atom.arity
               for rule in program.rules for atom in Program._all_atoms(rule)}
    derived = program.idb_predicates()

    def atoms(count: int, predicates: list[str]) -> list[Atom]:
        return sorted({Atom(p, tuple(rng.choice(CONSTANTS) for _ in range(arities[p])))
                       for p in rng.choices(predicates, k=count)}) if predicates else []

    delta = DeltaSet.of(UpdateAtom(rng.choice(list(Polarity)), atom)
                        for atom in atoms(rng.randint(0, 5), sorted(set(arities) - derived)))
    held = atoms(rng.randint(0, 6), sorted(arities))
    unknown = set(rng.sample(held, rng.randint(0, len(held))))
    return UpdateProgram(delta, program), Database.of(set(held) - unknown, unknown)


def test_random_deltas_and_databases():
    gen, rng = InstanceGenerator(random.Random(2301)), random.Random(2302)
    for _ in range(150):
        up, _ = gen._candidate()
        if rng.random() < 0.5:      # static predicates, some with database facts
            up = with_static_part(up, rng)
        for _ in range(2):          # cold, then warm
            assert_seeds_match_the_oracle(*random_inputs(up.program, rng))


@pytest.mark.parametrize("held", ["a(n3).", "b(n5)?", "a(n1). out(n2)? b('x y')."])
def test_a_fact_on_a_static_predicate_grounds_all_rules_as_one_run(held):
    program = parse_program(CHAIN_AB)
    db = parse_database(held)
    for delta in ("+ev(n3).\n-out(n4).\n", ""):
        up = UpdateProgram(parse_delta(delta), program)
        assert_seeds_match_the_oracle(up, db)
        table = ground(embed_database(rewrite_st(up), db))
        assert table.prefix is not program.cache["rewrite st"].static.table


def test_a_delta_is_sorted_once_in_str_order():
    rng = random.Random(2303)
    for _ in range(200):
        atoms = {Atom(rng.choice("pq"), tuple(rng.choice(CONSTANTS)
                                              for _ in range(rng.randint(0, 2))))
                 for _ in range(rng.randint(0, 6))}
        delta = DeltaSet.of(UpdateAtom(rng.choice(list(Polarity)), atom) for atom in atoms)
        assert list(delta.ordered) == sorted(delta.updates, key=str)


@pytest.mark.parametrize("semantics", [Semantics.WS, Semantics.WS_BM])
def test_a_warm_chain_transaction_builds_no_rule_and_plans_nothing(monkeypatch, semantics):
    program = parse_program(chain(50))

    def transaction(events):
        delta = parse_delta("".join(f"+ev(n{i}).\n" for i in events) + "-out(n7).\n")
        return run(UpdateProgram(delta, program), parse_database("out(n3).\nout(n7).\n"),
                   semantics)

    for events in ((1,), (2, 3)):       # warm the program's rewriting
        transaction(events)
    calls = []

    def count(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs:
                            calls.append(name) or original(*args, **kwargs))

    count(Rule, "__init__")
    count(UpdateAtom, "__str__")
    count(adlog.rewrite, "_plan")
    count(adlog.rewrite, "_static")
    report = transaction((5, 6))
    monkeypatch.undo()
    assert calls == []
    # 50 - 5 is odd, so the event at n5 inserts out(n5); the one at n6 does not.
    assert {str(atom) for atom in report.output_db.true_facts} == \
        {"ev(n5)", "ev(n6)", "out(n3)", "out(n5)"}


def test_compare_embeds_its_database_once(monkeypatch):
    db = parse_database("out(n3). ev(n4)?")
    built = []
    original = adlog.rewrite._facts
    monkeypatch.setattr(adlog.rewrite, "_facts",
                        lambda database: built.append(database) or original(database))
    compare(UpdateProgram(parse_delta("+ev(n3)."), parse_program(CHAIN_AB)), db)
    assert len(built) == 1 and built[0] is db
