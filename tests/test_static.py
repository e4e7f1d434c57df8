"""Phase 1 of grounding: an update program's static rules, grounded and solved once.

A static predicate's ground rules read no database fact and no update, so a
program keeps them, numbered first, with their well-founded values; each
transaction copies them and grounds and solves only the rest.  A database fact
on a static predicate makes a transaction ground its static rules again, from
all the rules.  Either way every result must equal a fresh program's.
"""

import random

import pytest

import adlog.stable
from adlog import (Atom, Database, DeltaSet, GroundProgram, Program, Rule, Semantics,
                   StdLiteral, UpdateProgram, embed_database, ground, parse_database,
                   parse_delta, parse_program, render, rewrite_bm, rewrite_st, well_founded)
from adlog.parse import _program_of
from adlog.rewrite import _static
from adlog.selftest import InstanceGenerator, random_ground_program
from adlog.update import _Session

from conftest import fixture_text
from test_stable import oracle_psi_iteration
from test_warm import CHAIN, assert_warm_is_cold, cold, compare_json

# The benchmark's chain: `a` and `b` are static, `+out` reads them and the update.
CHAIN_AB = "".join([f"a(n{i}) :- not a(n{i + 1}).\nb(n{i}) :- b(n{i + 1}).\n" for i in range(12)]
                   + ["b(n12).\n"]
                   + [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i}).\n" for i in range(13)])

REWRITINGS = (rewrite_st, rewrite_bm)


def kept(program: Program, rewriting):
    """The phase 1 `program` keeps for a rewriting under an empty delta."""
    return rewriting(UpdateProgram(DeltaSet(), program)).cache["runs"][0].static


def with_static_part(up: UpdateProgram, rng: random.Random) -> UpdateProgram:
    """`up` with a random propositional program over `k_` atoms, read by some of its rules.

    A spine gives each `k_` atom a rule that reads another one, so all are static.
    """
    part = random_ground_program(rng)
    names = sorted("k_" + atom.predicate for atom in part.atoms)
    spine = [f"{head} :- not {body}." for head, body in zip(names, names[1:])]
    spine.append(f"{names[-1]} :- {names[0]}, {names[-1]}.")
    static = list(parse_program("\n".join(spine)).rules) + [
        Rule(Atom("k_" + rule.head.predicate),
             tuple(StdLiteral(Atom("k_" + lit.atom.predicate), lit.positive)
                   for lit in rule.body)) for rule in part.rules]
    rules = [Rule(rule.head, rule.body + (StdLiteral(Atom(rng.choice(("k_a", "k_b"))),
                                                     rng.random() < 0.5),))
             if rng.random() < 0.5 else rule for rule in up.program.rules]
    return UpdateProgram(up.delta, parse_program(render(Program(tuple(rules + static)))))


def with_derived_facts(up: UpdateProgram, db: Database, rng: random.Random) -> Database:
    """`db` with a few true or unknown facts on the program's derived predicates."""
    arities = {rule.head.predicate: rule.head.arity for rule in up.program.rules
               if not rule.is_active}
    true, unknown = set(db.true_facts), set(db.unknown_facts)
    for predicate in sorted(arities):
        for _ in range(rng.randint(0, 2)):
            atom = Atom(predicate, tuple(rng.choice("abc") for _ in range(arities[predicate])))
            if atom not in true | unknown:
                (true if rng.random() < 0.5 else unknown).add(atom)
    return Database(frozenset(true), frozenset(unknown))


def assert_compare_warm_is_cold(capsys, tmp_path, up: UpdateProgram, db: Database) -> None:
    """`compare --json` twice on one program file (warm) equals it on a fresh file (cold)."""
    for suffix, obj in (("adl", up.program), ("adb", db), ("adu", up.delta)):
        (tmp_path / f"warm.{suffix}").write_text(render(obj))
    (tmp_path / "cold.adl").write_text(render(up.program))
    files = [str(tmp_path / f"warm.{suffix}") for suffix in ("adl", "adb", "adu")]
    first = compare_json(capsys, *files)
    assert compare_json(capsys, *files) == first
    assert compare_json(capsys, str(tmp_path / "cold.adl"), *files[1:]) == first
    (tmp_path / "cold.adl").unlink()       # the next fresh program parses anew


class TestStaticPredicates:
    def test_which_predicates_are_static(self):
        rules = _program_of(
            "a(n0) :- not a(n1).\n"                 # reads another atom of its own
            "f(n0).\n"                              # facts only
            "u(n0) :- not u(n0).\n"                 # reads only its head
            "c :- a(n0), f(n0).\n"                  # reads a fact-only predicate
            "d(X) :- a(X).\n"                       # every variable in its positive body
            "e(X) :- a(Y), X != Y.\n"               # X ranges over the active domain
            "v(X) :- d(X).\nv(X).\n"                # so does a fact's variable
            "g :- d(n0), not h.\nh :- not g.\n"     # a static cycle
            "i :- j.\nj :- i.\nj :- e(n1).\n",      # a cycle that reads e
            "<string>").rules
        assert _static(rules) == {"a", "d", "g", "h"}

    def test_reserved_and_update_reading_predicates_are_not_static(self):
        program = parse_program(CHAIN_AB + "s :- a(n1), +ev(n1).\n")
        for rewriting in REWRITINGS:
            assert kept(program, rewriting).predicates == {"a", "b"}

    @pytest.mark.parametrize("text", [
        "pick(X) :- cand(X), not skip(X).\nskip(X) :- cand(X), not pick(X).\n"
        "+chosen(X) :- pick(X), +req(X).\n+covered(G) :- pick(X), member(X,G), +want(G).\n",
        fixture_text("project_cascade.adl")])
    def test_the_choice_and_cascade_programs_have_none(self, text):
        for rewriting in REWRITINGS:
            assert kept(parse_program(text), rewriting) is None


class TestReuse:
    def test_second_transaction_grounds_and_solves_only_the_rest(self, monkeypatch):
        program = parse_program(CHAIN_AB)
        db = parse_database("out(n3).")
        _Session(UpdateProgram(parse_delta("+ev(n2)."), program), db).wf("st")
        static = program.cache["rewrite st"].static
        settled = len(static.table.atoms)
        assert (settled, len(static.table._rules)) == (26, 25)
        added, visited = [], []
        extended, sccs = GroundProgram._extended, adlog.stable._sccs

        class CountingRules(dict):
            """Every rule enters a table through `_rules.setdefault`: `_add` and each
            plan's compiled `emit` call it."""

            def setdefault(self, numbers, origin):
                added.append(numbers[0])
                return super().setdefault(numbers, origin)

        def counting_extended(table):
            out = extended(table)
            out._rules = CountingRules()
            return out

        def counting_sccs(table):
            for component in sccs(table):
                visited.append((table, component))
                yield component

        monkeypatch.setattr(GroundProgram, "_extended", counting_extended)
        monkeypatch.setattr(adlog.stable, "_sccs", counting_sccs)
        up = UpdateProgram(parse_delta("+ev(n5).\n+ev(n6).\n"), program)
        session = _Session(up, db)
        table = session.ground("st")
        report = session.run(Semantics.WS)
        monkeypatch.undo()
        assert table.prefix is static.table
        # Only the rules of phase 2 are added: markers, the database fact, the
        # bridges, the two `+out` rules the events complete and the guards.
        assert added and not any(table.atoms[head].predicate in ("a", "b") for head in added)
        assert len(added) == len(table._rules)
        # The kept values stand for the static atoms: no static atom is visited.
        assert {id(t) for t, _ in visited} == {id(table)}
        assert sorted(a for _, component in visited for a in component) == \
            list(range(settled, len(table.atoms)))
        assert well_founded(table) == oracle_psi_iteration(GroundProgram(table.rules))
        assert report == _Session(cold(up), db).run(Semantics.WS)

    def test_each_transaction_copies_the_one_kept_phase_1(self):
        program = parse_program(CHAIN)
        db = parse_database("out(n3).")
        for rewriting in REWRITINGS:
            tables = {id(ground(embed_database(rewriting(UpdateProgram(
                parse_delta(f"+ev(n{i})."), program)), db)).prefix) for i in range(4)}
            assert tables == {id(kept(program, rewriting).table)}


class TestFallback:
    @pytest.mark.parametrize("facts", ["a(n3).", "a(n3)?", "out(n3). b(n20)?", "a(n12)."])
    def test_database_fact_on_a_static_predicate(self, facts, tmp_path, capsys):
        program = parse_program(CHAIN_AB)
        db = parse_database(facts)
        for delta in ("+ev(n3).", "+ev(n4).\n+ev(n5).\n", ""):
            up = UpdateProgram(parse_delta(delta), program)
            assert_warm_is_cold(up, db)
            for rewriting in REWRITINGS:
                table = ground(embed_database(rewriting(up), db))
                # Phase 1 is grounded again from all the rules, the fact among them.
                assert table.prefix is not kept(program, rewriting).table
                assert set(table.prefix.atoms) >= {a for a in db.true_facts | db.unknown_facts
                                                   if a.predicate in ("a", "b")}
            assert_compare_warm_is_cold(capsys, tmp_path, up, db)

    def test_random_programs_with_facts_on_derived_predicates(self, tmp_path, capsys):
        gen, rng = InstanceGenerator(random.Random(2020)), random.Random(2021)
        fell_back = reused = 0
        for _ in range(80):
            up, db = gen._candidate()
            up = with_static_part(up, rng)
            for facts in (db, with_derived_facts(up, db, rng)):
                assert_warm_is_cold(up, facts)
                static = kept(up.program, rewrite_st)
                prefix = ground(embed_database(rewrite_st(up), facts)).prefix
                if static is not None:
                    fell_back += prefix is not static.table
                    reused += prefix is static.table
                assert_compare_warm_is_cold(capsys, tmp_path, up, facts)
        assert fell_back > 10 and reused > 40


def test_kept_prefix_matches_the_psi_oracle():
    gen, rng = InstanceGenerator(random.Random(31)), random.Random(32)
    settled = 0
    for i in range(300):
        up, db = gen._candidate()
        up = with_static_part(up, rng)
        for rewriting in REWRITINGS:
            for _ in range(2):      # the second grounding copies the kept phase 1
                g = ground(embed_database(rewriting(up), db))
                settled += g.prefix is not None
                assert well_founded(g) == oracle_psi_iteration(GroundProgram(g.rules)), i
    assert settled > 600
