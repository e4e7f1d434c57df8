"""A warm transaction's work follows its own atoms, not the kept program.

`_prepare` joins phase 1's static atoms into the run's other rules once and
keeps what they completed; a transaction replays that after its seeds and joins
only its own atoms, and extraction reads only the update atoms past the kept
prefix.  Every result must still equal a fresh program's.
"""

import random

import pytest

import adlog.rewrite
import adlog.update
from adlog import (ConsistencyError, GroundProgram, Interpretation, Program, Semantics,
                   UpdateProgram, embed_database, ground, parse_database, parse_delta,
                   parse_program, rewrite_bm, rewrite_st, well_founded)
from adlog.model import Atom
from adlog.rewrite import _instantiate, _plan, _Seeded
from adlog.selftest import InstanceGenerator
from adlog.stable import _Model, _well_founded
from adlog.update import _Session

from test_static import CHAIN_AB, REWRITINGS, assert_compare_warm_is_cold, kept, with_static_part
from test_warm import assert_warm_is_cold, cold, with_origins


def chain(n: int) -> str:
    """The benchmark's chain of n links: `a` and `b` are static, `+out` reads them."""
    return "".join([f"a(n{i}) :- not a(n{i + 1}).\nb(n{i}) :- b(n{i + 1}).\n" for i in range(n)]
                   + [f"b(n{n}).\n"]
                   + [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i}).\n" for i in range(n + 1)])


def work(monkeypatch, n: int, semantics: Semantics, more: str = "") -> tuple[int, int, int]:
    """Worklist pops, update-atom parses and update atoms read in one warm two-event run,
    its delta with the insertions `more` (of one-argument atoms) besides the events."""
    program = parse_program(chain(n))
    db = parse_database("")
    for events in ("+ev(n1).", "+ev(n2).\n+ev(n3).\n"):      # warm both rewritings
        adlog.update.run(UpdateProgram(parse_delta(events), program), db, semantics)
    pops, parses, reads = [], [], []
    instantiate, parse, extract = (adlog.rewrite._instantiate, adlog.rewrite.base_atom_of_renamed,
                                   adlog.update.extract_updates)

    def counting_instantiate(*args):
        worklist = instantiate(*args)
        pops.extend(worklist[0])        # each atom that enters the worklist is joined once
        return worklist

    def counting_parse(atom):
        parses.append(atom)
        return parse(atom)

    def counting_extract(model, schema=None, updates=None):
        reads.extend(updates)
        return extract(model, schema, updates)

    monkeypatch.setattr(adlog.rewrite, "_instantiate", counting_instantiate)
    monkeypatch.setattr(adlog.rewrite, "base_atom_of_renamed", counting_parse)
    monkeypatch.setattr(adlog.update, "extract_updates", counting_extract)
    # n - 5 is odd and n - 6 even for both sizes: one event inserts out(n5), one does not.
    kept = list(program.cache)
    report = adlog.update.run(UpdateProgram(parse_delta("+ev(n5).\n+ev(n6).\n" + more), program),
                              db, semantics)
    monkeypatch.undo()
    assert {str(atom) for atom in report.output_db.true_facts} == \
        {"ev(n5)", "ev(n6)", "out(n5)", *[u[1:] for u in more.split(".\n") if u]}
    assert list(program.cache) == kept
    return len(pops), len(parses), len(reads)


@pytest.mark.parametrize("semantics", [Semantics.WS, Semantics.WS_BM])
def test_work_per_warm_transaction_does_not_grow_with_n(monkeypatch, semantics):
    small, large = work(monkeypatch, 400, semantics), work(monkeypatch, 6400, semantics)
    assert small == large
    pops, parses, reads = small       # 6, 8, 2 under ws and 8, 12, 8 under ws-bm
    assert 0 < pops < 20 and 0 < reads <= parses < 20


def test_a_new_insertable_set_does_not_grow_with_n(monkeypatch):
    """A `ws-bm` delta that inserts into predicates no rule inserts into plans their
    insertion rules alone (`rewrite._insertion`): it joins no static atom again and keeps
    nothing more with the program."""
    sizes = [work(monkeypatch, n, Semantics.WS_BM, f"+zz_{n}(q).\n+zz_{n}_more(q).\n")
             for n in (400, 6400)]
    assert sizes[0] == sizes[1]
    pops, parses, reads = sizes[0]
    assert 0 < pops < 30 and 0 < reads <= parses < 30


def assert_grounds_as_one_phase(up: UpdateProgram, db) -> None:
    """The warm table has the rules and the well-founded model of a grounding without
    phase 1: one plan of all the rules, every atom joined in one worklist.  The model is
    read through the program's memo, if a run made one, as a run reads it."""
    for rewriting in REWRITINGS:
        table = ground(embed_database(rewriting(up), db))
        one = GroundProgram()
        _instantiate(one, (_plan(embed_database(rewriting(cold(up)), db).rules),))
        assert set(with_origins(table.rules)) == set(with_origins(one.rules))
        assert well_founded(table, up.program.cache.get("memo")) == well_founded(one)


# What phase 1's atoms complete alone: a variable-free rule, and a rule whose
# head variable ranges over the constants of each call.  A plan that pivots on
# a static predicate completes nothing without the update it also reads.
EDGE_CASES = ["+out(n1) :- a(n1), b(n1).\n", "+out(X) :- a(X), b(X), +ev(X).\n",
              "+out(X) :- a(n1), X != n3.\n"]


@pytest.mark.parametrize("rule", EDGE_CASES)
def test_replay_edge_cases(rule, tmp_path, capsys):
    program = parse_program(CHAIN_AB + rule)
    for facts in ("", "out(n3).", "out(q7). ev(z)?"):
        db = parse_database(facts)
        for delta in ("+ev(n3).", "+ev(n4).\n+ev(n5).\n+ev(zz).\n", ""):
            up = UpdateProgram(parse_delta(delta), program)
            assert_warm_is_cold(up, db)
            assert_grounds_as_one_phase(up, db)
            assert_compare_warm_is_cold(capsys, tmp_path, up, db)
    replayed = [len(kept(program, rewriting).replay) for rewriting in REWRITINGS]
    assert replayed == ([0, 0] if "+ev" in rule else [1, 1])


def test_one_prepared_run_then_seed_runs_and_one_phase_1_per_program():
    program = parse_program(CHAIN_AB)
    db = parse_database("out(n3). ev(n4)?")
    # Two `bm` insertable sets: the delta's `+ev` adds `ev`'s insertion run to the program's.
    ups = [UpdateProgram(parse_delta(delta), program) for delta in ("+ev(n3).", "-ev(n3).")]
    rewritten = [rewrite_st(ups[0])] + [rewrite_bm(up) for up in ups]
    plain = Program(rewritten[0].rules)
    insertion = rewritten[1].cache["runs"][1]
    assert [str(rule) for rule in insertion.rules] == ["ev(X1) :- @plus_ev(X1)."]
    assert insertion.heads == {"ev"}
    for runs in [p.cache["runs"] for p in rewritten] + \
            [embed_database(p, db).cache["runs"] for p in rewritten + [plain]]:
        assert not isinstance(runs[0], _Seeded) and runs[0].static is not None
        assert runs[1:] and all(isinstance(run, _Seeded) or run is insertion for run in runs[1:])
    assert [run is insertion for run in rewritten[1].cache["runs"]] == [False, True, False]
    keys = [key for key in program.cache if isinstance(key, tuple)]
    assert [key for key in program.cache if "rewrite bm" in key] == ["rewrite bm"]
    assert len([key for key in keys if key[0] == "phase 1"]) == 1
    bm = program.cache["rewrite bm"][0]
    assert rewritten[1].cache["runs"][0] is rewritten[2].cache["runs"][0] is bm
    table = program.cache["rewrite st"].static.table
    assert bm.static.table is table
    assert embed_database(plain, db).cache["runs"][0].static.table is not table


class TestConsistency:
    """A certain `+A` with a certain or undefined `-A` is refused on the update atoms read
    past a kept prefix."""

    PROGRAM = CHAIN_AB + "+p(c) :- a(n1), +ev(n1).\n-p(c) :- b(n1), +ev(n1).\n"

    @pytest.fixture
    def session(self):
        session = _Session(UpdateProgram(parse_delta("+ev(n1)."), parse_program(self.PROGRAM)),
                           parse_database(""))
        session.run(Semantics.WS)
        return session

    @pytest.mark.parametrize("minus, message", [("certain", "both"),
                                                ("undefined", "undefined deletion")])
    def test_both_updates_of_one_atom(self, session, minus, message):
        table = session.ground("st")
        assert table.prefix is not None
        plus_atom, minus_atom = Atom("@plus_p", ("c",)), Atom("@minus_p", ("c",))
        assert {atom for atom, _, _ in table.updates} >= {plus_atom, minus_atom}
        wf = session.wf("st")
        true = set(wf.true_atoms) | {plus_atom} | ({minus_atom} if minus == "certain" else set())
        false = set(wf.false_atoms) - {plus_atom, minus_atom}
        own = {atom: 2 if atom in true else 0 if atom in false else 1 for atom in table._atoms}
        models = [Interpretation(table.universe, frozenset(true), frozenset(false)),
                  _Model(_well_founded(table.prefix)[1], tuple(own), tuple(own.values()))]
        assert models[0] == models[1]
        for model in models:
            with pytest.raises(ConsistencyError, match=message):
                session.apply_model(model, session.delta_applied, table.updates)


def test_st_and_bm_share_one_phase_1_table():
    gen, rng = InstanceGenerator(random.Random(210)), random.Random(211)
    programs = [parse_program(chain(12))]
    programs += [with_static_part(gen._candidate()[0], rng).program for _ in range(60)]
    compared = 0
    for program in programs:
        st, bm = (kept(program, rewriting) for rewriting in REWRITINGS)
        # A second insertable set, on a predicate the program does not have.
        other = rewrite_bm(UpdateProgram(parse_delta("+zz_new(q)."), program)).cache["runs"][0]
        assert (st is None) == (bm is None) == (other.static is None)
        if st is None:
            continue
        compared += 1
        assert st.predicates == bm.predicates == other.static.predicates
        assert st.table is bm.table is other.static.table
        # Derived in one order: the index keeps each predicate's atoms as they left the worklist.
        assert {p: list(facts) for p, facts in st.facts.items() if facts} == \
            {p: list(facts) for p, facts in bm.facts.items() if facts}
    assert compared > 40


def test_random_programs_ground_as_one_phase():
    gen, rng = InstanceGenerator(random.Random(2121)), random.Random(2122)
    for _ in range(150):
        up, db = gen._candidate()
        up = with_static_part(up, rng)
        for _ in range(2):      # cold, then warm
            assert_grounds_as_one_phase(up, db)
