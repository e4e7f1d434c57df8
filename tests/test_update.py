import random
import re

import pytest

import adlog.stable
import adlog.update
from adlog import (Atom, CompareResult, ConsistencyError, Database,
                   DeltaSet, EngineError, GroundProgram, Interpretation,
                   PreconditionError, Program, RunReport, SchemaError, Semantics,
                   UpdateOutcome, UpdateProgram, ValidationError, apply_delta,
                   apply_updates, compare, embed_database, extract_updates,
                   ground, info_leq, is_total_transformation, parse_database,
                   parse_delta, parse_program, rename_constants, rewrite_st,
                   run, well_founded)
from adlog.model import Variable
from adlog.selftest import InstanceGenerator
from adlog.update import CompareRow

from conftest import FIXTURES, load_update_program

UPDATE_FIXTURES = sorted(path.stem for path in FIXTURES.glob("*.adu"))


def atom(text: str) -> Atom:
    name, _, args = text.partition("(")
    if not args:
        return Atom(name)
    return Atom(name, tuple(args.rstrip(")").split(",")))


def interp(universe, true=(), false=()):
    return Interpretation(frozenset(universe), frozenset(true), frozenset(false))


class TestExtractUpdates:
    def test_certain_insert(self):
        plus, minus = atom("@plus_mgr(x,d)"), atom("@minus_mgr(x,d)")
        outcome = extract_updates(interp([plus, minus], true=[plus], false=[minus]))
        assert outcome.certain_insert == {atom("mgr(x,d)")}
        assert outcome != UpdateOutcome()

    def test_all_false_gives_empty_outcome(self):
        plus, minus = atom("@plus_mgr(x,d)"), atom("@minus_mgr(x,d)")
        outcome = extract_updates(interp([plus, minus], false=[plus, minus]))
        assert outcome == UpdateOutcome()

    def test_cascade_well_founded_extraction(self):
        up, db = load_update_program("project_cascade", db=True)
        model = well_founded(ground(embed_database(rewrite_st(up), db)))
        outcome = extract_updates(model)
        assert outcome.certain_insert == outcome.certain_delete == frozenset()
        assert outcome.undef_insert == {atom("mgr(x,p,d)")}
        assert outcome.undef_delete == {atom("mgr(x,p,d)")}

    def test_auxiliary_atoms_are_ignored(self):
        aux = atom("@ck_mgr(x)")
        outcome = extract_updates(interp([aux], true=[aux]))
        assert outcome == UpdateOutcome()


class TestOutcomeConsistency:
    def test_conflicting_certain_updates(self):
        with pytest.raises(ConsistencyError):
            UpdateOutcome(certain_insert=frozenset({atom("p(a)")}),
                          certain_delete=frozenset({atom("p(a)")}))

    def test_certain_insert_with_undefined_delete(self):
        with pytest.raises(ConsistencyError):
            UpdateOutcome(certain_insert=frozenset({atom("p(a)")}),
                          undef_delete=frozenset({atom("p(a)")}))


class TestApplyUpdates:
    def test_certain_delete_removes_fact(self):
        db = Database.of(true=[atom("p(a)")])
        out = apply_updates(UpdateOutcome(certain_delete=frozenset({atom("p(a)")})), db)
        assert out == Database()

    def test_undefined_delete_blurs_true_fact(self):
        db = Database.of(true=[atom("mgr(x,p,d)")])
        out = apply_updates(UpdateOutcome(undef_delete=frozenset({atom("mgr(x,p,d)")})), db)
        assert out.unknown_facts == {atom("mgr(x,p,d)")}

    def test_undefined_insert_blurs_absent_fact(self):
        out = apply_updates(UpdateOutcome(undef_insert=frozenset({atom("emp(a)")})),
                            Database())
        assert out.unknown_facts == {atom("emp(a)")}

    def test_unknown_fact_without_certain_mention_stays_unknown(self):
        db = Database.of(unknown=[atom("p(a)")])
        out = apply_updates(UpdateOutcome(undef_insert=frozenset({atom("p(a)")}),
                                          undef_delete=frozenset()), db)
        assert out.unknown_facts == {atom("p(a)")}

    def test_certain_updates_resolve_unknown_facts(self):
        db = Database.of(unknown=[atom("p(a)"), atom("q(b)")])
        out = apply_updates(UpdateOutcome(
            certain_insert=frozenset({atom("p(a)")}),
            certain_delete=frozenset({atom("q(b)")})), db)
        assert out == Database.of(true=[atom("p(a)")])


class TestOutputDatabases:
    """`apply_updates` checks its output as the public `Database` constructor does; a
    session, which checked its facts' schema once, builds its outputs unchecked."""

    @pytest.mark.parametrize("true, unknown, message", [
        ([atom("p(a)"), Atom("q", (Variable("X"),))], [], "database fact q(X) is not ground"),
        ([atom("p(a)")], [atom("p(a)"), atom("q(b)")], "fact p(a) is both true and unknown"),
        ([atom("p(a)")], [atom("q(b)"), atom("p(a,b)")], "predicate p used with arity 1 and 2"),
    ])
    def test_the_public_constructor_checks_every_fact(self, true, unknown, message):
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            Database.of(true, unknown)

    def test_a_session_checks_no_database_it_builds(self, monkeypatch):
        up, db = load_update_program("project_cascade", db=True)
        built = []
        init = Database.__init__
        monkeypatch.setattr(Database, "__init__", lambda self, *facts: built.append(facts)
                            or init(self, *facts))
        rows = compare(up, db).rows
        assert not built and len({id(row.report.output_db) for row in rows if row.report}) > 1

    def test_outputs_equal_the_public_constructor_on_generated_instances(self):
        gen = InstanceGenerator(random.Random(777))
        outputs = 0
        for _ in range(300):
            up, db = gen._candidate()
            for out in [apply_delta(up.delta, db)] + [
                    row.report.output_db for row in compare(up, db).rows if row.report]:
                assert out == Database(out.true_facts, out.unknown_facts)
                outputs += 1
        assert outputs > 2000

    @pytest.mark.parametrize("outcome, message", [
        (UpdateOutcome(certain_insert=frozenset({Atom("r", (Variable("X"),))})),
         "database fact r(X) is not ground"),
        (UpdateOutcome(undef_insert=frozenset({Atom("r", (Variable("X"), "a"))})),
         "database fact r(X,a) is not ground"),
        (UpdateOutcome(certain_insert=frozenset({atom("p(a,b)")})),
         "predicate p used with arity 1 and 2"),
        (UpdateOutcome(undef_insert=frozenset({Atom("q")})),
         "predicate q used with arity 0 and 1"),
        (UpdateOutcome(certain_insert=frozenset({atom("s(a)"), atom("s(a,b)")})),
         "predicate s used with arity 1 and 2"),
    ])
    def test_new_facts_are_checked(self, outcome, message):
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            apply_updates(outcome, parse_database("p(a). q(b)."))

    def test_clashing_input_update_is_refused(self):
        with pytest.raises(ValidationError, match=r"^predicate p used with arity 1 and 2$"):
            apply_delta(parse_delta("+p(a,b)."), parse_database("p(a). q(b)."))

    def test_arity_of_a_deleted_predicate_may_change(self):
        out = apply_updates(UpdateOutcome(certain_delete=frozenset({atom("p(a)")}),
                                          certain_insert=frozenset({atom("p(a,b)")})),
                            parse_database("p(a). q(b)."))
        assert out == Database.of(true=[atom("p(a,b)"), atom("q(b)")])


class TestApplyModel:
    def test_the_same_model_gives_one_output(self):
        up, db = load_update_program("project_cascade", db=True)
        session = adlog.update._Session(up, db)
        wf, base = session.wf("st"), session.delta_applied
        output = session.apply_model(wf, base)
        assert session.apply_model(wf, base) is output
        # Models are matched by identity: an equal copy is applied again, to an equal output.
        copy = Interpretation(wf.universe, wf.true_atoms, wf.false_atoms)
        again = session.apply_model(copy, base)
        assert again == output and again is not output


class TestApplyDelta:
    def test_delete_removes(self):
        db = parse_database("proj(p). mgr(x,p,d).")
        out = apply_delta(parse_delta("-proj(p)."), db)
        assert out == Database.of(true=[atom("mgr(x,p,d)")])

    def test_empty_delta_is_identity(self):
        db = parse_database("proj(p).")
        assert apply_delta(DeltaSet(), db) == db

    def test_insert_resolves_unknown(self):
        db = Database.of(unknown=[atom("p(a)")])
        out = apply_delta(parse_delta("+p(a)."), db)
        assert out == Database.of(true=[atom("p(a)")])


class TestIsTotalTransformation:
    def test_total_model(self):
        plus = atom("@plus_emp(a)")
        assert is_total_transformation(interp([plus], true=[plus]), Database())

    def test_undefined_insert_over_present_fact(self):
        plus = atom("@plus_emp(a)")
        db = Database.of(true=[atom("emp(a)")])
        assert is_total_transformation(interp([plus]), db)

    def test_undefined_insert_over_absent_fact(self):
        plus = atom("@plus_emp(a)")
        assert not is_total_transformation(interp([plus]), Database())


@pytest.mark.parametrize("text", ["ws-bm", "WS_BM", " Ws-Bm ", "ws_bm", "\tws-BM\n"])
def test_semantics_parse_reads_any_case_spacing_and_underscore(text):
    assert Semantics.parse(text) is Semantics.WS_BM


def test_semantics_parse_reads_every_value_and_rejects_others():
    assert [Semantics.parse(s.value.upper()) for s in Semantics] == list(Semantics)
    with pytest.raises(ValueError) as exc:
        Semantics.parse("x")
    assert str(exc.value) == "unknown semantics 'x'"
    for text in ("ws bm", "wsbm", "", "W", "ws-"):
        with pytest.raises(ValueError, match=f"^unknown semantics {re.escape(repr(text))}$"):
            Semantics.parse(text)


class TestRun:
    def test_confirm_manager_ws_and_bm(self):
        up, db = load_update_program("confirm_manager")
        ws = run(up, db, Semantics.WS)
        bm = run(up, db, Semantics.WS_BM)
        assert ws.output_db == Database.of(true=[atom("confirm(x,d)"), atom("mgr(x,d)")])
        assert bm.output_db == Database.of(true=[atom("confirm(x,d)")],
                                           unknown=[atom("mgr(x,d)")])
        assert info_leq(bm.output_db, ws.output_db)

    def test_unique_total_model_semantics(self):
        up, db = load_update_program("new_hire_unique")
        report = run(up, db, Semantics.UTS)
        assert report.applied
        assert report.output_db == Database.of(
            true=[atom("new(a)"), atom("emp(a)"), atom("worker(a)")])

    @pytest.mark.parametrize("program, database", [
        ("+r(X) :- q(X).", "q(a). @ck_r(a)."),  # a guard fact would block +r(a)
        ("+r(X) :- q(X).", "p(b). @plus_p(a)."),  # an update fact would insert p(a)
    ])
    def test_database_fact_on_reserved_predicate_is_rejected(self, program, database):
        up = UpdateProgram(DeltaSet(), parse_program(program))
        with pytest.raises(ValidationError, match="reserved predicate name in database fact @"):
            run(up, parse_database(database), Semantics.WS)

    @pytest.mark.parametrize("delta", ["+@ck_r(a).", "+@plus_p(a)."])
    def test_update_on_reserved_predicate_is_rejected(self, delta):
        up = UpdateProgram(parse_delta(delta), parse_program("+r(X) :- q(X)."))
        with pytest.raises(ValidationError, match="reserved predicate name in update [+]@"):
            run(up, parse_database("q(a)."), Semantics.WS)

    def test_rejection_returns_input_unchanged(self):
        up, db = load_update_program("new_hire_mixed")
        report = run(up, db, Semantics.TWFS)
        assert report.status == "rejected-unchanged"
        assert report.output_db == db

    def test_md_on_mixed_fixture_is_total(self):
        up, db = load_update_program("new_hire_mixed")
        report = run(up, db, Semantics.TMDS)
        assert report.applied
        assert report.output_db == Database.of(true=[atom("new(a)"), atom("worker(a)")])

    def test_ms_inserts_worker_under_every_selection(self):
        up, db = load_update_program("new_hire_worker")
        for policy, seed in (("lex", None), ("random", 0), ("random", 1),
                             ("random", 7), ("random", 13)):
            report = run(up, db, Semantics.MS, policy=policy, seed=seed)
            out = report.output_db.true_facts
            assert atom("worker(a)") in out
            assert (atom("emp(a)") in out) != (atom("mgr(a)") in out)

    def test_seeded_selection_is_reproducible(self):
        up, db = load_update_program("new_hire_worker")
        first = run(up, db, Semantics.MS, policy="random", seed=99)
        second = run(up, db, Semantics.MS, policy="random", seed=99)
        assert first.output_db == second.output_db
        assert first.seed == 99

    def test_random_policy_without_seed_records_one_for_replay(self):
        up, db = load_update_program("new_hire_worker")
        first = run(up, db, Semantics.MS, policy="random")
        assert first.seed is not None
        replay = run(up, db, Semantics.MS, policy="random", seed=first.seed)
        assert replay.output_db == first.output_db

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_unknown_policy_is_rejected_under_every_semantics(self, semantics):
        # No total model, so ts has no candidate to choose among.
        up = UpdateProgram(DeltaSet(), parse_program("+p(a) :- not +p(a).\n"))
        with pytest.raises(ValueError, match="unknown selection policy 'bogus'"):
            run(up, Database(), semantics, policy="bogus")

    def test_total_only_semantics_reject_partial_input(self):
        up, _ = load_update_program("new_hire_worker")
        partial = Database.of(unknown=[atom("emp(b)")])
        with pytest.raises(PreconditionError):
            run(up, partial, Semantics.TS)

    def test_ws_accepts_partial_input(self):
        up, _ = load_update_program("new_hire_worker")
        partial = Database.of(unknown=[atom("emp(b)")])
        report = run(up, partial, Semantics.WS)
        assert report.applied

    def test_family_stats_only_for_enumerating_semantics(self):
        up, db = load_update_program("new_hire_worker")
        assert run(up, db, Semantics.WS).family_stats is None
        stats = run(up, db, Semantics.MD).family_stats
        assert stats is not None and stats["models"] == 3


class TestCompare:
    def test_roles_fixture_rows(self):
        up, db = load_update_program("new_hire_roles")
        result = compare(up, db)
        reports = {row.semantics: row.report for row in result.rows}
        ws, md = reports[Semantics.WS].output_db, reports[Semantics.MD].output_db
        assert atom("worker(a)") in md.true_facts
        assert atom("worker(a)") in ws.unknown_facts
        assert atom("emp(a)") in md.unknown_facts
        matrix = result.info_matrix()
        assert matrix[(Semantics.WS, Semantics.MD)]
        assert matrix[(Semantics.WS_BM, Semantics.WS)]

    def test_empty_program_and_delta_change_nothing(self):
        up = UpdateProgram(DeltaSet(), Program())
        db = parse_database("p(a). q(b,c).")
        result = compare(up, db)
        for row in result.rows:
            assert row.report is not None, row.error
            assert row.report.output_db == db

    def test_cascade_rows(self):
        up, db = load_update_program("project_cascade", db=True)
        result = compare(up, db)
        ws = next(row.report for row in result.rows if row.semantics is Semantics.WS).output_db
        assert atom("proj(p)") not in ws.true_facts | ws.unknown_facts
        assert atom("mgr(x,p,d)") in ws.unknown_facts

    def test_info_matrix_rejects_outputs_that_disagree_on_an_arity(self):
        def row(semantics: Semantics, output: str) -> CompareRow:
            report = RunReport(semantics, Database(), parse_database(output),
                               "applied", None, None, "lex", None)
            return CompareRow(semantics, report, None)
        result = CompareResult((row(Semantics.WS, "p(a)."), row(Semantics.MD, "q(b)?"),
                                CompareRow(Semantics.TS, None, "refused"),
                                row(Semantics.WS_BM, "p(a,b).")))
        with pytest.raises(SchemaError):
            result.info_matrix()

    @pytest.mark.parametrize("name", UPDATE_FIXTURES)
    def test_info_matrix_is_pairwise_info_leq(self, name):
        up, db = load_update_program(name, db=(FIXTURES / f"{name}.adb").exists())
        result = compare(up, db)
        outputs = [(row.semantics, row.report.output_db)
                   for row in result.rows if row.report is not None]
        assert result.info_matrix() == {(s1, s2): info_leq(d1, d2)
                                        for s1, d1 in outputs for s2, d2 in outputs}

    def test_partial_input_becomes_row_errors(self):
        up, _ = load_update_program("new_hire_worker")
        result = compare(up, Database.of(unknown=[atom("emp(b)")]))
        failed = {row.semantics for row in result.rows if row.report is None}
        assert failed == set(Semantics) - {Semantics.WS, Semantics.MD, Semantics.WS_BM}

    def test_engine_defects_propagate(self, monkeypatch):
        def broken(model, schema=None, updates=None):
            raise EngineError("injected defect")
        monkeypatch.setattr(adlog.update, "extract_updates", broken)
        up, db = load_update_program("new_hire_worker")
        with pytest.raises(EngineError, match="injected defect"):
            compare(up, db)

    def test_refused_enumeration_is_computed_once(self, monkeypatch):
        calls = {"enumerate_pstable": 0, "well_founded": 0}

        def counting(module, name):
            original = getattr(module, name)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(adlog.update, "enumerate_pstable")
        counting(adlog.update, "well_founded")
        counting(adlog.stable, "well_founded")
        up = UpdateProgram(DeltaSet(), parse_program("".join(
            f"+p({k}) :- not +q({k}).\n+q({k}) :- not +p({k}).\n" for k in "abc")))
        result = compare(up, Database(), cap=3)
        refused = {row.semantics for row in result.rows if row.report is None}
        assert refused == {Semantics.MD, Semantics.TMDS, Semantics.UTS, Semantics.TS,
                           Semantics.MS, Semantics.MSTT}
        assert len({row.error for row in result.rows if row.report is None}) == 1
        # One enumeration; the well-founded model of st (for ws, and kept for
        # the enumeration) and of bm.
        assert calls == {"enumerate_pstable": 1, "well_founded": 2}

    def test_family_path_computes_the_well_founded_model_once(self, monkeypatch):
        computed = []
        original = adlog.stable._sccs

        def sccs(program):
            computed.append(program.universe)  # one whole well-founded computation
            return original(program)

        monkeypatch.setattr(adlog.stable, "_sccs", sccs)
        # A program of its own: one parsed from the same text may already keep
        # both structures from an earlier test (`well_founded`'s memo).
        up = UpdateProgram(DeltaSet(), Program(parse_program(
            "+p(a) :- not +q(a).\n+q(a) :- not +p(a).\n").rules))
        result = compare(up, Database())
        assert all(row.report is not None for row in result.rows)
        # One fixpoint per rewriting, shared by ws and the enumeration.
        assert len(computed) == len(set(computed)) == 2

    def test_one_index_per_rewriting(self, monkeypatch):
        built = []
        original = GroundProgram.__init__

        def init(program, *args, **kwargs):
            built.append(program)
            original(program, *args, **kwargs)

        # Every atom table starts in the constructor, which `ground` calls too.
        monkeypatch.setattr(GroundProgram, "__init__", init)
        up = UpdateProgram(DeltaSet(), parse_program(
            "+p(a) :- not +q(a).\n+q(a) :- not +p(a).\n"))
        compare(up, Database())
        # Every semantics of a rewriting reads the one ground program and its table.
        assert len(built) == len({id(program) for program in built}) == 2


class TestIndependentPairs:
    """k = 20 independent pairs: 3^20 models, none of them listed."""

    def test_every_family_semantics_answers_from_the_parts(self):
        text = "".join(f"p{i} :- not q{i}.\nq{i} :- not p{i}.\n" for i in range(20))
        session = adlog.update._Session(UpdateProgram(DeltaSet(), parse_program(text)),
                                        Database(), cap=40)
        reports = {s: session.run(s) for s in (Semantics.MD, Semantics.TMDS, Semantics.UTS,
                                               Semantics.TS, Semantics.MS, Semantics.MSTT)}
        assert {s for s, r in reports.items() if not r.applied} == {Semantics.UTS}
        assert reports[Semantics.MD].chosen_model == session.wf("st")
        # `not p0.` sorts before `p0.`, so the least total model makes every q true.
        assert reports[Semantics.TS].chosen_model.true_atoms == {atom(f"q{i}") for i in range(20)}
        drawn = session.run(Semantics.MS, policy="random", seed=5).chosen_model
        assert drawn.is_total and drawn != reports[Semantics.MS].chosen_model
        family = session.family("st")
        assert family.counts() == {"models": 3 ** 20, "well_founded": 1, "t_stable": 2 ** 20,
                                   "m_stable": 2 ** 20, "l_stable": 2 ** 20,
                                   "deterministic": 1, "max_deterministic": 1}
        assert "records" not in vars(family)


class TestGenericity:
    def test_renaming_commutes_on_cascade(self):
        up, db = load_update_program("project_cascade", db=True)
        # The first renaming fixes the delta constant p.  The second renames the
        # delta and the database by one bijection, and takes the program through
        # every rule form (update heads, update literals, builtins).
        for rho in ({"x": "y", "d": "e"}, {"x": "y", "d": "e", "p": "q"}):
            renamed_up = UpdateProgram(rename_constants(up.delta, rho),
                                       rename_constants(up.program, rho))
            renamed = rename_constants(db, rho)
            for semantics in (Semantics.WS, Semantics.MD, Semantics.WS_BM):
                direct = run(renamed_up, renamed, semantics).output_db
                routed = rename_constants(run(up, db, semantics).output_db, rho)
                assert direct == routed


class TestSolvedComponents:
    """Transactions on one program share the components it has searched."""

    CHOICE = ("pick(X) :- cand(X), not skip(X).\nskip(X) :- cand(X), not pick(X).\n"
              "+chosen(X) :- pick(X), +req(X).\n")

    def test_other_constants_search_no_component_again(self, monkeypatch):
        program = parse_program("% components kept across databases\n" + self.CHOICE)
        calls = []
        search = adlog.stable._search
        monkeypatch.setattr(adlog.stable, "_search",
                            lambda rules: calls.append(1) or search(rules))
        compare(UpdateProgram(parse_delta("+req(c1)."), program), parse_database("cand(c1)."))
        assert calls and program.cache["memo"]
        calls.clear()
        up, db = UpdateProgram(parse_delta("+req(c7)."), program), parse_database("cand(c7).")
        second = compare(up, db)
        assert calls == []
        assert second == compare(UpdateProgram(up.delta, Program(program.rules)), db)
        assert calls
