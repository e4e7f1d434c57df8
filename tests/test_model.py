import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlog import (Atom, BuiltinLiteral, Database, DeltaSet,
                   Interpretation, Polarity, Program, Rule, SchemaError,
                   StdLiteral, TruthValue, UniverseError, UpdateAtom,
                   UpdateProgram, ValidationError, Variable, enumerate_pstable,
                   info_leq, rename_constants, validate_program,
                   validate_update_program, parse_program)
from adlog.parse import _program_of
from adlog.selftest import (eval_literal, is_model, random_ground_program,
                            rule_satisfied)

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def interp(universe, true=(), false=()):
    return Interpretation(frozenset(universe), frozenset(true), frozenset(false))


class TestTruthValue:
    def test_order(self):
        assert TruthValue.FALSE < TruthValue.UNDEFINED < TruthValue.TRUE

    def test_negation(self):
        assert TruthValue.TRUE.negate() is TruthValue.FALSE
        assert TruthValue.FALSE.negate() is TruthValue.TRUE
        assert TruthValue.UNDEFINED.negate() is TruthValue.UNDEFINED

    @pytest.mark.parametrize("value", list(TruthValue))
    def test_double_negation(self, value):
        assert value.negate().negate() is value


class TestEvalLiteral:
    def test_positive_atom(self):
        assert eval_literal(StdLiteral(a), interp([a], true=[a])) is TruthValue.TRUE

    def test_negated_undefined_stays_undefined(self):
        assert eval_literal(StdLiteral(a, positive=False), interp([a])) is TruthValue.UNDEFINED

    def test_ground_neq_is_false_on_equal_constants(self):
        lit = BuiltinLiteral("!=", "x", "x")
        assert eval_literal(lit, interp([])) is TruthValue.FALSE

    def test_ground_eq(self):
        lit = BuiltinLiteral("=", "x", "y")
        assert eval_literal(lit, interp([])) is TruthValue.FALSE

    def test_atom_outside_universe(self):
        with pytest.raises(UniverseError):
            eval_literal(StdLiteral(b), interp([a]))


class TestRuleSatisfied:
    def test_true_head_over_undefined_body(self):
        rule = Rule(a, (StdLiteral(b),))
        assert rule_satisfied(rule, interp([a, b], true=[a]))

    def test_false_head_under_true_body(self):
        rule = Rule(a, (StdLiteral(b),))
        assert not rule_satisfied(rule, interp([a, b], true=[b], false=[a]))

    def test_min_rule_on_mixed_body(self):
        rule = Rule(c, (StdLiteral(a), StdLiteral(b)))
        assert rule_satisfied(rule, interp([a, b, c], true=[a]))

    def test_empty_body_needs_true_head(self):
        assert rule_satisfied(Rule(a), interp([a], true=[a]))
        assert not rule_satisfied(Rule(a), interp([a]))


class TestIsModel:
    def test_even_cycle_join_partial_model(self, fixtures_dir):
        program = parse_program((fixtures_dir / "zoo_join.adl").read_text())
        assert is_model(program, interp([a, b, c, d], true=[c], false=[d]))

    def test_all_false_is_no_model(self, fixtures_dir):
        program = parse_program((fixtures_dir / "zoo_join.adl").read_text())
        assert not is_model(program, interp([a, b, c, d], false=[a, b, c, d]))

    def test_empty_program(self):
        assert is_model(Program(), interp([a, b]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_partial_stable_models_are_models(self, seed):
        program = random_ground_program(random.Random(seed))
        for model in enumerate_pstable(program).models():
            assert is_model(program, model)


class TestDatabase:
    def test_true_and_unknown_overlap_rejected(self):
        with pytest.raises(ValidationError):
            Database.of(true=[Atom("p", ("a",))],
                        unknown=[Atom("p", ("a",))])

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ValidationError):
            Database.of(true=[Atom("p", (Variable("X"),))])

    def test_arity_conflict_rejected(self):
        with pytest.raises(ValidationError):
            Database.of(true=[Atom("p", ("a",)), Atom("p")])

    def test_totality(self):
        assert Database().is_total
        assert not Database.of(unknown=[Atom("p", ("a",))]).is_total


class TestDeltaSet:
    def test_conflicting_pair_rejected(self):
        atom = Atom("p", ("a",))
        with pytest.raises(ValidationError):
            DeltaSet.of([UpdateAtom(Polarity.INSERT, atom),
                         UpdateAtom(Polarity.DELETE, atom)])

    def test_non_ground_rejected(self):
        with pytest.raises(ValidationError):
            DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("p", (Variable("X"),)))])


class TestInfoLeq:
    pa = Atom("p", ("a",))

    def test_total_is_most_informative(self):
        assert info_leq(Database.of(unknown=[self.pa]), Database())

    def test_unknown_below_total(self):
        assert not info_leq(Database(), Database.of(unknown=[self.pa]))

    def test_reflexive(self):
        db = Database.of(true=[self.pa])
        assert info_leq(db, db)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaError):
            info_leq(Database.of(true=[Atom("p", ("a",))]),
                     Database.of(true=[Atom("p")]))

    @given(st.data())
    def test_partial_order(self, data):
        atoms = [Atom("p", (s,)) for s in "abc"]
        def db(draw):
            unknown = draw(st.sets(st.sampled_from(atoms)))
            return Database.of(unknown=unknown)
        d1, d2, d3 = db(data.draw), db(data.draw), db(data.draw)
        assert info_leq(d1, d1)
        if info_leq(d1, d2) and info_leq(d2, d1):
            assert d1.unknown_facts == d2.unknown_facts
        if info_leq(d1, d2) and info_leq(d2, d3):
            assert info_leq(d1, d3)


class TestInterpretation:
    def test_exactly_one_status_per_atom(self):
        m = interp([a, b, c], true=[a], false=[b])
        statuses = [(atom in m.true_atoms, atom in m.false_atoms,
                     atom in m.undefined_atoms()) for atom in (a, b, c)]
        assert all(sum(flags) == 1 for flags in statuses)

    def test_literal_set_view(self):
        m = interp([a, b, c], true=[a], false=[b])
        assert m.literal_set() == {(a, True), (b, False)}

    def test_union_consistency(self):
        assert interp([a], true=[a]).union_consistent(interp([a], true=[a]))
        assert not interp([a], true=[a]).union_consistent(interp([a], false=[a]))

    def test_render_key_tokens(self):
        # Quoted constants, an atom named not_x next to x, zero-ary atoms and
        # one named `not`: one token per atom, atoms in `str` order.
        its, ab = Atom("p", ("it's",)), Atom("p", ("A b",))
        not_x, x, plus = Atom("not_x"), Atom("x"), Atom("@plus_q", ("a", "1"))
        n, z, not_ = Atom("n"), Atom("z"), Atom("not")
        m = interp([its, ab, not_x, x, a, z, plus, n, not_],
                   true=[its, not_x, plus], false=[ab, x, a, not_])
        assert m.render_key() == ("@plus_q(a,1). not a. n? not not. not_x. "
                                  "not p('A b'). p('it''s'). not x. z?")


class TestValidation:
    def test_unsafe_negative_variable(self):
        with pytest.raises(ValidationError, match="unsafe"):
            parse_program("p(X) :- not q(X).")

    def test_reserved_namespace(self):
        with pytest.raises(ValidationError, match="reserved"):
            parse_program("@p(a).")

    def test_update_atom_over_derived_predicate(self):
        with pytest.raises(ValidationError, match="derived"):
            parse_program("s(X) :- q(X).\n+s(a) :- q(a).")

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError, match="arity"):
            parse_program("p(a).\np(a,b).")

    def test_delta_over_derived_predicate(self):
        program = parse_program("s(a) :- q(a).")
        delta = DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("s", ("a",)))])
        with pytest.raises(ValidationError):
            validate_update_program(UpdateProgram(delta, program))

    @pytest.mark.parametrize("text, message", [
        ("p(X) :- not q(X).",
         "unsafe rule: variable X occurs under negation but in no positive body "
         "literal in rule 'p(X) :- not q(X).' (rules.adl:1)"),
        ("@p(a) :- q(a).",
         "reserved predicate name @p in rule '@p(a) :- q(a).' (rules.adl:1)"),
        ("s(X) :- q(X).\n+s(a) :- q(a).",
         "update atom +s(a) targets derived predicate in rule '+s(a) :- q(a).' (rules.adl:2)"),
    ])
    def test_messages_name_the_rule_and_its_origin(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_program(text, origin="rules.adl")
        assert str(exc.value) == message
        # Without an origin the message ends with the rule.
        rules = tuple(Rule(r.head, r.body) for r in _program_of(text, "rules.adl").rules)
        with pytest.raises(ValidationError) as exc:
            validate_program(Program(rules))
        assert str(exc.value) == message[:message.rindex(" (")]

    def test_head_variable_with_builtin_is_allowed(self):
        program = parse_program("diff(X,D) :- mgr(Y,P,D), Y != X.")
        validate_program(program)

    def test_a_program_is_validated_once(self, monkeypatch):
        program = _program_of("p(a) :- q(a, b), not +r(b).\ns(X) :- q(X, X).", "<string>")
        seen = []
        head_atom = Rule.head_atom
        monkeypatch.setattr(Rule, "head_atom", lambda rule: seen.append(rule) or head_atom(rule))
        validate_program(program)
        assert len(seen) == 2
        assert program.cache == {"arities": {"p": 1, "q": 2, "r": 1, "s": 1},
                                 "idb": frozenset({"p", "s"})}
        validate_program(program)
        validate_update_program(UpdateProgram(DeltaSet(), program))
        assert len(seen) == 2

    def test_a_failed_validation_is_not_kept(self):
        program = _program_of("p(X) :- not q(X).", "<string>")
        for _ in range(2):
            with pytest.raises(ValidationError, match="unsafe"):
                validate_program(program)
        assert program.cache == {}


class TestRenameConstants:
    def test_identity(self):
        db = Database.of(true=[Atom("p", ("a",))])
        assert rename_constants(db, {}) == db

    def test_simple_swap(self):
        db = Database.of(true=[Atom("p", ("a",))])
        renamed = rename_constants(db, {"a": "b"})
        assert renamed == Database.of(true=[Atom("p", ("b",))])

    def test_non_bijective_rejected(self):
        db = Database.of(true=[Atom("p", ("a",)), Atom("p", ("b",))])
        with pytest.raises(ValidationError):
            rename_constants(db, {"a": "b"})

    def test_program_renaming(self):
        program = parse_program("p(a).\nq(X) :- p(X).")
        renamed = rename_constants(program, {"a": "z"})
        assert renamed == parse_program("p(z).\nq(X) :- p(X).")
