import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlog import (Atom, Constant, Database, DeltaSet, Interpretation,
                   ParseError, Polarity, Program, Rule, StdLiteral,
                   UpdateAtom, UpdLiteral, ValidationError, Variable,
                   parse_database, parse_delta, parse_interpretation,
                   parse_program, render)


class TestParseProgram:
    def test_active_rule_with_delete_head(self):
        program = parse_program("-mgr(X,P,D) :- -proj(P), mgr(X,P,D).")
        (rule,) = program.rules
        assert rule.is_active
        assert rule.head.polarity is Polarity.DELETE
        assert rule.head.atom.predicate == "mgr"
        assert rule.head.atom.arity == 3
        assert isinstance(rule.body[0], UpdLiteral)
        assert isinstance(rule.body[1], StdLiteral)

    def test_empty_source(self):
        assert parse_program("") == Program()

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("p(X) :- not q(X).")

    def test_negated_update_literal(self):
        program = parse_program("-mgr(X,D) :- mgr(X,D), not +mgr(X,D), +confirm(Y,D).")
        (rule,) = program.rules
        assert not rule.body[1].positive
        assert rule.body[1].uatom.polarity is Polarity.INSERT

    def test_builtin_neq(self):
        program = parse_program("diff(X,D) :- mgr(Y,P,D), Y != X.")
        (rule,) = program.rules
        assert rule.body[1].op == "!="

    def test_propositional_atoms(self):
        program = parse_program("a :- not b.")
        (rule,) = program.rules
        assert rule.head == Atom("a")

    def test_comments_and_whitespace(self):
        text = "% comment line\n  p(a).   % trailing\n\n\tq(X)\t:-\tp(X)."
        assert parse_program(text) == parse_program("p(a). q(X) :- p(X).")

    def test_syntax_error_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p(a)\nq(b).")
        assert "2:" in str(exc.value)

    def test_quoted_constant(self):
        program = parse_program("p('Hello').")
        (rule,) = program.rules
        assert rule.head.args == (Constant("Hello"),)

    def test_deterministic(self):
        text = "p(a).\nq(X) :- p(X), not r(X).\n+r(b) :- p(b)."
        assert parse_program(text) == parse_program(text)


class TestParseDatabase:
    def test_true_facts(self):
        db = parse_database("proj(p). mgr(x,p,d).")
        assert db.true_facts == frozenset({
            Atom("proj", (Constant("p"),)),
            Atom("mgr", (Constant("x"), Constant("p"), Constant("d")))})
        assert not db.unknown_facts

    def test_unknown_fact(self):
        db = parse_database("emp(a)?")
        assert db.unknown_facts == frozenset({Atom("emp", (Constant("a"),))})

    def test_conflicting_status_rejected(self):
        with pytest.raises(ParseError):
            parse_database("p(a). p(a)?")
        with pytest.raises(ParseError):
            parse_database("p(a)? p(a).")

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError):
            parse_database("p(X).")


class TestParseDelta:
    def test_delete(self):
        delta = parse_delta("-proj(p).")
        assert delta.updates == frozenset({
            UpdateAtom(Polarity.DELETE, Atom("proj", (Constant("p"),)))})

    def test_insert(self):
        delta = parse_delta("+confirm(x,d).")
        (update,) = delta.updates
        assert update.polarity is Polarity.INSERT

    def test_conflict_rejected(self):
        with pytest.raises(ParseError):
            parse_delta("+p(a). -p(a).")

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError):
            parse_delta("+p(X).")


class TestRender:
    def test_empty_database_renders_empty(self):
        assert render(Database()) == ""

    def test_interpretation_encoding(self):
        m = Interpretation(frozenset({Atom("a"), Atom("b"), Atom("c")}),
                           frozenset({Atom("a")}), frozenset({Atom("b")}))
        assert render(m) == "a. not b. c?"

    def test_interpretation_round_trip(self):
        m = Interpretation(frozenset({Atom("a"), Atom("b"), Atom("c")}),
                           frozenset({Atom("a")}), frozenset({Atom("b")}))
        assert parse_interpretation(render(m)) == m

    def test_corpus_round_trip(self, fixtures_dir):
        for path in sorted(fixtures_dir.iterdir()):
            if path.suffix == ".adl":
                program = parse_program(path.read_text())
                assert parse_program(render(program)) == program, path.name
            elif path.suffix == ".adb":
                db = parse_database(path.read_text())
                assert parse_database(render(db)) == db, path.name
            elif path.suffix == ".adu":
                delta = parse_delta(path.read_text())
                assert parse_delta(render(delta)) == delta, path.name

    def test_rules_sorted_by_head_predicate(self):
        program = parse_program("z(a). a(b). m(c).")
        lines = render(program).splitlines()
        assert lines == ["a(b).", "m(c).", "z(a)."]


# --- randomized round-trips ------------------------------------------------

names = st.sampled_from(["p", "q", "r", "s", "edge", "mgr2", "k9"])
constants = st.sampled_from([Constant("a"), Constant("b"), Constant("c1"),
                             Constant("42"), Constant("Quoted Name"),
                             Constant("it's")])
variables = st.sampled_from([Variable("X"), Variable("Y"), Variable("Zz")])
ARITIES = {"p": 0, "q": 1, "r": 2, "s": 1, "edge": 2, "mgr2": 3, "k9": 1}


def atom_strategy(term_pool):
    return names.flatmap(
        lambda n: st.tuples(st.just(n), st.lists(term_pool, min_size=ARITIES[n],
                                                 max_size=ARITIES[n]))
    ).map(lambda pair: Atom(pair[0], tuple(pair[1])))


ground_atoms = atom_strategy(constants)
free_atoms = atom_strategy(st.one_of(constants, variables))


def literal_strategy():
    std = st.tuples(free_atoms, st.booleans()).map(lambda p: StdLiteral(*p))
    upd = st.tuples(st.sampled_from(list(Polarity)), free_atoms, st.booleans()).map(
        lambda t: UpdLiteral(UpdateAtom(t[0], t[1]), t[2]))
    return st.one_of(std, upd)


rules = st.tuples(
    st.one_of(free_atoms,
              st.tuples(st.sampled_from(list(Polarity)), free_atoms).map(
                  lambda p: UpdateAtom(*p))),
    st.lists(literal_strategy(), max_size=4),
).map(lambda p: Rule(p[0], tuple(p[1])))


@settings(max_examples=150, deadline=None)
@given(st.lists(rules, max_size=6))
def test_program_round_trip(rule_list):
    program = Program(tuple(rule_list))
    assert parse_program(render(program), validate=False) == program


@settings(max_examples=100, deadline=None)
@given(st.sets(ground_atoms, max_size=6).flatmap(
    lambda atoms: st.tuples(st.just(atoms), st.sets(ground_atoms, max_size=6).map(
        lambda unknown: unknown - atoms))))
def test_database_round_trip(parts):
    true_facts, unknown = parts
    db = Database.of(true_facts, unknown)
    assert parse_database(render(db)) == db


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(ground_atoms, st.sampled_from(list(Polarity)), max_size=6))
def test_delta_round_trip(mapping):
    delta = DeltaSet.of(UpdateAtom(pol, atom) for atom, pol in mapping.items())
    assert parse_delta(render(delta)) == delta
