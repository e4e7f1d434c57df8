import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlog import (Atom, BuiltinLiteral, Database, DeltaSet,
                   Interpretation, ParseError, Polarity, Program, Rule,
                   StdLiteral, UpdateAtom, UpdLiteral, ValidationError,
                   Variable, parse_database, parse_delta, parse_program,
                   render)
from adlog.parse import _program_of
from adlog.selftest import InstanceGenerator


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
        assert rule.head.args == ("Hello",)

    def test_deterministic(self):
        text = "p(a).\nq(X) :- p(X), not r(X).\n+r(b) :- p(b)."
        assert parse_program(text) == parse_program(text)



class TestProgramCache:
    """Equal text and origin give one shared `Program`; errors are never kept."""

    def test_same_text_and_origin_give_the_same_program(self):
        text = "p(a).\nq(X) :- p(X), not r(X).\n+r(b) :- p(b).\n% kept once"
        assert parse_program(text, "kept.adl") is parse_program(text, "kept.adl")
        assert parse_program(text, "kept.adl") is _program_of(text, "kept.adl")

    def test_another_origin_gives_rules_with_that_origin(self):
        text = "p(a).\nq(X) :- p(X).\n% two origins"
        first, second = parse_program(text, "one.adl"), parse_program(text, "two.adl")
        assert first is not second and first == second
        assert [r.origin for r in first.rules] == ["one.adl:1", "one.adl:2"]
        assert [r.origin for r in second.rules] == ["two.adl:1", "two.adl:2"]

    def test_a_parse_error_is_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ParseError, match="cached.adl:2:1: expected"):
                parse_program("p(a)\nq(b).", "cached.adl")

    def test_a_failed_validation_is_raised_on_every_call(self):
        text = "p(X) :- not q(X).\n% unsafe, and parsed before its validation"
        program = _program_of(text, "<string>")
        for _ in range(2):
            with pytest.raises(ValidationError, match="unsafe"):
                parse_program(text)
        assert _program_of(text, "<string>") is program
        assert program.cache == {}

    def test_the_cache_stays_within_its_size(self):
        size = _program_of.cache_info().maxsize
        assert size is not None
        for i in range(size + 5):
            parse_program(f"p(c{i}).\n% bounded")
            assert _program_of.cache_info().currsize <= size
        assert _program_of.cache_info().currsize == size

class TestParseDatabase:
    def test_true_facts(self):
        db = parse_database("proj(p). mgr(x,p,d).")
        assert db.true_facts == frozenset({
            Atom("proj", ("p",)),
            Atom("mgr", ("x", "p", "d"))})
        assert not db.unknown_facts

    def test_unknown_fact(self):
        db = parse_database("emp(a)?")
        assert db.unknown_facts == frozenset({Atom("emp", ("a",))})

    def test_conflicting_status_rejected(self):
        with pytest.raises(ParseError):
            parse_database("p(a). p(a)?")
        with pytest.raises(ParseError):
            parse_database("p(a)? p(a).")

    def test_non_ground_rejected(self):
        with pytest.raises(ParseError):
            parse_database("p(X).")

    @pytest.mark.parametrize("text", ["p(a). q(b,c)? r.", "p( a ). q(b, % c\n c)? r."])
    def test_keeps_the_arities_it_read(self, text):
        db = parse_database(text)
        assert db.__dict__["arities"] == {"p": 1, "q": 2, "r": 0}
        assert Database.of(db.true_facts, db.unknown_facts).arities == db.arities


class TestParseDelta:
    def test_delete(self):
        delta = parse_delta("-proj(p).")
        assert delta.updates == frozenset({
            UpdateAtom(Polarity.DELETE, Atom("proj", ("p",)))})

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
constants = st.sampled_from(["a", "b", "c1", "42", "Quoted Name", "it's"])
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
    assert _program_of(render(program), "<string>") == program


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


# --- error locations -------------------------------------------------------

@pytest.mark.parametrize("parse, text, message", [
    (parse_program, "p(a).\nq(b) :- #.", "<string>:2:9: unexpected character '#'"),
    (parse_program, "p(a).\n  q('b).", "<string>:2:5: unterminated quoted constant"),
    (parse_program, "p(a)\nq(b).", "<string>:2:1: expected '.', found 'q'"),
    (parse_program, "p(a) :-\n  q(b, .", "<string>:2:8: expected a term, found '.'"),
    (parse_program, "p(a) :- q(b c).", "<string>:1:13: expected ')', found 'c'"),
    (parse_program, "p(a) :- X q.", "<string>:1:11: expected '=' or '!=', found 'q'"),
    (parse_program, "p(a) :- Q(b).", "<string>:1:10: expected '=' or '!=', found '('"),
    (parse_program, "p(a) :- 'Q'(b).", "<string>:1:12: expected '=' or '!=', found '('"),
    (parse_program, "p(a).\nQ :- p.", "<string>:2:1: expected 'ident', found 'Q'"),
    (parse_program, "p(X) :- q(X),\n  not X = a.",
     "<string>:2:12: builtins cannot be negated; use the dual operator"),
    (parse_program, "p :- not 'a' = b.",
     "<string>:1:17: builtins cannot be negated; use the dual operator"),
    (parse_program, "p(a) % no full stop", "<string>:1:6: expected '.', found ''"),
    (parse_program, "p(a)  ", "<string>:1:7: expected '.', found ''"),
    (parse_database, "p(a).\n q(X).", "<string>:2:2: database fact q(X) is not ground"),
    (parse_database, "p(a).\np(a)?", "<string>:2:1: fact p(a) listed as both true and unknown"),
    (parse_database, "p(a)? p(a).", "<string>:1:7: fact p(a) listed as both true and unknown"),
    (parse_database, "p(a)!", "<string>:1:5: unexpected character '!'"),
    (parse_database, "p(a) q.", "<string>:1:6: expected '.' or '?', found 'q'"),
    (parse_delta, "+p(a).\n-q(X).", "<string>:2:1: update on non-ground atom q(X)"),
    (parse_delta, "+p(a).\np(b).", "<string>:2:1: expected '+' or '-', found 'p'"),
    (parse_database, "q(a). p(a).\n p(a,b). p(c,d).",
     "<string>:2:2: predicate p used with arity 1 and 2"),
    (parse_delta, "+s(a,b). -q(a).\n+s(c). -s(d,e).",
     "<string>:2:1: predicate s used with arity 2 and 1"),
    (parse_delta, "+p(a). -q(a).\n  -p(a).", "<string>:2:3: conflicting updates +p(a) and -p(a)"),
])
def test_error_location(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_malformed_token_reported_before_an_earlier_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse_program("p q.\nr. ½")
    assert str(exc.value) == "<string>:2:4: unexpected character '½'"


def test_lines_count_newlines_inside_quoted_constants():
    with pytest.raises(ParseError) as exc:
        parse_program("p('a\nb').\nq(a)\nr(b).")
    assert str(exc.value) == "<string>:4:1: expected '.', found 'r'"
    with pytest.raises(ParseError) as exc:
        parse_program("p('a\nb') q.")
    assert str(exc.value) == "<string>:2:5: expected '.', found 'q'"
    program = parse_program("p('a\n\nb').\nq(a).", origin="f.adl")
    assert [rule.origin for rule in program.rules] == ["f.adl:1", "f.adl:4"]
    assert program.rules[0].head.args == ("a\n\nb",)


# --- the per-character tokenizer and parser, kept as an oracle ----------------

@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'var' | 'quoted' | punctuation literal | 'eof'
    text: str
    line: int
    column: int


def oracle_tokenize(text: str, origin: str) -> list[_Token]:
    """One loop iteration per character.

    Unlike the tokenizer this was taken from, newlines inside a quoted
    constant count towards the line and column of what follows it.
    """
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "'":
            # A quote inside a quoted constant is written twice.
            j = text.find("'", i + 1)
            while 0 <= j < n - 1 and text[j + 1] == "'":
                j = text.find("'", j + 2)
            if j < 0:
                raise ParseError("unterminated quoted constant", origin, line, col)
            tokens.append(_Token("quoted", text[i + 1:j].replace("''", "'"), line, col))
            if "\n" in text[i:j]:
                line += text.count("\n", i, j)
                col = j + 1 - text.rfind("\n", i, j)
            else:
                col += j - i + 1
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in (":-", "!="):
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if c in "(),.?+-=":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c.isdigit() or c == "_" or c == "@":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_" or (j == i and text[j] == "@")):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", origin, line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _OracleParser:
    """Recursive descent with one method call per token."""

    def __init__(self, text: str, origin: str):
        self.tokens = oracle_tokenize(text, origin)
        self.origin = origin
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {tok.text!r}", tok)
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.origin, tok.line, tok.column)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def term(self):
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.text)
        if tok.kind in ("ident", "quoted"):
            return tok.text
        raise self.error(f"expected a term, found {tok.text!r}", tok)

    def atom(self) -> Atom:
        tok = self.expect("ident")
        if self.peek().kind != "(":
            return Atom(tok.text)
        self.next()
        args = [self.term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return Atom(tok.text, tuple(args))

    def head(self):
        if self.peek().kind in ("+", "-"):
            polarity = Polarity.INSERT if self.next().kind == "+" else Polarity.DELETE
            return UpdateAtom(polarity, self.atom())
        return self.atom()

    def literal(self):
        positive = True
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            following = self.tokens[self.pos + 1]
            if following.kind in ("+", "-", "ident", "var", "quoted"):
                self.next()
                positive = False
        if self.peek().kind in ("+", "-"):
            polarity = Polarity.INSERT if self.next().kind == "+" else Polarity.DELETE
            return UpdLiteral(UpdateAtom(polarity, self.atom()), positive)
        tok = self.peek()
        if tok.kind in ("var", "quoted") or (
                tok.kind == "ident" and self.tokens[self.pos + 1].kind in ("=", "!=")):
            left = self.term()
            op_tok = self.next()
            if op_tok.kind not in ("=", "!="):
                raise self.error(f"expected '=' or '!=', found {op_tok.text!r}", op_tok)
            right = self.term()
            if not positive:
                raise self.error("builtins cannot be negated; use the dual operator")
            return BuiltinLiteral(op_tok.kind, left, right)
        return StdLiteral(self.atom(), positive)

    def rule(self) -> Rule:
        start = self.peek()
        head = self.head()
        body = []
        if self.peek().kind == ":-":
            self.next()
            body.append(self.literal())
            while self.peek().kind == ",":
                self.next()
                body.append(self.literal())
        self.expect(".")
        return Rule(head, tuple(body), origin=f"{self.origin}:{start.line}")

    def program(self) -> Program:
        rules = []
        while not self.at_end():
            rules.append(self.rule())
        return Program(tuple(rules))

    def arity(self, arities: dict, atom: Atom, tok: _Token) -> None:
        """Record the arity of the fact or update at `tok`; a clash is reported there."""
        seen = arities.setdefault(atom.predicate, atom.arity)
        if seen != atom.arity:
            raise self.error(f"predicate {atom.predicate} used with arity {seen} and {atom.arity}",
                             tok)

    def database(self) -> Database:
        true_facts, unknown_facts, arities = set(), set(), {}
        while not self.at_end():
            tok = self.peek()
            atom = self.atom()
            if not atom.is_ground():
                raise self.error(f"database fact {atom} is not ground", tok)
            status = self.next()
            if status.kind == ".":
                if atom in unknown_facts:
                    raise self.error(f"fact {atom} listed as both true and unknown", tok)
                true_facts.add(atom)
            elif status.kind == "?":
                if atom in true_facts:
                    raise self.error(f"fact {atom} listed as both true and unknown", tok)
                unknown_facts.add(atom)
            else:
                raise self.error(f"expected '.' or '?', found {status.text!r}", status)
            self.arity(arities, atom, tok)
        return Database.of(true_facts, unknown_facts)

    def delta(self) -> DeltaSet:
        polarities, arities = {}, {}
        while not self.at_end():
            tok = self.next()
            if tok.kind not in ("+", "-"):
                raise self.error(f"expected '+' or '-', found {tok.text!r}", tok)
            polarity = Polarity.INSERT if tok.kind == "+" else Polarity.DELETE
            atom = self.atom()
            if not atom.is_ground():
                raise self.error(f"update on non-ground atom {atom}", tok)
            self.expect(".")
            if polarities.setdefault(atom, polarity) is not polarity:
                raise self.error(f"conflicting updates +{atom} and -{atom}", tok)
            self.arity(arities, atom, tok)
        return DeltaSet.of(UpdateAtom(p, atom) for atom, p in polarities.items())


PARSERS = {
    "program": lambda text: _program_of(text, "f.adl"),
    "database": lambda text: parse_database(text, "f.adb"),
    "delta": lambda text: parse_delta(text, "f.adu"),
}
ORIGINS = {"program": "f.adl", "database": "f.adb", "delta": "f.adu"}


def outcome(parse, text: str):
    """What parsing `text` gives: the value, with rule origins, or the error."""
    try:
        value = parse(text)
    except Exception as exc:  # the two sides must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    if isinstance(value, Program):
        return [(rule, rule.origin) for rule in value.rules]
    return value


def assert_agrees_with_oracle(text: str) -> None:
    for kind, parse in PARSERS.items():
        oracle = lambda t: getattr(_OracleParser(t, ORIGINS[kind]), kind)()
        assert outcome(parse, text) == outcome(oracle, text), (kind, text)


def test_oracle_agrees_on_fixture_files(fixtures_dir):
    paths = sorted(path for path in fixtures_dir.rglob("*") if path.is_file())
    assert len(paths) > 20
    for path in paths:
        assert_agrees_with_oracle(path.read_text(encoding="utf-8"))


def test_oracle_agrees_on_generated_instances():
    gen = InstanceGenerator(random.Random(4099))
    for _ in range(300):
        session = gen.instance()
        for obj in (session.up.program, session.database, session.up.delta,
                    session.rewritten("st"), session.wf("st")):
            assert_agrees_with_oracle(render(obj))


SOUP = ["p", "q", "a", "b1", "X", "Yz", "É", "é", "_", "_x", "@", "@r", "7", "٣", "½", "a½",
        "not", "not ", "(", ")", ",", ".", "?", "+", "-", "=", "!=", ":-", ":", "!", "#",
        "'", "''", "'a b'", "'it''s'", "'x\ny'", "%", "% c", "\n", "\r", "\t", " ", " ",
        "\u00a0", "\u2028", "p(a).", "p(a)?", "+q(X) :- p(X), not -r(X).", "X != Y",
        "not p(a).", "'Q' = a", "-p(b).", "not X = a", "not 'Q' != b", "p(a)? p(a).",
        "q(X, 'Q')"]


def test_oracle_agrees_on_token_soups():
    rng = random.Random(7)
    for _ in range(2000):
        assert_agrees_with_oracle("".join(rng.choices(SOUP, k=rng.randint(1, 14))))


# --- well-formed facts and updates, in the spelling `render` writes and others ---

FACT_CASES = ["", "p.", "p(a).\n", "mgr(x,p,d).\nproj(p).\n", "p(a)? q(b).", "1p(2).", "xY(xY).",
              "p('it''s').", "p(_x).", "_x(a).", "é(a).", "p(é).", "@ck_a(x).", "p(A).",
              "p('a').", "p( a ).", "p(a,% c\n b).", "p(\na\n).\n", "p. p(a).", "p(a). p(a,b).",
              "p(a). p(a)?", "p(a)? p(a).", "p(a). p(a).", "+p(a).\n-q(b,c).\n", "+p. -p.",
              "+q(a). +q(a,b).", "+p(a). +p(a).", "+ p(a).", "+p(a)?", "-p(a).-q(a).",
              "+@plus_p(a).", "+p(0_,a1).\r\n-p(b,c).\r\n", "p(a). q(b).", "p(a).\x1cq(b)."]
FACT_NAMES = ["p", "q", "mgr", "1p", "xY", "p_2", "é", "@ck_a", "_x"]
FACT_TERMS = ["a", "b1", "x", "2", "0_", "xY", "'a'", "'it''s'", "'Quoted Name'", "_x", "é", "A"]


def spelled_atom(rng: random.Random, name: str, args: list[str]) -> str:
    """`name(args)` as `render` writes it, or with spaces, a comment or line breaks inside."""
    if not args:
        return name
    style = rng.choice(["canonical"] * 4 + ["spaced", "comment", "lines"])
    if style == "canonical":
        return f"{name}({','.join(args)})"
    if style == "spaced":
        return f"{name} ( {' , '.join(args)} )"
    if style == "comment":
        return f"{name}( % note\n{', '.join(args)})"
    return f"{name}(\n  " + ",\n  ".join(args) + "\n)"


def well_formed_text(rng: random.Random) -> str:
    """A database (or, half the time, delta) text whose facts are mostly well formed.

    Mostly plain words in the spelling `render` writes.  Now and then a name or
    term that only the grammar reads, a second arity for a predicate, an atom
    listed with two statuses or signs, or a variable.
    """
    plain = rng.random() < 0.6
    names = FACT_NAMES[:5] if plain else FACT_NAMES
    terms = FACT_TERMS[:5] if plain else FACT_TERMS
    arity = {name: rng.randint(0, 3) for name in names}
    pool = []
    for _ in range(rng.randint(1, 6)):
        name = rng.choice(names)
        n = arity[name] if rng.random() < 0.95 else rng.randint(0, 3)
        pool.append((name, [rng.choice(terms) for _ in range(n)]))
    signed = rng.random() < 0.5
    keys = ["+", "-"] if signed else [".", "?"]
    key_of = {i: rng.choice(keys) for i in range(len(pool))}
    out = []
    for _ in range(rng.randint(0, 8)):
        i = rng.randrange(len(pool))
        key = key_of[i] if rng.random() < 0.95 else rng.choice(keys)
        atom = spelled_atom(rng, *pool[i])
        out.append(f"{key}{atom}." if signed else f"{atom}{key}")
        out.append(rng.choice(["\n"] * 6 + ["", " ", "\t", "\r\n", "\n\n", "  % note\n"]))
    return "".join(out)


def assert_read_as_built(text: str) -> None:
    """What a text reads as equals the same atoms built and checked by `Database.of` or
    `DeltaSet.of`, with the same arities and order, and each atom's text rendered anew."""
    for parse in (PARSERS["database"], PARSERS["delta"]):
        value = outcome(parse, text)
        if isinstance(value, Database):
            built = Database.of(value.true_facts, value.unknown_facts)
            assert value == built and value.arities == built.arities, text
            atoms = value.true_facts | value.unknown_facts
        elif isinstance(value, DeltaSet):
            built = DeltaSet.of(value.updates)
            assert value == built and value.ordered == built.ordered, text
            atoms = [u.atom for u in value.updates]
        else:
            continue
        assert all(str(a) == str(Atom(a.predicate, a.args)) for a in atoms), text


def test_oracle_agrees_on_well_formed_facts():
    from adlog.parse import _read
    rng = random.Random(11)
    texts = FACT_CASES + [well_formed_text(rng) for _ in range(1500)]
    read = 0
    for text in texts:
        assert_agrees_with_oracle(text)
        assert_read_as_built(text)
        read += _read(text, False) is not None or _read(text, True) is not None
    # Both paths are taken: the pattern reads a good share, the grammar the rest.
    assert 300 < read < len(texts) - 300, read
