"""Textual formats for programs (.adl), databases (.adb) and deltas (.adu).

The grammar is line-comment based ('%'), whitespace-insensitive:

    rule    := head ":-" body "." | head "."
    head    := atom | "+" atom | "-" atom
    body    := literal ("," literal)*
    literal := ["not"] ["+"|"-"] atom | term ("="|"!=") term
    atom    := predicate [ "(" term ("," term)* ")" ]

Database lines are `atom.` (true) or `atom?` (unknown); delta lines are
`+atom.` or `-atom.`.  Rendering is canonical and round-trips structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (Atom, BuiltinLiteral, Constant, Database, DeltaSet, Head,
                    Interpretation, Literal, ParseError, Polarity, Program,
                    Rule, StdLiteral, Term, UpdateAtom, UpdLiteral,
                    ValidationError, Variable, validate_program)

PROGRAM_SUFFIX = ".adl"
DATABASE_SUFFIX = ".adb"
DELTA_SUFFIX = ".adu"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'var' | 'quoted' | punctuation literal | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str, origin: str) -> list[_Token]:
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


class _Parser:
    def __init__(self, text: str, origin: str):
        self.tokens = _tokenize(text, origin)
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

    # -- grammar -----------------------------------------------------------

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.text)
        if tok.kind == "ident":
            return Constant(tok.text)
        if tok.kind == "quoted":
            return Constant(tok.text)
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

    def head(self) -> Head:
        if self.peek().kind in ("+", "-"):
            polarity = Polarity.INSERT if self.next().kind == "+" else Polarity.DELETE
            return UpdateAtom(polarity, self.atom())
        return self.atom()

    def literal(self) -> Literal:
        positive = True
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            following = self.tokens[self.pos + 1]
            # 'not' negates atoms and update atoms; if a builtin follows, the
            # builtin branch below rejects the negation with a clear message.
            if following.kind in ("+", "-", "ident", "var", "quoted"):
                self.next()
                positive = False
        if self.peek().kind in ("+", "-"):
            polarity = Polarity.INSERT if self.next().kind == "+" else Polarity.DELETE
            return UpdLiteral(UpdateAtom(polarity, self.atom()), positive)
        # Builtins start with a term; atoms start with an identifier.  Look ahead
        # for '='/'!=' after a single term to disambiguate.
        if self.peek().kind in ("var", "quoted") or self._term_followed_by_comparison():
            left = self.term()
            op_tok = self.next()
            if op_tok.kind not in ("=", "!="):
                raise self.error(f"expected '=' or '!=', found {op_tok.text!r}", op_tok)
            right = self.term()
            if not positive:
                raise self.error("builtins cannot be negated; use the dual operator")
            return BuiltinLiteral(op_tok.kind, left, right)
        return StdLiteral(self.atom(), positive)

    def _term_followed_by_comparison(self) -> bool:
        tok = self.peek()
        if tok.kind not in ("ident", "quoted"):
            return False
        return self.tokens[self.pos + 1].kind in ("=", "!=")

    def rule(self) -> Rule:
        start = self.peek()
        head = self.head()
        body: list[Literal] = []
        if self.peek().kind == ":-":
            self.next()
            body.append(self.literal())
            while self.peek().kind == ",":
                self.next()
                body.append(self.literal())
        self.expect(".")
        return Rule(head, tuple(body), origin=f"{self.origin}:{start.line}")


# ---------------------------------------------------------------------------
# Public parsing entry points
# ---------------------------------------------------------------------------

def parse_program(text: str, origin: str = "<string>", *, validate: bool = True) -> Program:
    parser = _Parser(text, origin)
    rules = []
    while not parser.at_end():
        rules.append(parser.rule())
    program = Program(tuple(rules))
    if validate:
        validate_program(program)
    return program


def parse_database(text: str, origin: str = "<string>") -> Database:
    parser = _Parser(text, origin)
    true_facts: set[Atom] = set()
    unknown_facts: set[Atom] = set()
    while not parser.at_end():
        tok = parser.peek()
        atom = parser.atom()
        if not atom.is_ground():
            raise parser.error(f"database fact {atom} is not ground", tok)
        status = parser.next()
        if status.kind == ".":
            if atom in unknown_facts:
                raise parser.error(f"fact {atom} listed as both true and unknown", tok)
            true_facts.add(atom)
        elif status.kind == "?":
            if atom in true_facts:
                raise parser.error(f"fact {atom} listed as both true and unknown", tok)
            unknown_facts.add(atom)
        else:
            raise parser.error(f"expected '.' or '?', found {status.text!r}", status)
    try:
        return Database.of(true_facts, unknown_facts)
    except ValidationError as exc:
        raise ParseError(str(exc), origin) from exc


def parse_delta(text: str, origin: str = "<string>") -> DeltaSet:
    parser = _Parser(text, origin)
    updates: set[UpdateAtom] = set()
    while not parser.at_end():
        tok = parser.next()
        if tok.kind not in ("+", "-"):
            raise parser.error(f"expected '+' or '-', found {tok.text!r}", tok)
        polarity = Polarity.INSERT if tok.kind == "+" else Polarity.DELETE
        atom = parser.atom()
        if not atom.is_ground():
            raise parser.error(f"update on non-ground atom {atom}", tok)
        parser.expect(".")
        updates.add(UpdateAtom(polarity, atom))
    try:
        return DeltaSet.of(updates)
    except ValidationError as exc:
        raise ParseError(str(exc), origin) from exc


def parse_interpretation(text: str, origin: str = "<string>") -> Interpretation:
    """Inverse of render() for interpretations; entries are `a.`, `not a.` or `a?`."""
    parser = _Parser(text, origin)
    true_atoms: set[Atom] = set()
    false_atoms: set[Atom] = set()
    universe: set[Atom] = set()
    while not parser.at_end():
        negated = False
        if parser.peek().kind == "ident" and parser.peek().text == "not":
            parser.next()
            negated = True
        atom = parser.atom()
        status = parser.next()
        universe.add(atom)
        if status.kind == "." and negated:
            false_atoms.add(atom)
        elif status.kind == ".":
            true_atoms.add(atom)
        elif status.kind == "?" and not negated:
            pass
        else:
            raise parser.error("malformed interpretation entry", status)
    return Interpretation(frozenset(universe), frozenset(true_atoms), frozenset(false_atoms))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(obj) -> str:
    """Canonical text for a Program, Database, DeltaSet or Interpretation."""
    from .rewrite import GroundProgram
    if isinstance(obj, (Program, GroundProgram)):
        return render_rules(obj.rules)
    if isinstance(obj, Database):
        lines = [f"{atom}." for atom in sorted(obj.true_facts, key=str)]
        lines += [f"{atom}?" for atom in sorted(obj.unknown_facts, key=str)]
        return "\n".join(lines) + ("\n" if lines else "")
    if isinstance(obj, DeltaSet):
        lines = [f"{u}." for u in sorted(obj.updates, key=str)]
        return "\n".join(lines) + ("\n" if lines else "")
    if isinstance(obj, Interpretation):
        return obj.render_key()
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_rules(rules) -> str:
    ordered = sorted(set(rules), key=lambda r: (r.head_atom().predicate, str(r)))
    return "\n".join(str(r) for r in ordered) + ("\n" if ordered else "")
