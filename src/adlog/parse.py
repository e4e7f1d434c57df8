"""Textual formats for programs (.adl), databases (.adb) and deltas (.adu).

The grammar is line-comment based ('%'), whitespace-insensitive:

    rule    := head ":-" body "." | head "."
    head    := atom | "+" atom | "-" atom
    body    := literal ("," literal)*
    literal := ["not"] ["+"|"-"] atom | term ("="|"!=") term
    atom    := predicate [ "(" term ("," term)* ")" ]

Database lines are `atom.` (true) or `atom?` (unknown); delta lines are
`+atom.` or `-atom.`.  Rendering is canonical and round-trips structurally.

Tokens come from one compiled pattern, `_TOKEN`: after whitespace, a `%`
comment (dropped), a quoted constant `'...'` (a quote inside is written
twice), `:-`, `!=`, one of `( ) , . ? + = -`, a word (`\\w+`, or `@` then
`\\w*`), or any other character, which is an error.  `findall` runs it over
each line in C, and over the whole text only when a quoted constant spans
lines.  The grammar reads the token strings by index and takes a token's kind
from its first character.  Errors read `origin:line:column`, counted in
characters and computed only on that path; a malformed token anywhere in the
text is reported before any syntax error.
"""

from __future__ import annotations

import re

from .model import (Atom, BuiltinLiteral, Constant, Database, DeltaSet,
                    Interpretation, ParseError, Polarity, Program, Rule,
                    StdLiteral, UpdateAtom, UpdLiteral, ValidationError,
                    Variable, validate_program)


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""\s*(
    %[^\n]*                         # a comment
    |'[^']*(?:''[^']*)*'(?!')       # a quoted constant
    |:-|!=|[(),.?+=-]|@\w*|\w+      # punctuation or a word
    |\S)                            # any other character is an error
""", re.VERBOSE)
_POLARITY = {"+": Polarity.INSERT, "-": Polarity.DELETE}


class _Kinds(dict):
    """First character of a token -> 'var', 'ident', 'quoted', 'eof' or the character."""

    def __missing__(self, c: str) -> str:
        word = c.isalpha() or c.isdigit() or c in "_@"
        return ("var" if c.isupper() else "ident") if word else c


_KIND = _Kinds({"'": "quoted", "": "eof"})
_KIND.update({c: _KIND[c] for c in map(chr, range(128)) if c not in _KIND})  # ASCII only


def _scan(text: str) -> tuple[list[str], list[int]]:
    """The tokens of `text` and the line of each; the end marker '' follows the tokens."""
    tokens, lines = [], []
    for number, line in enumerate(text.split("\n"), 1):
        found = _TOKEN.findall(line)
        if found and found[-1][0] == "%":
            del found[-1]
        tokens += found
        lines += [number] * len(found)
    if "'" in tokens:  # a quote that does not close on its own line
        tokens, lines, line, last = [], [], 1, 0
        for start, token in _spans(text):
            line += text.count("\n", last, start)
            last = start
            tokens.append(token)
            lines.append(line)
    tokens.append("")
    return tokens, lines


def _spans(text: str) -> list[tuple[int, str]]:
    """Each token of `text` but comments, with its offset."""
    return [(m.start(1), m.group(1)) for m in _TOKEN.finditer(text) if m.group(1)[0] != "%"]


def _shown(token: str) -> str:
    """A token as messages quote it: a quoted constant by its symbol."""
    return token[1:-1].replace("''", "'") if _KIND[token[:1]] == "quoted" else token


class _Syntax(Exception):
    """A message about the token at index `args[1]`; located by `_parsed`."""


def _expected(what: str, tokens: list[str], i: int) -> _Syntax:
    return _Syntax(f"expected {what}, found {_shown(tokens[i])!r}", i)


def _located(text: str, origin: str, message: str, index: int) -> ParseError:
    spans = _spans(text)
    for start, token in spans:  # a malformed token comes first, wherever it is
        c = token[0]
        if token in ("'", ":", "!") or (_KIND[c] == c and c not in "(),.?+=-:!"):
            message = "unterminated quoted constant" if c == "'" else f"unexpected character {c!r}"
            offset = start
            break
    else:
        if index < len(spans):
            offset = spans[index][0]
        else:  # the end of the text, or the start of a comment that ends it
            code_end = spans[-1][0] + len(spans[-1][1]) if spans else 0
            comment = text.find("%", max(code_end, text.rfind("\n") + 1))
            offset = comment if comment >= 0 else len(text)
    return ParseError(message, origin, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _parsed(grammar, text: str, origin: str):
    tokens, lines = _scan(text)
    try:
        return grammar(tokens, lines, origin, {})
    except _Syntax as exc:
        raise _located(text, origin, *exc.args) from None
    except ValidationError as exc:
        raise ParseError(str(exc), origin) from exc


# ---------------------------------------------------------------------------
# Grammar: each function reads from tokens[i] and returns (value, next index).
# `terms` maps a token already read as a term to that term.
# ---------------------------------------------------------------------------

def _term(tokens: list[str], i: int, terms: dict):
    token = tokens[i]
    term = terms.get(token)
    if term is None:
        kind = _KIND[token[:1]]
        if kind not in ("var", "ident") and not (kind == "quoted" and len(token) > 1):
            raise _expected("a term", tokens, i)
        term = terms[token] = Variable(token) if kind == "var" else Constant(_shown(token))
    return term


def _atom(tokens: list[str], i: int, terms: dict) -> tuple[Atom, int]:
    name = tokens[i]
    if _KIND[name[:1]] != "ident":
        raise _expected("'ident'", tokens, i)
    args = []
    i += 1
    while tokens[i] == ("," if args else "("):  # '(' before the first argument
        args.append(_term(tokens, i + 1, terms))
        i += 2
    if not args:
        return Atom(name), i
    if tokens[i] != ")":
        raise _expected("')'", tokens, i)
    return Atom(name, tuple(args)), i + 1


def _head(tokens: list[str], i: int, terms: dict):
    """An atom, or an update atom when '+' or '-' comes first."""
    polarity = _POLARITY.get(tokens[i])
    if polarity is None:
        return _atom(tokens, i, terms)
    atom, i = _atom(tokens, i + 1, terms)
    return UpdateAtom(polarity, atom), i


def _literal(tokens: list[str], i: int, terms: dict):
    token = tokens[i]
    positive = True
    # 'not' negates atoms and update atoms; if a builtin follows, the builtin
    # branch below rejects the negation with a clear message.
    if token == "not" and _KIND[tokens[i + 1][:1]] in ("+", "-", "ident", "var", "quoted"):
        i += 1
        token = tokens[i]
        positive = False
    if token in _POLARITY:
        uatom, i = _head(tokens, i, terms)
        return UpdLiteral(uatom, positive), i
    # Builtins start with a term; atoms start with an identifier.
    kind = _KIND[token[:1]]
    if kind == "var" or kind == "quoted" or (kind == "ident" and tokens[i + 1] in ("=", "!=")):
        left = _term(tokens, i, terms)
        op = tokens[i + 1]
        if op != "=" and op != "!=":
            raise _expected("'=' or '!='", tokens, i + 1)
        right = _term(tokens, i + 2, terms)
        if not positive:
            raise _Syntax("builtins cannot be negated; use the dual operator", i + 3)
        return BuiltinLiteral(op, left, right), i + 3
    atom, i = _atom(tokens, i, terms)
    return StdLiteral(atom, positive), i


def _program(tokens: list[str], lines: list[int], origin: str, terms: dict) -> Program:
    rules, i = [], 0
    while i < len(lines):
        start = i
        head, i = _head(tokens, i, terms)
        body = []
        while tokens[i] == ("," if body else ":-"):  # ':-' before the first literal
            literal, i = _literal(tokens, i + 1, terms)
            body.append(literal)
        if tokens[i] != ".":
            raise _expected("'.'", tokens, i)
        i += 1
        rules.append(Rule(head, tuple(body), origin=f"{origin}:{lines[start]}"))
    return Program(tuple(rules))


def _database(tokens: list[str], lines: list[int], origin: str, terms: dict) -> Database:
    facts, i = {".": set(), "?": set()}, 0  # true and unknown facts
    while i < len(lines):
        start = i
        atom, i = _atom(tokens, i, terms)
        if not atom.is_ground():
            raise _Syntax(f"database fact {atom} is not ground", start)
        status = tokens[i]
        if status not in facts:
            raise _expected("'.' or '?'", tokens, i)
        if atom in facts["?" if status == "." else "."]:
            raise _Syntax(f"fact {atom} listed as both true and unknown", start)
        facts[status].add(atom)
        i += 1
    return Database.of(facts["."], facts["?"])


def _delta(tokens: list[str], lines: list[int], origin: str, terms: dict) -> DeltaSet:
    updates, i = set(), 0
    while i < len(lines):
        if tokens[i] not in _POLARITY:
            raise _expected("'+' or '-'", tokens, i)
        uatom, j = _head(tokens, i, terms)
        if not uatom.is_ground():
            raise _Syntax(f"update on non-ground atom {uatom.atom}", i)
        if tokens[j] != ".":
            raise _expected("'.'", tokens, j)
        updates.add(uatom)
        i = j + 1
    return DeltaSet.of(updates)


def _interpretation(tokens: list[str], lines: list[int], origin: str, terms: dict):
    true_atoms, false_atoms, universe, i = set(), set(), set(), 0
    while i < len(lines):
        negated = tokens[i] == "not"
        atom, i = _atom(tokens, i + negated, terms)
        universe.add(atom)
        if tokens[i] == ".":
            (false_atoms if negated else true_atoms).add(atom)
        elif tokens[i] != "?" or negated:
            raise _Syntax("malformed interpretation entry", i)
        i += 1
    return Interpretation(frozenset(universe), frozenset(true_atoms), frozenset(false_atoms))


# ---------------------------------------------------------------------------
# Public parsing entry points
# ---------------------------------------------------------------------------

def parse_program(text: str, origin: str = "<string>", *, validate: bool = True) -> Program:
    program = _parsed(_program, text, origin)
    if validate:
        validate_program(program)
    return program


def parse_database(text: str, origin: str = "<string>") -> Database:
    return _parsed(_database, text, origin)


def parse_delta(text: str, origin: str = "<string>") -> DeltaSet:
    return _parsed(_delta, text, origin)


def parse_interpretation(text: str, origin: str = "<string>") -> Interpretation:
    """Inverse of render() for interpretations; entries are `a.`, `not a.` or `a?`."""
    return _parsed(_interpretation, text, origin)


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
