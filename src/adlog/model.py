"""Core data model: terms, rules, programs, three-valued databases and interpretations.

All types are immutable values; they can be shared freely between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union


class AdlogError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AdlogError):
    def __init__(self, message: str, origin: str = "<string>", line: int = 0, column: int = 0):
        super().__init__(f"{origin}:{line}:{column}: {message}")
        self.origin = origin
        self.line = line
        self.column = column


class ValidationError(AdlogError):
    """A program, database or delta violates a well-formedness condition."""


class SchemaError(AdlogError):
    """Predicate arities disagree between two objects that must share a schema."""


class UniverseError(AdlogError):
    """An atom was evaluated against an interpretation that does not know it."""


class ResourceLimitError(AdlogError):
    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class PreconditionError(AdlogError):
    """An operation was invoked on inputs its semantics does not accept."""


class ConsistencyError(AdlogError):
    """An extracted update set contradicts itself; inside the engine this is a bug."""


class EngineError(AdlogError):
    """Internal invariant violation; always indicates a defect, never bad input."""


# ---------------------------------------------------------------------------
# Terms and atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


# A constant is its symbol, an uninterpreted `str`.
Term = Union[str, Variable]


def render_term(term: Term) -> str:
    """A term as the parser reads it back: a symbol that is not a plain word is quoted."""
    if isinstance(term, Variable):
        return term.name
    if term and (term[0].islower() or term[0].isdigit()) \
            and all(c.isalnum() or c == "_" for c in term):
        return term
    return "'" + term.replace("'", "''") + "'"


@dataclass(frozen=True, order=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(isinstance(t, str) for t in self.args)

    def variables(self) -> set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}

    def constants(self) -> set[str]:
        return {t for t in self.args if isinstance(t, str)}

    def rename(self, rho: Mapping[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(rho.get(t, t) if isinstance(t, str) else t
                                          for t in self.args))

    def __str__(self) -> str:
        # Rendered once per atom and kept, as a `cached_property` would, without its lock.
        text = self.__dict__.get("_text")
        if text is None:
            text = self.__dict__["_text"] = self.predicate if not self.args else \
                f"{self.predicate}({','.join(map(render_term, self.args))})"
        return text


class Polarity(enum.Enum):
    INSERT = "+"
    DELETE = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class UpdateAtom:
    polarity: Polarity
    atom: Atom

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def __str__(self) -> str:
        return f"{self.polarity}{self.atom}"


# ---------------------------------------------------------------------------
# Literals and rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class StdLiteral:
    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True, order=True)
class UpdLiteral:
    uatom: UpdateAtom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.uatom) if self.positive else f"not {self.uatom}"


@dataclass(frozen=True, order=True)
class BuiltinLiteral:
    op: str  # "=" or "!="
    left: Term
    right: Term

    def evaluate(self) -> bool:
        """Ground comparison by constant identity."""
        if not (isinstance(self.left, str) and isinstance(self.right, str)):
            raise EngineError(f"builtin {self} evaluated before grounding")
        same = self.left == self.right
        return same if self.op == "=" else not same

    def __str__(self) -> str:
        return f"{render_term(self.left)} {self.op} {render_term(self.right)}"


Literal = Union[StdLiteral, UpdLiteral, BuiltinLiteral]
Head = Union[Atom, UpdateAtom]


@dataclass(frozen=True)
class Rule:
    head: Head
    body: tuple[Literal, ...] = ()
    origin: str | None = field(default=None, compare=False)

    @property
    def is_active(self) -> bool:
        return isinstance(self.head, UpdateAtom)

    def head_atom(self) -> Atom:
        return self.head.atom if isinstance(self.head, UpdateAtom) else self.head

    def variables(self) -> set[Variable]:
        out = self.head_atom().variables()
        for lit in self.body:
            if isinstance(lit, (StdLiteral, UpdLiteral)):
                atom = lit.atom if isinstance(lit, StdLiteral) else lit.uatom.atom
                out |= atom.variables()
            else:
                out |= {t for t in (lit.left, lit.right) if isinstance(t, Variable)}
        return out

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}."


def _atoms_of_literal(lit: Literal) -> Iterator[Atom]:
    if isinstance(lit, StdLiteral):
        yield lit.atom
    elif isinstance(lit, UpdLiteral):
        yield lit.uatom.atom


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

RESERVED_PREFIX = "@"


@dataclass(frozen=True, eq=False)
class Program:
    """A set of rules; insertion order is kept only for iteration."""

    rules: tuple[Rule, ...] = ()
    # What was computed from the rules: validate_program, rewrite._kept and _with_runs,
    # and the residue components `_Session.family` searched (`enumerate_pstable`'s memo).
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return frozenset(self.rules) == frozenset(other.rules)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules))

    def idb_predicates(self) -> set[str]:
        """Predicates defined by some deductive rule head."""
        return {r.head.predicate for r in self.rules if not r.is_active}

    def action_predicates(self) -> dict[str, int]:
        """Predicates appearing in active rule heads, with arities."""
        return {r.head.atom.predicate: r.head.atom.arity for r in self.rules if r.is_active}

    @staticmethod
    def _all_atoms(rule: Rule) -> Iterator[Atom]:
        yield rule.head_atom()
        for lit in rule.body:
            yield from _atoms_of_literal(lit)

    def constants(self) -> set[str]:
        out: set[str] = set()
        for rule in self.rules:
            for atom in self._all_atoms(rule):
                out |= atom.constants()
            for lit in rule.body:
                if isinstance(lit, BuiltinLiteral):
                    out |= {t for t in (lit.left, lit.right) if isinstance(t, str)}
        return out


def _record_arity(arities: dict[str, int], atom: Atom) -> None:
    seen = arities.setdefault(atom.predicate, atom.arity)
    if seen != atom.arity:
        raise ValidationError(
            f"predicate {atom.predicate} used with arity {seen} and {atom.arity}")


def _record_arities(arities: dict[str, int], atoms: Iterable[Atom]) -> None:
    """`_record_arity` for each ground atom; on a clash they are sorted, so hashing picks no message."""
    before = dict(arities)
    if any(arities.setdefault(a.predicate, a.arity) != a.arity for a in atoms):
        for atom in sorted(atoms):
            _record_arity(before, atom)


def validate_program(program: Program) -> None:
    """Check arity consistency, the reserved namespace, update-atom targets and safety.

    Safety here means safe negation: a variable occurring in a negative literal
    must also occur in a positive non-builtin body literal.  Variables occurring
    only in the head or in builtins are allowed and range over the active domain
    when the rule is grounded.  A program that passed is not checked again;
    its arities and IDB predicates stay in `program.cache`.
    """
    if "arities" in program.cache:
        return
    arities: dict[str, int] = {}
    idb = program.idb_predicates()
    for rule in program.rules:
        head = rule.head
        update_atoms = [head] if isinstance(head, UpdateAtom) else []
        atoms = [rule.head_atom()]
        positive: set[Variable] = set()
        negative = []
        for lit in rule.body:
            if isinstance(lit, UpdLiteral):
                update_atoms.append(lit.uatom)
                atom = lit.uatom.atom
            elif isinstance(lit, StdLiteral):
                atom = lit.atom
            else:
                continue
            atoms.append(atom)
            if lit.positive:
                positive |= atom.variables()
            else:
                negative.append(atom)
        for atom in atoms:
            if atom.predicate.startswith(RESERVED_PREFIX):
                raise ValidationError(
                    f"reserved predicate name {atom.predicate}{_where(rule)}")
            if arities.setdefault(atom.predicate, len(atom.args)) != len(atom.args):
                _record_arity(arities, atom)  # raises the arity mismatch
        for uatom in update_atoms:
            if uatom.atom.predicate in idb:
                raise ValidationError(
                    f"update atom {uatom} targets derived predicate{_where(rule)}")
        for atom in negative:
            loose = atom.variables() - positive
            if loose:
                name = sorted(v.name for v in loose)[0]
                raise ValidationError(
                    f"unsafe rule: variable {name} occurs under negation "
                    f"but in no positive body literal{_where(rule)}")
    program.cache.update(arities=arities, idb=frozenset(idb))


def _where(rule: Rule) -> str:
    """The rule and its origin, for a validation message."""
    return f" in rule '{rule}'" + (f" ({rule.origin})" if rule.origin else "")


# ---------------------------------------------------------------------------
# Databases and deltas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Database:
    """Three-valued database: explicit true and unknown facts, false implicit."""

    true_facts: frozenset[Atom] = frozenset()
    unknown_facts: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.true_facts & self.unknown_facts
        if overlap:
            atom = sorted(str(a) for a in overlap)[0]
            raise ValidationError(f"fact {atom} is both true and unknown")
        loose = sorted(str(a) for a in self.true_facts | self.unknown_facts if not a.is_ground())
        if loose:
            raise ValidationError(f"database fact {loose[0]} is not ground")
        self.predicate_arities()

    @staticmethod
    def of(true: Iterable[Atom] = (), unknown: Iterable[Atom] = ()) -> "Database":
        return Database(frozenset(true), frozenset(unknown))

    @property
    def is_total(self) -> bool:
        return not self.unknown_facts

    def predicate_arities(self) -> dict[str, int]:
        arities: dict[str, int] = {}
        _record_arities(arities, self.true_facts | self.unknown_facts)
        return arities

    @cached_property
    def fact_texts(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The true and the unknown facts as `str` texts, each sorted; rendered once per database."""
        return tuple(sorted(map(str, self.true_facts))), tuple(sorted(map(str, self.unknown_facts)))

    def constants(self) -> set[str]:
        out: set[str] = set()
        for atom in self.true_facts | self.unknown_facts:
            out |= atom.constants()
        return out

    def rename(self, rho: Mapping[str, str]) -> "Database":
        return Database(frozenset(a.rename(rho) for a in self.true_facts),
                        frozenset(a.rename(rho) for a in self.unknown_facts))


@dataclass(frozen=True)
class DeltaSet:
    """Ground input updates; conflict-free by construction."""

    updates: frozenset[UpdateAtom] = frozenset()

    def __post_init__(self) -> None:
        atoms = {}
        for u in sorted(self.updates, key=str):
            if not u.is_ground():
                raise ValidationError(f"update {u} is not ground")
            other = atoms.setdefault(u.atom, u.polarity)
            if other != u.polarity:
                raise ValidationError(f"conflicting updates +{u.atom} and -{u.atom}")

    @staticmethod
    def of(updates: Iterable[UpdateAtom]) -> "DeltaSet":
        return DeltaSet(frozenset(updates))

    def inserts(self) -> frozenset[Atom]:
        return frozenset(u.atom for u in self.updates if u.polarity is Polarity.INSERT)

    def deletes(self) -> frozenset[Atom]:
        return frozenset(u.atom for u in self.updates if u.polarity is Polarity.DELETE)

    def constants(self) -> set[str]:
        out: set[str] = set()
        for u in self.updates:
            out |= u.atom.constants()
        return out

    def rename(self, rho: Mapping[str, str]) -> "DeltaSet":
        return DeltaSet(frozenset(UpdateAtom(u.polarity, u.atom.rename(rho))
                                  for u in self.updates))


@dataclass(frozen=True)
class UpdateProgram:
    delta: DeltaSet
    program: Program


def validate_update_program(up: UpdateProgram) -> dict[str, int]:
    """Validate the program, then each update against it in `str` order; returns the arities."""
    validate_program(up.program)
    arities = dict(up.program.cache["arities"])
    idb = up.program.cache["idb"]
    for u in sorted(up.delta.updates, key=str):
        if u.atom.predicate.startswith(RESERVED_PREFIX):
            raise ValidationError(f"reserved predicate name in update {u}")
        if u.atom.predicate in idb:
            raise ValidationError(f"input update {u} targets derived predicate")
        _record_arity(arities, u.atom)
    return arities


# ---------------------------------------------------------------------------
# Truth values and interpretations
# ---------------------------------------------------------------------------

class TruthValue(enum.IntEnum):
    FALSE = 0
    UNDEFINED = 1
    TRUE = 2

    def negate(self) -> "TruthValue":
        return TruthValue(2 - self.value)

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Interpretation:
    """Consistent three-valued assignment over a finite ground atom universe."""

    universe: frozenset[Atom]
    true_atoms: frozenset[Atom] = frozenset()
    false_atoms: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        if self.true_atoms & self.false_atoms:
            raise EngineError("interpretation assigns an atom both true and false")
        if not (self.true_atoms <= self.universe and self.false_atoms <= self.universe):
            raise UniverseError("literal set mentions atoms outside the universe")

    def value(self, atom: Atom) -> TruthValue:
        if atom in self.true_atoms:
            return TruthValue.TRUE
        if atom in self.false_atoms:
            return TruthValue.FALSE
        if atom not in self.universe:
            raise UniverseError(f"atom {atom} outside interpretation universe")
        return TruthValue.UNDEFINED

    @property
    def is_total(self) -> bool:
        return not self.undefined_count

    def undefined_atoms(self) -> frozenset[Atom]:
        return self.universe - self.true_atoms - self.false_atoms

    @property
    def undefined_count(self) -> int:
        return len(self.universe) - len(self.true_atoms) - len(self.false_atoms)

    def literal_set(self) -> frozenset[tuple[Atom, bool]]:
        """The set view {A | A true} as (atom, True) plus {not A | A false} as (atom, False)."""
        return frozenset((a, True) for a in self.true_atoms) | \
            frozenset((a, False) for a in self.false_atoms)

    def issubset(self, other: "Interpretation") -> bool:
        return self.true_atoms <= other.true_atoms and self.false_atoms <= other.false_atoms

    def union_consistent(self, other: "Interpretation") -> bool:
        return not (self.true_atoms & other.false_atoms or self.false_atoms & other.true_atoms)

    def render_key(self) -> str:
        """Deterministic rendering used for canonical model ordering.

        One `render_token` per atom of the universe, joined by spaces, the
        atoms in `str` order.  No token is a prefix of another token of the
        same atom, so two renderings over one universe compare as their
        tokens do at the first atom on which they differ.  Rendered once per
        interpretation.
        """
        return self._key

    @cached_property
    def _key(self) -> str:
        true, false = self.true_atoms, self.false_atoms
        return " ".join([render_token(text, TruthValue.TRUE if atom in true
                                      else TruthValue.FALSE if atom in false
                                      else TruthValue.UNDEFINED)
                         for text, atom in sorted([(str(a), a) for a in self.universe])])


def render_token(text: str, value: TruthValue) -> str:
    """The `render_key` token of an atom rendered as `text`: `A.`, `not A.` or `A?`."""
    if value is TruthValue.TRUE:
        return text + "."
    if value is TruthValue.FALSE:
        return "not " + text + "."
    return text + "?"


# ---------------------------------------------------------------------------
# Knowledge ordering and genericity support
# ---------------------------------------------------------------------------

def info_leq(first: Database, second: Database) -> bool:
    """True when `second` is at least as informative: its unknown set is contained."""
    check_same_schema([first, second])
    return second.unknown_facts <= first.unknown_facts


def check_same_schema(databases: Iterable[Database]) -> None:
    """Raise SchemaError when the databases use one predicate with two arities."""
    merged: dict[str, int] = {}
    for database in databases:
        try:
            _record_arities(merged, database.true_facts | database.unknown_facts)
        except ValidationError as exc:
            raise SchemaError(str(exc)) from exc


def check_renaming(rho: Mapping[str, str], vocabulary: Iterable[str]) -> None:
    """Reject maps that are not injective once extended with identity."""
    vocab = set(vocabulary)
    image = {rho.get(c, c) for c in vocab}
    if len(image) != len(vocab):
        raise ValidationError("constant renaming is not a bijection on the vocabulary")


def rename_constants(obj, rho: Mapping[str, str]):
    """Apply a constant renaming to a Program, Database or DeltaSet."""
    if isinstance(obj, Database):
        check_renaming(rho, obj.constants())
        return obj.rename(rho)
    if isinstance(obj, DeltaSet):
        check_renaming(rho, obj.constants())
        return obj.rename(rho)
    if isinstance(obj, Program):
        check_renaming(rho, obj.constants())
        return Program(tuple(_rename_rule(r, rho) for r in obj.rules))
    raise TypeError(f"cannot rename constants of {type(obj).__name__}")


def _rename_rule(rule: Rule, rho: Mapping[str, str]) -> Rule:
    if isinstance(rule.head, UpdateAtom):
        head: Head = UpdateAtom(rule.head.polarity, rule.head.atom.rename(rho))
    else:
        head = rule.head.rename(rho)
    body: list[Literal] = []
    for lit in rule.body:
        if isinstance(lit, StdLiteral):
            body.append(StdLiteral(lit.atom.rename(rho), lit.positive))
        elif isinstance(lit, UpdLiteral):
            body.append(UpdLiteral(UpdateAtom(lit.uatom.polarity, lit.uatom.atom.rename(rho)),
                                   lit.positive))
        else:
            sub = lambda t: rho.get(t, t) if isinstance(t, str) else t
            body.append(BuiltinLiteral(lit.op, sub(lit.left), sub(lit.right)))
    return Rule(head, tuple(body), rule.origin)
