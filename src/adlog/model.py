"""Core data model: terms, rules, programs, three-valued databases and interpretations.

All types are immutable values; they can be shared freely between threads.
They are plain classes that share one definition of equality, hashing,
ordering and `repr` by their fields (`_Value`); assigning or deleting an
attribute raises `AttributeError`.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property


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
# Value classes
# ---------------------------------------------------------------------------

_set = object.__setattr__


class _Value:
    """Equality, hashing, `repr` and immutability, defined once by a class's fields.

    A subclass names its constructor's arguments in `_fields`, in order, and
    its `__init__` stores each through `_set` (or its slot's own setter),
    since assigning an attribute raises `AttributeError`.  Two values are
    equal when they are of the same class and agree on the `_compared`
    fields (all fields unless the class lists fewer); the hash is that of
    those fields.  A copy or a pickle calls the constructor with the fields
    (`__reduce__`), and `repr` prints that call.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:
            names = getattr(cls, "_compared", cls._fields)
            key = operator.attrgetter(*names)
            # A tuple even for one field: a value hashes as the tuple of its fields.
            cls._value_key = key if len(names) > 1 else staticmethod(lambda self: (key(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._value_key(self) == self._value_key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value_key(self))

    def __repr__(self) -> str:
        # A set's members in `repr` order, so that a copy or a pickle reads the same.
        cls, args = self.__reduce__()
        fields = ", ".join(
            f"{name}=frozenset({{{', '.join(sorted(map(repr, value)))}}})"
            if isinstance(value, frozenset) and len(value) > 1
            else f"{name}={value!r}" for name, value in zip(cls._fields, args))
        return f"{cls.__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _order(compare):
    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(self._value_key(self), self._value_key(other))
        return NotImplemented
    return method


class _Ordered(_Value):
    """A value ordered by its fields, in order, against values of its own class."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = map(_order, (operator.lt, operator.le,
                                                  operator.gt, operator.ge))


def _setters(cls: type) -> list:
    """The setter of each of `cls`'s own slots, in order: cheaper than `_set`."""
    return [cls.__dict__[name].__set__ for name in cls.__slots__]


# ---------------------------------------------------------------------------
# Terms and atoms
# ---------------------------------------------------------------------------

class Variable(_Ordered):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __str__(self) -> str:
        return self.name


# A constant is its symbol, an uninterpreted `str`.
Term = str | Variable


def render_term(term: Term) -> str:
    """A term as the parser reads it back: a symbol that is not a plain word is quoted."""
    if isinstance(term, Variable):
        return term.name
    if term and (term[0].islower() or term[0].isdigit()) and term.replace("_", "a").isalnum():
        return term
    return "'" + term.replace("'", "''") + "'"


class Atom(_Ordered):
    __slots__ = ("predicate", "args", "_hash", "_text")
    _fields = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple[Term, ...] = ()):
        _atom_predicate(self, predicate)
        _atom_args(self, args)
        # Hashed once: an atom is hashed at every set and dict operation.
        _atom_hash(self, hash((predicate, args)))
        _atom_text(self, None)

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return all(map(str.__instancecheck__, self.args))     # isinstance(t, str), in C

    def variables(self) -> set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}

    def constants(self) -> set[str]:
        return {t for t in self.args if isinstance(t, str)}

    def rename(self, rho: Mapping[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(rho.get(t, t) if isinstance(t, str) else t
                                          for t in self.args))

    def __str__(self) -> str:
        # Rendered once per atom and kept.
        text = self._text
        if text is None:
            text = self.predicate if not self.args else \
                f"{self.predicate}({','.join(map(render_term, self.args))})"
            _atom_text(self, text)
        return text


_atom_predicate, _atom_args, _atom_hash, _atom_text = _setters(Atom)


class Polarity(enum.Enum):
    INSERT = "+"
    DELETE = "-"

    __hash__ = object.__hash__      # members are singletons; Enum's own hash runs in Python

    def __str__(self) -> str:
        return self.value


class UpdateAtom(_Ordered):
    __slots__ = _fields = ("polarity", "atom")

    def __init__(self, polarity: Polarity, atom: Atom):
        _set(self, "polarity", polarity)
        _set(self, "atom", atom)

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def __str__(self) -> str:
        return f"{self.polarity}{self.atom}"


# ---------------------------------------------------------------------------
# Literals and rules
# ---------------------------------------------------------------------------

class StdLiteral(_Ordered):
    __slots__ = _fields = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True):
        _literal_atom(self, atom)
        _literal_positive(self, positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


_literal_atom, _literal_positive = _setters(StdLiteral)


class UpdLiteral(_Ordered):
    __slots__ = _fields = ("uatom", "positive")

    def __init__(self, uatom: UpdateAtom, positive: bool = True):
        _set(self, "uatom", uatom)
        _set(self, "positive", positive)

    def __str__(self) -> str:
        return str(self.uatom) if self.positive else f"not {self.uatom}"


class BuiltinLiteral(_Ordered):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term):
        _set(self, "op", op)  # "=" or "!="
        _set(self, "left", left)
        _set(self, "right", right)

    def evaluate(self) -> bool:
        """Ground comparison by constant identity."""
        if not (isinstance(self.left, str) and isinstance(self.right, str)):
            raise EngineError(f"builtin {self} evaluated before grounding")
        same = self.left == self.right
        return same if self.op == "=" else not same

    def __str__(self) -> str:
        return f"{render_term(self.left)} {self.op} {render_term(self.right)}"


Literal = StdLiteral | UpdLiteral | BuiltinLiteral
Head = Atom | UpdateAtom


class Rule(_Value):
    __slots__ = _fields = ("head", "body", "origin")
    _compared = ("head", "body")    # where a rule was read is no part of the rule

    def __init__(self, head: Head, body: tuple[Literal, ...] = (), origin: str | None = None):
        _rule_head(self, head)
        _rule_body(self, body)
        _rule_origin(self, origin)

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


_rule_head, _rule_body, _rule_origin = _setters(Rule)


def _atoms_of_literal(lit: Literal) -> Iterator[Atom]:
    if isinstance(lit, StdLiteral):
        yield lit.atom
    elif isinstance(lit, UpdLiteral):
        yield lit.uatom.atom


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

RESERVED_PREFIX = "@"


class Program(_Value):
    """A set of rules; insertion order is kept only for iteration."""

    __slots__ = ("rules", "cache")
    _fields = ("rules",)

    def __init__(self, rules: tuple[Rule, ...] = ()):
        _set(self, "rules", rules)
        # What was computed from the rules: validate_program, rewrite._kept, and the
        # memo `_Session` keeps of well-founded values by table structure and of the
        # residue components searched (`stable._keep`).
        _set(self, "cache", {})

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

class Database(_Value):
    """Three-valued database: explicit true and unknown facts, false implicit."""

    _fields = ("true_facts", "unknown_facts")

    def __init__(self, true_facts: frozenset[Atom] = frozenset(),
                 unknown_facts: frozenset[Atom] = frozenset()):
        # `cache` holds what is computed from the facts: rewrite.embed_database's run.
        self.__dict__.update(true_facts=true_facts, unknown_facts=unknown_facts, cache={})
        overlap = self.true_facts & self.unknown_facts
        if overlap:
            atom = sorted(str(a) for a in overlap)[0]
            raise ValidationError(f"fact {atom} is both true and unknown")
        loose = sorted(str(a) for a in self.true_facts | self.unknown_facts if not a.is_ground())
        if loose:
            raise ValidationError(f"database fact {loose[0]} is not ground")
        self.arities  # a clash raises

    @staticmethod
    def of(true: Iterable[Atom] = (), unknown: Iterable[Atom] = ()) -> "Database":
        return Database(frozenset(true), frozenset(unknown))

    @classmethod
    def _checked(cls, true_facts: frozenset[Atom], unknown_facts: frozenset[Atom],
                 arities: dict[str, int] | None = None) -> "Database":
        """A database of facts checked together already, with their arities if recorded."""
        out = cls.__new__(cls)
        out.__dict__.update(true_facts=true_facts, unknown_facts=unknown_facts, cache={})
        if arities is not None:
            out.__dict__["arities"] = arities
        return out

    @property
    def is_total(self) -> bool:
        return not self.unknown_facts

    @cached_property
    def arities(self) -> dict[str, int]:
        """Each predicate's arity in the facts, recorded once per database; read only."""
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


class DeltaSet(_Value):
    """Ground input updates; conflict-free by construction.  `ordered` lists them in `str`
    order (sign, then atom), sorted once for every reader that needs an order."""

    __slots__, _fields = ("updates", "ordered"), ("updates",)

    def __init__(self, updates: frozenset[UpdateAtom] = frozenset()):
        _set(self, "updates", updates)
        _set(self, "ordered", tuple(sorted(updates, key=lambda u: (u.polarity.value, str(u.atom)))))
        atoms = {}
        for u in self.ordered:
            if not u.is_ground():
                raise ValidationError(f"update {u} is not ground")
            other = atoms.setdefault(u.atom, u.polarity)
            if other != u.polarity:
                raise ValidationError(f"conflicting updates +{u.atom} and -{u.atom}")

    @staticmethod
    def of(updates: Iterable[UpdateAtom]) -> "DeltaSet":
        return DeltaSet(frozenset(updates))

    @classmethod
    def _checked(cls, ordered: tuple[UpdateAtom, ...]) -> "DeltaSet":
        """The delta of updates in `str` order that were checked together: no check runs again."""
        out = cls.__new__(cls)
        _set(out, "updates", frozenset(ordered))
        _set(out, "ordered", ordered)
        return out

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


class UpdateProgram(_Value):
    __slots__ = _fields = ("delta", "program")

    def __init__(self, delta: DeltaSet, program: Program):
        _set(self, "delta", delta)
        _set(self, "program", program)


def validate_update_program(up: UpdateProgram) -> dict[str, int]:
    """Validate the program, then each update against it in `str` order; returns the arities."""
    validate_program(up.program)
    arities = dict(up.program.cache["arities"])
    idb = up.program.cache["idb"]
    for u in up.delta.ordered:
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


# The values as the solver keeps them, and the value each stands for.
_FALSE, _UNDEF, _TRUE = map(int, TruthValue)
_TRUTH = tuple(TruthValue)


class Interpretation(_Value):
    """Consistent three-valued assignment over a finite ground atom universe.

    A map from its own atoms to their values (indices of `_TRUTH`) over the
    interpretation it extends, which maps none of them: a model of the top of a
    splitting set extends its bottom's (Lifschitz & Turner 1994).  The constructor
    takes the three sets; the solver gives a table's own atoms and values (`_of`).
    What either was not given is built on first read, and kept by the one read alone: a
    model over a kept prefix leaves no set on it.  A copy or a pickle is built from the sets.
    """

    _fields = ("universe", "true_atoms", "false_atoms")

    def __init__(self, universe: frozenset[Atom], true_atoms: frozenset[Atom] = frozenset(),
                 false_atoms: frozenset[Atom] = frozenset()):
        self.__dict__.update(universe=universe, true_atoms=true_atoms, false_atoms=false_atoms,
                             _over=None)
        if true_atoms & false_atoms:
            raise EngineError("interpretation assigns an atom both true and false")
        if not (true_atoms <= universe and false_atoms <= universe):
            raise UniverseError("literal set mentions atoms outside the universe")

    @classmethod
    def _of(cls, over: "Interpretation | None", atoms: Iterable[Atom],
            values: Iterable[int]) -> "Interpretation":
        """`over`, or nothing, extended by `atoms`, none of `over`'s, with `values`."""
        out = cls.__new__(cls)
        out.__dict__.update(_over=over, _values=dict(zip(atoms, values)))
        return out

    def _with(self, name: str, value: int | None = None) -> frozenset[Atom]:
        """The own atoms (of `value`) with the set `name` of the one extended, which keeps none."""
        own = self._values if value is None else [a for a, v in self._values.items() if v == value]
        return frozenset(own) if self._over is None else self._over._with(name, value).union(own)

    universe = cached_property(lambda self: self._with("universe"))
    true_atoms = cached_property(lambda self: self._with("true_atoms", _TRUE))
    false_atoms = cached_property(lambda self: self._with("false_atoms", _FALSE))
    undefined_count = cached_property(lambda self: list(self._values.values()).count(_UNDEF)
                                      + (0 if self._over is None else self._over.undefined_count))
    _values = cached_property(lambda self: {**dict.fromkeys(self.universe, _UNDEF),
                                            **dict.fromkeys(self.true_atoms, _TRUE),
                                            **dict.fromkeys(self.false_atoms, _FALSE)})

    def value(self, atom: Atom) -> TruthValue:
        own = self._values.get(atom)
        if own is not None:
            return _TRUTH[own]
        if self._over is None:
            raise UniverseError(f"atom {atom} outside interpretation universe")
        return self._over.value(atom)

    @property
    def is_total(self) -> bool:
        return not self.undefined_count

    def undefined_atoms(self) -> frozenset[Atom]:
        return self.universe - self.true_atoms - self.false_atoms

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
        return " ".join([render_token(text, self.value(atom))
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
