"""Rewriting of update programs into standard Datalog with negation, plus grounding.

Two rewritings are provided.  The primary one (`rewrite_st`) guards every
action with a consistency-check predicate, routes input updates through
auxiliary facts, and bridges body update atoms so that an update event is
visible whether it was derived by a rule or requested in the input delta.
The rival one (`rewrite_bm`) guards each action with the complementary
update only and turns input updates into guarded rules.

All generated predicates live in the reserved '@' namespace, and the prefix
of each defines its kind; every other predicate is the user's:

    @ck_a     consistency guard for action predicate a
    @ins_p    input-delta insertion marker (fact per +p(t) in the delta)
    @del_p    input-delta deletion marker
    @insb_p   bridge: insertion of p derived by a rule or present in the delta
    @delb_p   bridge: deletion of p derived by a rule or present in the delta
    @plus_p   standard renaming of the update atom +p
    @minus_p  standard renaming of the update atom -p
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Iterable

from .model import (Atom, BuiltinLiteral, Constant, Database, Literal,
                    Polarity, Program, Rule, StdLiteral, UpdateAtom,
                    UpdateProgram, UpdLiteral, ValidationError, Variable)


def guard_predicate(action: str) -> str:
    return f"@ck_{action}"


def delta_marker_predicate(polarity: Polarity, predicate: str) -> str:
    return f"@ins_{predicate}" if polarity is Polarity.INSERT else f"@del_{predicate}"


def bridge_predicate(polarity: Polarity, predicate: str) -> str:
    return f"@insb_{predicate}" if polarity is Polarity.INSERT else f"@delb_{predicate}"


def renamed_update_predicate(polarity: Polarity, predicate: str) -> str:
    return f"@plus_{predicate}" if polarity is Polarity.INSERT else f"@minus_{predicate}"


def renamed_update_atom(uatom: UpdateAtom) -> Atom:
    return Atom(renamed_update_predicate(uatom.polarity, uatom.atom.predicate), uatom.atom.args)


def base_atom_of_renamed(atom: Atom) -> tuple[Polarity, Atom] | None:
    """Invert the step-7 renaming, or None for non-update predicates."""
    if atom.predicate.startswith("@plus_"):
        return Polarity.INSERT, Atom(atom.predicate[len("@plus_"):], atom.args)
    if atom.predicate.startswith("@minus_"):
        return Polarity.DELETE, Atom(atom.predicate[len("@minus_"):], atom.args)
    return None


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """Variable-free, builtin-free rules plus the slice of the Herbrand base they mention."""

    rules: tuple[Rule, ...]
    universe: frozenset[Atom] = field(init=False)
    # What the solver derives from the rules, kept with them (see stable._well_founded).
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", frozenset(
            [r.head for r in self.rules] + [lit.atom for r in self.rules for lit in r.body]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundProgram):
            return NotImplemented
        return frozenset(self.rules) == frozenset(other.rules)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules))


# ---------------------------------------------------------------------------
# Database embedding
# ---------------------------------------------------------------------------

def embed_database(program: Program, database: Database) -> Program:
    """Add one fact per true tuple and one rule `p(t) :- not p(t).` per unknown tuple."""
    extra: list[Rule] = []
    for atom in sorted(database.true_facts, key=str):
        extra.append(Rule(atom, ()))
    for atom in sorted(database.unknown_facts, key=str):
        extra.append(Rule(atom, (StdLiteral(atom, positive=False),)))
    return Program(program.rules + tuple(extra))


# ---------------------------------------------------------------------------
# Primary rewriting
# ---------------------------------------------------------------------------

def _body_update_pairs(program: Program) -> set[tuple[Polarity, str, int]]:
    pairs = set()
    for rule in program.rules:
        for lit in rule.body:
            if isinstance(lit, UpdLiteral):
                pairs.add((lit.uatom.polarity, lit.uatom.atom.predicate, lit.uatom.atom.arity))
    return pairs


def _bridge_body_literal(lit: UpdLiteral) -> StdLiteral:
    atom = Atom(bridge_predicate(lit.uatom.polarity, lit.uatom.atom.predicate),
                lit.uatom.atom.args)
    return StdLiteral(atom, lit.positive)


def _generic_args(arity: int) -> tuple[Variable, ...]:
    return tuple(Variable(f"X{i + 1}") for i in range(arity))


def rewrite_st(up: UpdateProgram) -> Program:
    """Guarded rewriting with delta markers and bridge predicates."""
    rules: list[Rule] = []
    actions = up.program.action_predicates()

    for rule in up.program.rules:
        body: list[Literal] = []
        for lit in rule.body:
            if isinstance(lit, UpdLiteral):
                body.append(_bridge_body_literal(lit))
            else:
                body.append(lit)
        if rule.is_active:
            head_atom = renamed_update_atom(rule.head)
            guard = Atom(guard_predicate(rule.head.atom.predicate), rule.head.atom.args)
            body.append(StdLiteral(guard, positive=False))
            rules.append(Rule(head_atom, tuple(body), rule.origin))
        else:
            rules.append(Rule(rule.head, tuple(body), rule.origin))

    for action in sorted(actions):
        args = _generic_args(actions[action])
        head = Atom(guard_predicate(action), args)
        plus = Atom(renamed_update_predicate(Polarity.INSERT, action), args)
        minus = Atom(renamed_update_predicate(Polarity.DELETE, action), args)
        rules.append(Rule(head, (StdLiteral(plus), StdLiteral(minus))))

    for uatom in sorted(up.delta.updates, key=str):
        marker = Atom(delta_marker_predicate(uatom.polarity, uatom.atom.predicate),
                      uatom.atom.args)
        rules.append(Rule(marker, ()))

    for polarity, predicate, arity in sorted(_body_update_pairs(up.program),
                                             key=lambda p: (p[1], p[0].value)):
        args = _generic_args(arity)
        bridge = Atom(bridge_predicate(polarity, predicate), args)
        renamed = Atom(renamed_update_predicate(polarity, predicate), args)
        marker = Atom(delta_marker_predicate(polarity, predicate), args)
        rules.append(Rule(bridge, (StdLiteral(renamed),)))
        rules.append(Rule(bridge, (StdLiteral(marker),)))

    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# Rival rewriting
# ---------------------------------------------------------------------------

def rewrite_bm(up: UpdateProgram) -> Program:
    """Complement-guarded rewriting: no delta markers, no bridges.

    Each action rule gets the complementary update as an extra negative guard,
    each input update becomes a guarded rule, and body update atoms are renamed
    in place.  Insertion events additionally feed the base relation itself
    (`p(t) :- @plus_p(t)`), so conditions read the post-update state: this is
    what leaves an atom undefined when its insertion and deletion chase each
    other through the rules, instead of resolving the race in favour of one
    side.
    """
    rules: list[Rule] = []
    insertable: dict[str, int] = {}

    for rule in up.program.rules:
        body: list[Literal] = []
        for lit in rule.body:
            if isinstance(lit, UpdLiteral):
                body.append(StdLiteral(renamed_update_atom(lit.uatom), lit.positive))
            else:
                body.append(lit)
        if rule.is_active:
            head_atom = renamed_update_atom(rule.head)
            complement = Polarity.DELETE if rule.head.polarity is Polarity.INSERT \
                else Polarity.INSERT
            guard = StdLiteral(Atom(renamed_update_predicate(complement,
                                                             rule.head.atom.predicate),
                                    rule.head.atom.args), positive=False)
            if guard not in body:
                body.append(guard)
            if rule.head.polarity is Polarity.INSERT:
                insertable[rule.head.atom.predicate] = rule.head.atom.arity
            rules.append(Rule(head_atom, tuple(body), rule.origin))
        else:
            rules.append(Rule(rule.head, tuple(body), rule.origin))

    for uatom in sorted(up.delta.updates, key=str):
        head = renamed_update_atom(uatom)
        complement = Polarity.DELETE if uatom.polarity is Polarity.INSERT else Polarity.INSERT
        guard_atom = Atom(renamed_update_predicate(complement, uatom.atom.predicate),
                          uatom.atom.args)
        rules.append(Rule(head, (StdLiteral(guard_atom, positive=False),)))
        if uatom.polarity is Polarity.INSERT:
            insertable[uatom.atom.predicate] = uatom.atom.arity

    for predicate in sorted(insertable):
        args = _generic_args(insertable[predicate])
        plus = Atom(renamed_update_predicate(Polarity.INSERT, predicate), args)
        rules.append(Rule(Atom(predicate, args), (StdLiteral(plus),)))

    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def ground(program: Program) -> GroundProgram:
    """Instantiate the rule instances whose positive body atoms are derivable.

    Positive body literals are joined bottom-up against the atoms derived so
    far; only variables that occur in no positive body literal range over the
    active constant domain.  Rule instances with a false builtin are dropped;
    true builtins are removed from bodies.  Leaving out the instances with an
    underivable positive body atom cannot change any stable model on the
    atoms that remain derivable.
    """
    for rule in program.rules:
        if isinstance(rule.head, UpdateAtom) or any(isinstance(lit, UpdLiteral)
                                                    for lit in rule.body):
            raise ValidationError(f"rule {rule} still contains update atoms")
    constants = [Constant(c) for c in sorted(program.constants())]
    return GroundProgram(tuple(dict.fromkeys(_ground_derivable(program.rules, constants))))


def _variables(rule: Rule) -> list[Variable]:
    return sorted(rule.variables(), key=lambda v: v.name)


def _instantiate(rule: Rule, binding) -> Rule | None:
    body: list[StdLiteral] = []
    for lit in rule.body:
        if isinstance(lit, BuiltinLiteral):
            if not lit.substitute(binding).evaluate():
                return None
            continue
        body.append(StdLiteral(lit.atom.substitute(binding), lit.positive))
    return Rule(rule.head.substitute(binding), tuple(body), rule.origin)


# A positive body literal compiled against a rule's variable slots: each
# argument is a Constant or the int slot of a variable.
_Pattern = tuple[str, tuple]


# One positive literal in a join order.  On arrival, `positions` are the
# arguments fixed by a constant or an earlier binding and `key` their values
# (Constant or variable slot); `unbound` pairs each other argument position
# with its variable slot.  `exclude_pivot` marks a literal left of the pivot
# with the pivot's predicate: under semi-naive evaluation it must not reuse
# the new atom.
_Step = namedtuple("_Step", "predicate positions key unbound exclude_pivot")

# How a new atom for the pivot literal of a rule extends to full instances;
# `free` holds the slots of the variables in no positive body literal.
_Trigger = namedtuple("_Trigger", "rule variables pivot others free")


def _step(pattern: _Pattern, bound: set[int], exclude_pivot: bool) -> _Step:
    """Compile a literal joined after the slots in `bound`, which it then adds to."""
    predicate, args = pattern
    positions, key, unbound = [], [], []
    for i, term in enumerate(args):
        if isinstance(term, int) and term not in bound:
            unbound.append((i, term))
        else:
            positions.append(i)
            key.append(term)
    bound.update(slot for _, slot in unbound)
    return _Step(predicate, tuple(positions), tuple(key), tuple(unbound), exclude_pivot)


def _triggers(rule: Rule, variables: list[Variable]) -> list[_Trigger]:
    """One trigger per positive body literal; the rest are joined most-bound first."""
    slot = {v: i for i, v in enumerate(variables)}
    patterns: list[_Pattern] = [
        (lit.atom.predicate, tuple(slot[t] if isinstance(t, Variable) else t
                                   for t in lit.atom.args))
        for lit in rule.body if isinstance(lit, StdLiteral) and lit.positive]
    in_positive = {t for _, args in patterns for t in args if isinstance(t, int)}
    free = tuple(i for i in range(len(variables)) if i not in in_positive)
    triggers = []
    for p, pivot in enumerate(patterns):
        bound: set[int] = set()
        first = _step(pivot, bound, False)
        rest = [q for q in range(len(patterns)) if q != p]
        others = []
        while rest:
            q = max(rest, key=lambda q: (sum(not isinstance(t, int) or t in bound
                                             for t in patterns[q][1]), -q))
            rest.remove(q)
            others.append(_step(patterns[q], bound, q < p and patterns[q][0] == pivot[0]))
        triggers.append(_Trigger(rule, tuple(variables), first, tuple(others), free))
    return triggers


class _Derivable:
    """Atoms derived so far, by predicate, with lookups on fixed argument positions.

    Every container keeps insertion order, so the join order, and with it the
    order of the ground rules, does not depend on string hashing.
    """

    def __init__(self, triggers: Iterable[_Trigger]):
        self.facts: dict[str, dict[tuple, None]] = {}
        self.lookups: dict[str, dict[tuple[int, ...], dict[tuple, list[tuple]]]] = {}
        for trigger in triggers:
            for step in trigger.others:
                if step.positions and step.unbound:
                    self.lookups.setdefault(step.predicate, {}).setdefault(step.positions, {})

    def add(self, atom: Atom) -> None:
        self.facts.setdefault(atom.predicate, {})[atom.args] = None
        for positions, table in self.lookups.get(atom.predicate, {}).items():
            table.setdefault(tuple(atom.args[i] for i in positions), []).append(atom.args)

    def candidates(self, step: _Step, key: tuple) -> Iterable[tuple]:
        facts = self.facts.get(step.predicate, {})
        if not step.unbound:
            return (key,) if key in facts else ()
        if not step.positions:
            return facts
        return self.lookups[step.predicate][step.positions].get(key, ())


def _match(step: _Step, args: tuple, binding: list) -> list | None:
    """Extend `binding` so that the step's literal equals `args`, or None."""
    out = list(binding)
    for i, slot in step.unbound:
        if out[slot] is None:
            out[slot] = args[i]
        elif out[slot] != args[i]:
            return None
    return out


def _join(steps: tuple[_Step, ...], binding: list, derivable: _Derivable, pivot: tuple):
    if not steps:
        yield binding
        return
    step = steps[0]
    key = tuple(binding[t] if isinstance(t, int) else t for t in step.key)
    for args in derivable.candidates(step, key):
        if step.exclude_pivot and args == pivot:
            continue
        extended = _match(step, args, binding)
        if extended is not None:
            yield from _join(steps[1:], extended, derivable, pivot)


def _ground_derivable(rules: Iterable[Rule], constants: list[Constant]) -> list[Rule]:
    """Semi-naive bottom-up instantiation of the rules with derivable positive bodies.

    A worklist holds atoms derived but not yet joined.  Each is joined into
    every positive body literal of a rule with variables that it matches, with
    the other positive literals read from the atoms joined before it; a
    literal left of the pivot with the pivot's predicate skips the new atom
    itself, so each instance is built once.  A variable-free rule is its own
    only instance: its builtins are evaluated once, and it comes out when the
    last of its distinct positive body atoms leaves the worklist.  Instances
    come out in derivation order, and the rules that one atom completes in
    rule order.
    """
    seeds: list[tuple[Rule, list[Variable]]] = []
    triggers: list[_Trigger] = []
    by_predicate: dict[str, list[_Trigger]] = {}
    # A ground pivot's triggers, and the index in `counted` of each
    # variable-free rule with the atom in its positive body.
    by_atom: dict[Atom, list[_Trigger | int]] = {}
    # Per variable-free rule with a positive body, the number of its distinct
    # positive body atoms that have not left the worklist.
    counted: list[Rule] = []
    missing: list[int] = []
    for rule in rules:
        variables = _variables(rule)
        if not variables:
            if any(isinstance(lit, BuiltinLiteral) for lit in rule.body):
                rule = _instantiate(rule, {})
                if rule is None:
                    continue
            body = dict.fromkeys(lit.atom for lit in rule.body if lit.positive)
            if body:
                for atom in body:
                    by_atom.setdefault(atom, []).append(len(counted))
                counted.append(rule)
                missing.append(len(body))
            else:
                seeds.append((rule, variables))
            continue
        if not constants:
            continue
        rule_triggers = _triggers(rule, variables)
        if not rule_triggers:
            seeds.append((rule, variables))
        for trigger in rule_triggers:
            pivot = trigger.pivot
            if pivot.unbound:
                by_predicate.setdefault(pivot.predicate, []).append(trigger)
            else:
                by_atom.setdefault(Atom(pivot.predicate, pivot.key), []).append(trigger)
        triggers += rule_triggers

    out: list[Rule] = []
    seen: set[Atom] = set()
    queue: deque[Atom] = deque()

    def add(instance: Rule) -> None:
        out.append(instance)
        if instance.head not in seen:
            seen.add(instance.head)
            queue.append(instance.head)

    def emit(rule: Rule, variables, binding: list, free) -> None:
        for values in itertools.product(constants, repeat=len(free)):
            for slot, value in zip(free, values):
                binding[slot] = value
            instance = _instantiate(rule, dict(zip(variables, binding)))
            if instance is not None:
                add(instance)

    for rule, variables in seeds:
        if variables:
            emit(rule, variables, [None] * len(variables), range(len(variables)))
        else:
            add(rule)
    derivable = _Derivable(triggers)
    while queue:
        atom = queue.popleft()
        derivable.add(atom)
        for trigger in by_predicate.get(atom.predicate, []) + by_atom.get(atom, []):
            if isinstance(trigger, int):
                missing[trigger] -= 1
                if not missing[trigger]:
                    add(counted[trigger])
                continue
            pivot = trigger.pivot
            if any(atom.args[i] != c for i, c in zip(pivot.positions, pivot.key)):
                continue
            start = _match(pivot, atom.args, [None] * len(trigger.variables))
            if start is None:
                continue
            for binding in _join(trigger.others, start, derivable, atom.args):
                emit(trigger.rule, trigger.variables, binding, trigger.free)
    return out
