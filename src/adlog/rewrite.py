"""Rewriting of update programs into standard Datalog with negation, plus grounding.

Two rewritings are provided.  The primary one (`rewrite_st`) guards every
action with a consistency-check predicate, routes input updates through
auxiliary facts, and bridges body update atoms so that an update event is
visible whether it was derived by a rule or requested in the input delta.
The rival one (`rewrite_bm`) guards each action with the complementary
update only and turns input updates into guarded rules.

A rewriting lists the program's rules with their guards and the bridges (or
the insertion rules), then the delta's rules.  What depends on the program
alone is rewritten and planned for grounding once per `Program`, and kept with
it as one prepared run; the delta's and the database's rules have no positive
body, and are made as seeds (`_seeded`).

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
from collections import namedtuple
from functools import cached_property
from operator import attrgetter, is_
from typing import Iterable

from .model import (RESERVED_PREFIX, Atom, BuiltinLiteral, Database, Literal,
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


def renamed_updates(atoms: Iterable[Atom]) -> list[tuple[Atom, Polarity, Atom]]:
    """Each renamed update atom among `atoms`, with its polarity and base atom."""
    return [(atom, *parsed) for atom in atoms if (parsed := base_atom_of_renamed(atom))]


def _joined(name: str) -> cached_property:
    """The prefix's `name` and then the table's own (`_name`), built on first read."""
    own = "_" + name
    return cached_property(lambda self: getattr(self.prefix, name) + getattr(self, own)
                           if self.prefix else getattr(self, own))


class GroundProgram:
    """Variable-free, builtin-free rules with their atoms numbered once: the solver's atom table.

    The table is filled one rule at a time (`_add`), by `ground` as it
    instantiates rules and by this constructor from `rules`.  An atom is
    numbered at its first appearance by its predicate and arguments, and a
    rule equal to an earlier one is dropped.  Rule r has head `heads[r]`,
    positive body atoms `pos[r]` and negated body atoms `negs[r]`, and
    `defs[a]` lists the rules with head a: the atom dependency graph the
    solver reads (see stable._well_founded), over its own atoms (`_atoms`)
    and rules (`_pos`, `_negs`, `_local`), after a kept `prefix`'s if it has
    one; `atoms` (atom i is `atoms[i]`), the public lists and `rules` are
    built on first read.  A variable, an update atom or a builtin is a
    `ValidationError`.  The lists are read, never changed.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._index: dict[tuple[str, tuple[str, ...]], int] = {}
        # Each rule as numbers, its head then each body atom a, as ~a if
        # negated, with its origin.  Equal rules give equal numbers.
        self._rules: dict[tuple[int, ...], str | None] = {}
        self._heads: list[int] = []
        self._pos: list[list[int]] = []
        self._negs: list[list[int]] = []
        # What the solver derives from the rules, kept with them (see stable._well_founded).
        self.cache: dict = {}
        # Atoms the input rules already hold, by key, for `atoms` to reuse.
        self._known: dict[tuple, Atom] = {}
        self.prefix: GroundProgram | None = None    # the kept table this one extends (`_extended`)
        shared: dict[tuple, tuple] = {}
        for rule in rules:
            for lit in rule.body:
                if not isinstance(lit, StdLiteral):
                    raise ValidationError(f"body literal {lit} of rule '{rule}' is not an atom")
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                if not (isinstance(atom, Atom) and atom.is_ground()):
                    raise ValidationError(f"{atom} in a ground program is not a ground atom")
            self._add(*_keys(rule, self._known, shared), rule.origin)

    def _add(self, head: tuple, body: Iterable[tuple[tuple, bool]], origin: str | None) -> int:
        """Number the rule `head :- body`, atoms as (predicate, args) keys; returns the head's number."""
        index = self._index
        if self.prefix:     # a number known here is read in C (`_Numbers.__missing__`)
            numbers = tuple([index[head]] + [index[k] if sign else ~index[k] for k, sign in body])
        else:
            numbers = tuple([index.setdefault(head, len(index))] + [
                index.setdefault(k, len(index)) if sign else ~index.setdefault(k, len(index))
                for k, sign in body])
        if numbers not in self._rules:
            self._rules[numbers] = origin
            self._heads.append(numbers[0])
            self._pos.append([a for a in numbers[1:] if a >= 0])
            self._negs.append([~a for a in numbers[1:] if a < 0])
        return numbers[0]

    def _extended(self) -> GroundProgram:
        """A table that extends this one, its `prefix`: no rule it gains may head a prefix
        atom, so none equals a prefix rule; it reads the prefix's numbers through."""
        out = GroundProgram()
        out._index, out.prefix = _Numbers(self._index), self
        return out

    heads, pos, negs, atoms = _joined("heads"), _joined("pos"), _joined("negs"), _joined("atoms")

    @cached_property
    def _local(self) -> list[list[int]]:
        """Own atom a's own rules at a - k, k the prefix's atoms; r is r + len(prefix.heads)."""
        local: list[list[int]] = [[] for _ in self._index]
        settled = len(self.prefix._index) if self.prefix else 0
        for r, head in enumerate(self._heads):
            local[head - settled].append(r)
        return local

    @cached_property
    def defs(self) -> list[list[int]]:
        if not self.prefix:
            return self._local
        shift = len(self.prefix.heads)
        return self.prefix.defs + [[r + shift for r in rules] for rules in self._local]

    @cached_property
    def _atoms(self) -> tuple[Atom, ...]:
        return tuple([self._known.get(key) or Atom(*key) for key in self._index])

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        atoms = self.atoms
        return (self.prefix.rules if self.prefix else ()) + tuple(
            Rule(atoms[numbers[0]], tuple(StdLiteral(atoms[a]) if a >= 0
                                          else StdLiteral(atoms[~a], False)
                                          for a in numbers[1:]), origin)
            for numbers, origin in self._rules.items())

    @cached_property
    def universe(self) -> frozenset[Atom]:
        """The slice of the Herbrand base the rules mention."""
        return self.prefix.universe.union(self._atoms) if self.prefix else frozenset(self._atoms)

    @cached_property
    def updates(self) -> tuple[tuple[Atom, Polarity, Atom], ...]:
        """Each own renamed update atom with its polarity and base atom: a prefix atom is
        static, and a reserved predicate never is (see `ground`).  Only they are parsed."""
        return tuple(renamed_updates([atom for atom in self._atoms
                                      if atom.predicate.startswith(("@plus_", "@minus_"))]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroundProgram):
            return NotImplemented
        return frozenset(self.rules) == frozenset(other.rules)

    def __hash__(self) -> int:
        return hash(frozenset(self.rules))


class _Numbers(dict):
    """An extended table's own atom numbers, after the prefix's (`kept`), read on a miss."""

    def __init__(self, kept: dict[tuple, int]):
        super().__init__()
        self.kept = kept

    def __missing__(self, key: tuple) -> int:
        number = self.kept.get(key)
        return self.setdefault(key, len(self.kept) + len(self)) if number is None else number


def _keys(rule: Rule, atoms: dict[tuple, Atom],
          shared: dict[tuple, tuple]) -> tuple[tuple, tuple[tuple[tuple, bool], ...]]:
    """A variable-free rule as `GroundProgram._add` takes it; puts each atom in `atoms` by key.

    Each key, and each (key, sign) pair, is the first equal one in `shared`:
    one tuple per atom and sign, however often the rules mention it.
    """
    literals = [lit for lit in rule.body if isinstance(lit, StdLiteral)]
    held = (rule.head, *[lit.atom for lit in literals])
    keys = [shared.setdefault(key, key) for key in [(atom.predicate, atom.args) for atom in held]]
    atoms.update(zip(keys, held))
    return keys[0], tuple([shared.setdefault(pair, pair) for pair in
                           zip(keys[1:], [lit.positive for lit in literals])])


# ---------------------------------------------------------------------------
# Database embedding
# ---------------------------------------------------------------------------

def embed_database(program: Program, database: Database) -> Program:
    """One fact per true tuple, one rule `p(t) :- not p(t).` per unknown, in `str` order: seeds."""
    runs = program.cache.get("runs") or (_prepare(program.rules),)
    return _Rewritten(*runs, _kept(database, "run", _facts))


def _facts(database: Database) -> _Prepared:
    true, unknown = ([((atom.predicate, atom.args), atom) for atom in sorted(facts, key=str)]
                     for facts in (database.true_facts, database.unknown_facts))
    return _seeded([(key, ()) for key, _ in true] + [(key, ((key, False),)) for key, _ in unknown],
                   dict(true + unknown))


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
    markers = _seeded([((delta_marker_predicate(u.polarity, u.atom.predicate), u.atom.args), ())
                       for u in up.delta.ordered])
    return _Rewritten(_kept(up.program, "rewrite st", _st_program), markers)


def _passive(rule: Rule, body: list[Literal]) -> Rule:
    """The passive `rule` with `body`: the user's own `Rule` if no literal changed."""
    return rule if all(map(is_, body, rule.body)) else Rule(rule.head, tuple(body), rule.origin)


def _st_program(program: Program) -> _Prepared:
    """What `rewrite_st` takes from the program alone: its rules with guards and the
    bridges, prepared as one run."""
    rules: list[Rule] = []
    actions = program.action_predicates()

    for rule in program.rules:
        body = [_bridge_body_literal(lit) if isinstance(lit, UpdLiteral) else lit
                for lit in rule.body]
        if rule.is_active:
            guard = Atom(guard_predicate(rule.head.atom.predicate), rule.head.atom.args)
            body.append(StdLiteral(guard, positive=False))
            rules.append(Rule(renamed_update_atom(rule.head), tuple(body), rule.origin))
        else:
            rules.append(_passive(rule, body))

    for action in sorted(actions):
        args = _generic_args(actions[action])
        head = Atom(guard_predicate(action), args)
        plus = Atom(renamed_update_predicate(Polarity.INSERT, action), args)
        minus = Atom(renamed_update_predicate(Polarity.DELETE, action), args)
        rules.append(Rule(head, (StdLiteral(plus), StdLiteral(minus))))

    for polarity, predicate, arity in sorted(_body_update_pairs(program),
                                             key=lambda p: (p[1], p[0].value)):
        args = _generic_args(arity)
        bridge = Atom(bridge_predicate(polarity, predicate), args)
        renamed = Atom(renamed_update_predicate(polarity, predicate), args)
        marker = Atom(delta_marker_predicate(polarity, predicate), args)
        rules.append(Rule(bridge, (StdLiteral(renamed),)))
        rules.append(Rule(bridge, (StdLiteral(marker),)))
    return _prepare(rules, program)


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
    rules, insertable = _kept(up.program, "rewrite bm", _bm_program)
    delta, insertable = [], dict(insertable)
    for u in up.delta.ordered:
        predicate, args = u.atom.predicate, u.atom.args
        complement = Polarity.DELETE if u.polarity is Polarity.INSERT else Polarity.INSERT
        delta.append(((renamed_update_predicate(u.polarity, predicate), args),
                      (((renamed_update_predicate(complement, predicate), args), False),)))
        if u.polarity is Polarity.INSERT:
            insertable[predicate] = len(args)
    # The rules and the insertion rules are prepared as one run per insertable set.
    key = tuple(sorted(insertable.items()))
    run = _kept(up.program, ("rewrite bm", key),
                lambda program: _prepare(rules + _insertions(key), program))
    return _Rewritten(run, _seeded(delta))


def _insertions(insertable: tuple[tuple[str, int], ...]) -> tuple[Rule, ...]:
    """`p(X1, ..) :- @plus_p(X1, ..)` for each insertable predicate p."""
    rules = []
    for predicate, arity in insertable:
        args = _generic_args(arity)
        plus = Atom(renamed_update_predicate(Polarity.INSERT, predicate), args)
        rules.append(Rule(Atom(predicate, args), (StdLiteral(plus),)))
    return tuple(rules)


def _bm_program(program: Program) -> tuple[tuple[Rule, ...], tuple[tuple[str, int], ...]]:
    """What `rewrite_bm` takes from the program alone: its rules, what they insert into."""
    rules: list[Rule] = []
    insertable: dict[str, int] = {}

    for rule in program.rules:
        body = [StdLiteral(renamed_update_atom(lit.uatom), lit.positive)
                if isinstance(lit, UpdLiteral) else lit for lit in rule.body]
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
            rules.append(_passive(rule, body))
    return tuple(rules), tuple(insertable.items())


def _kept(program: Program | Database, key, compute):
    """`compute(program)`, kept in `program.cache[key]` and never changed, so threads
    may share it; two threads that miss at once both compute the same value."""
    kept = program.cache.get(key)
    if kept is None:
        kept = program.cache[key] = compute(program)
    return kept


class _Rewritten(Program):
    """The rules of a prepared run and then of its seed runs (`_seeded`), built on first
    read: `ground` reads the runs."""

    def __init__(self, prepared: _Prepared, *seeds: _Prepared):
        object.__setattr__(self, "cache", {"runs": (prepared, *seeds)})

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple([rule for run in self.cache["runs"] for rule in run.rules])


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

# A rule with `size` variables, compiled for grounding.  A binding is a row:
# each variable's value, by slot in name order, then the rule's constants;
# `row` binds no variable.  An atom (a pattern) is its predicate and the row
# index of each argument.  `body` holds the standard body literals as
# (predicate, indices, positive) and `tests` the builtins as (left index,
# right index, whether the two must be equal).
_Plan = namedtuple("_Plan", "origin size row head body tests")


def _compile(rule: Rule, variables: list[Variable], consts: list[str]):
    """The plan of a rule with `variables`, in name order, and `consts`, and its triggers."""
    slot = {t: i for i, t in enumerate(variables + consts)}
    body, tests, patterns = [], [], []
    for lit in rule.body:
        if isinstance(lit, StdLiteral):
            indices = tuple([slot[t] for t in lit.atom.args])
            body.append((lit.atom.predicate, indices, lit.positive))
            if lit.positive:
                patterns.append((lit.atom.predicate, indices))
        else:
            tests.append((slot[lit.left], slot[lit.right], lit.op == "="))
    head = (rule.head.predicate, tuple([slot[t] for t in rule.head.args]))
    plan = _Plan(rule.origin, len(variables), (None,) * len(variables) + tuple(consts), head,
                 tuple(body), tuple(tests))
    return plan, _triggers(plan, patterns)


# One positive literal in a join order.  On arrival, `positions` are the
# arguments fixed by a constant or an earlier binding and `key` their row
# indices; `unbound` pairs each other argument position with its variable
# slot.  `exclude_pivot` marks a literal left of the pivot with the pivot's
# predicate: under semi-naive evaluation it must not reuse the new atom.
_Step = namedtuple("_Step", "predicate positions key unbound exclude_pivot")

# How a new atom for the pivot literal of a plan extends to full instances;
# `free` holds the slots of the variables in no positive body literal.
_Trigger = namedtuple("_Trigger", "plan pivot others free")


def _step(pattern: tuple, bound: set[int], exclude_pivot: bool) -> _Step:
    """Compile a pattern joined after the row indices in `bound`, which it then adds to."""
    predicate, args = pattern
    positions, key, unbound = [], [], []
    for i, term in enumerate(args):
        if term in bound:
            positions.append(i)
            key.append(term)
        else:
            unbound.append((i, term))
    bound.update(slot for _, slot in unbound)
    return _Step(predicate, tuple(positions), tuple(key), tuple(unbound), exclude_pivot)


def _triggers(plan: _Plan, patterns: list[tuple]) -> list[_Trigger]:
    """One trigger per positive pattern of a plan; the rest are joined most-bound first."""
    in_positive = {t for _, args in patterns for t in args}
    free = tuple(i for i in range(plan.size) if i not in in_positive)
    triggers = []
    for p, pivot in enumerate(patterns):
        bound = set(range(plan.size, len(plan.row)))     # the constants
        first = _step(pivot, bound, False)
        rest = [q for q in range(len(patterns)) if q != p]
        others = []
        while rest:
            q = max(rest, key=lambda q: (sum(t in bound for t in patterns[q][1]), -q))
            rest.remove(q)
            others.append(_step(patterns[q], bound, q < p and patterns[q][0] == pivot[0]))
        triggers.append(_Trigger(plan, first, tuple(others), free))
    return triggers


class _Derivable:
    """Atoms derived so far, by predicate, with lookups on fixed argument positions.

    Every container keeps insertion order, so the join order, and with it the
    order of the ground rules, does not depend on string hashing.  Only the
    atoms of predicates that a join step reads (`lookups`) are kept.
    """

    def __init__(self, lookups: Iterable[tuple[str, tuple[int, ...]]]):
        self.facts: dict[str, dict[tuple, None]] = {}
        self.lookups: dict[str, dict[tuple[int, ...], dict[tuple, list[tuple]]]] = {}
        for predicate, positions in lookups:
            self.facts.setdefault(predicate, {})
            if positions:
                self.lookups.setdefault(predicate, {}).setdefault(positions, {})

    def add(self, predicate: str, args: tuple) -> None:
        if predicate in self.facts:
            self.facts[predicate][args] = None
            for positions, table in self.lookups.get(predicate, {}).items():
                table.setdefault(tuple(args[i] for i in positions), []).append(args)

    def candidates(self, step: _Step, key: tuple) -> Iterable[tuple]:
        facts = self.facts[step.predicate]
        if not step.unbound:
            return (key,) if key in facts else ()
        if not step.positions:
            return facts
        return self.lookups[step.predicate][step.positions].get(key, ())


def _match(step: _Step, args: tuple, binding: tuple | list) -> list | None:
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
    key = tuple([binding[k] for k in step.key])
    for args in derivable.candidates(step, key):
        if step.exclude_pivot and args == pivot:
            continue
        extended = _match(step, args, binding)
        if extended is not None:
            yield from _join(steps[1:], extended, derivable, pivot)


# Rules prepared for grounding (`_prepare`): a run that reads no rule before or
# after it and is never changed.  `heads` are the predicates its `rules` define,
# and `static` its phase 1 of `ground` (`_Static`, or None); the rest plans its
# other rules.  `seeds` come out before any join, in rule order: plans, each
# with its row and free slots, and variable-free rules without positive body
# (`_Waiting`, as `GroundProgram._add` takes it).  `triggers` maps a predicate
# to the triggers whose pivot has it and variables, and a ground atom's key to
# the triggers whose pivot it is and to each variable-free rule that has it
# among the `count` distinct positive body atoms that must leave the worklist
# first.  `lookups` are the (predicate, positions) the joins read, and `atoms`
# the variable-free rules'.
_Prepared = namedtuple("_Prepared", "rules constants heads static seeds triggers lookups atoms")
_Waiting = namedtuple("_Waiting", "head body origin count")


def _waiting(head: tuple, body: tuple[tuple[tuple, bool], ...], origin: str | None) -> _Waiting:
    """A variable-free rule waiting for its distinct positive body atoms: a seed if none."""
    return _Waiting(head, body, origin, len({key for key, positive in body if positive}))


class _Seeded(_Prepared):
    """A run of seeds alone (`_seeded`), its `rules` built from them on first read."""

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        atom = lambda key: self.atoms.get(key) or Atom(*key)
        return tuple([Rule(atom(s.head), tuple([StdLiteral(atom(k), sign) for k, sign in s.body]))
                      for s in self.seeds])


def _seeded(rules: list[tuple[tuple, tuple]], atoms: dict[tuple, Atom] | None = None) -> _Seeded:
    """What `_prepare` makes of variable-free rules without positive body or origin, each as
    `GroundProgram._add` takes it, `atoms` the input's: seeds alone, no trigger, nothing static."""
    keys = [key for head, body in rules for key in (head, *[key for key, _ in body])]
    return _Seeded(None, frozenset().union(*[key[1] for key in keys]),
                   frozenset([head[0] for head, _ in rules]), None,
                   tuple([_waiting(head, body, None) for head, body in rules]), {}, (), atoms or {})


# A run's phase 1 of `ground`: its static `predicates`, their ground `table`
# (shared by every run with the same static rules, see `_prepare`), and what
# the run's triggers did once as its atoms left the worklist: `replay`
# lists what they alone complete, in order, as `seeds` do, and `facts` and
# `lookups` are their `_Derivable` index, shared and never changed.  `triggers`
# keep no static key, and a `_Waiting` rule's `count` is what it still waits for.
_Static = namedtuple("_Static", "predicates table replay facts lookups")


def _static(rules: Iterable[Rule]) -> frozenset[str]:
    """The static predicates of `rules` (see `ground`)."""
    reads: dict[str, set[str]] = {}     # per predicate, the body predicates of its rules
    other, loose = set(), set()         # a rule of these reads another atom; has a loose variable
    for rule in rules:
        if not rule.body:
            continue    # a fact's variables are checked below, if it can be static
        head = rule.head_atom()
        if head.predicate.startswith(RESERVED_PREFIX):
            continue
        atoms = [lit.atom for lit in rule.body if isinstance(lit, StdLiteral)]
        reads.setdefault(head.predicate, set()).update(atom.predicate for atom in atoms)
        if any(atom != head for atom in atoms):
            other.add(head.predicate)
        if not rule.variables() <= {t for lit in rule.body if isinstance(lit, StdLiteral)
                                    and lit.positive for t in lit.atom.args}:
            loose.add(head.predicate)
    if other:
        loose.update(rule.head_atom().predicate for rule in rules
                     if not rule.body and not rule.head_atom().is_ground())
    static = other - loose      # then the greatest subset whose rules read only its predicates
    while (kept := {predicate for predicate in static if reads[predicate] <= static}) != static:
        static = kept
    return frozenset(static)


def _prepare(rules: list[Rule] | tuple[Rule, ...], kept: Program | None = None) -> _Prepared:
    """Ground the static rules (phase 1 of `ground`), plan the others (`_plan`) and fire
    their triggers on the static atoms (`_Static`).  Phase 1 is kept in `kept`'s cache,
    if given, by the static rules: every run of one program with the same static rules,
    whatever its rewriting, shares one table and its derived atoms."""
    static = _static(rules)
    if not static:
        return _plan(rules)
    first = tuple([rule for rule in rules if rule.head_atom().predicate in static])
    constants, heads, table, derived = _phase_1(first) if kept is None else \
        _kept(kept, ("phase 1", first), lambda _: _phase_1(first))
    # A call's own atoms are few: built anew, not merged from the run (`GroundProgram.atoms`).
    rest = _plan([rule for rule in rules if rule.head_atom().predicate not in static]
                 )._replace(atoms={})
    replay = []
    _, missing, index = _instantiate(table, (rest._replace(seeds=()),), derived, replay)
    renewed: dict[int, _Waiting] = {}       # by id, each waiting rule with the count it has left
    triggers = {key: tuple([renewed.setdefault(id(t), t._replace(count=missing[id(t)]))
                            if id(t) in missing else t for t in entries])
                for key, entries in rest.triggers.items()
                if (key if isinstance(key, str) else key[0]) not in static}
    facts, lookups = ({p: d for p, d in kind.items() if p in static}
                      for kind in (index.facts, index.lookups))
    return rest._replace(rules=tuple(rules), constants=constants | rest.constants,
                         heads=heads | rest.heads, triggers=triggers,
                         static=_Static(static, table, tuple(replay), facts, lookups))


def _phase_1(rules: tuple[Rule, ...]) -> tuple:
    """Phase 1 of `ground` on the static `rules`: their constants and head predicates, their
    ground table and its atoms in the order they left the worklist."""
    first, table = _plan(rules), GroundProgram()
    return first.constants, first.heads, table, tuple(_instantiate(table, (first,))[0])


def _plan(rules: list[Rule] | tuple[Rule, ...]) -> _Prepared:
    """Plan each rule once (`_compile`); a variable-free rule only has its builtins evaluated."""
    constants: set[str] = set()
    heads: set[str] = set()
    seeds: list[tuple | _Waiting] = []
    triggers: dict[str | tuple, list[_Trigger | _Waiting]] = {}
    lookups: list[tuple[str, tuple[int, ...]]] = []
    atoms: dict[tuple, Atom] = {}
    shared: dict[tuple, tuple] = {}     # the run's keys and (key, sign) pairs (`_keys`)
    for rule in rules:
        head, body = rule.head, rule.body
        try:
            terms = dict.fromkeys(itertools.chain(head.args, *[
                lit.atom.args if isinstance(lit, StdLiteral) else (lit.left, lit.right)
                for lit in body]))
        except AttributeError:      # only an update atom has none of these
            raise ValidationError(f"rule {rule} still contains update atoms") from None
        heads.add(head.predicate)
        variables = [t for t in terms if isinstance(t, Variable)]
        # A fast path that pays: planning a variable-free rule as a join costs chain 35 % of txn/s.
        if not variables:
            constants.update(terms)
            if any((lit.left == lit.right) != (lit.op == "=")
                   for lit in body if isinstance(lit, BuiltinLiteral)):
                continue
            waiting = _waiting(*_keys(rule, atoms, shared), rule.origin)
            for key in dict.fromkeys(key for key, sign in waiting.body if sign):
                triggers.setdefault(key, []).append(waiting)
            if not waiting.count:
                seeds.append(waiting)
            continue
        consts = [t for t in terms if isinstance(t, str)]
        constants.update(consts)
        plan, rule_triggers = _compile(rule, sorted(variables, key=attrgetter("name")), consts)
        if not rule_triggers:
            seeds.append((plan, plan.row, range(plan.size)))
        for trigger in rule_triggers:
            pivot = trigger.pivot
            key = pivot.predicate if pivot.unbound else \
                (pivot.predicate, tuple([plan.row[k] for k in pivot.key]))
            triggers.setdefault(key, []).append(trigger)
            lookups += [(step.predicate, step.positions if step.unbound else ())
                        for step in trigger.others]
    return _Prepared(tuple(rules), frozenset(constants), frozenset(heads), None, tuple(seeds),
                     {key: tuple(entries) for key, entries in triggers.items()},
                     tuple(lookups), atoms)


def ground(program: Program) -> GroundProgram:
    """Instantiate the rule instances whose positive body atoms are derivable.

    Positive body literals are joined bottom-up against the atoms derived so
    far; only variables that occur in no positive body literal range over the
    active constant domain.  Rule instances with a false builtin are dropped;
    true builtins are removed from bodies.  Leaving out the instances with an
    underivable positive body atom cannot change any stable model on the
    atoms that remain derivable.

    Grounding prepares, then instantiates, in two phases.  A predicate is
    static when it is not reserved, a rule of it reads an atom other than its
    head, no rule of it has a variable outside its positive body, and its
    rules read only static predicates (the greatest such set).  Their ground
    rules read no transaction: the bottom of a splitting set (Lifschitz &
    Turner 1994).  Phase 1 grounds them, and phase 2 the other rules with
    phase 1's atoms derived, so those are numbered 0 .. k-1 and no rule of
    phase 2 heads one (see stable._well_founded).  A worklist holds atoms
    derived but not yet joined, phase 1's first, each joined into every
    positive body literal it matches (semi-naive: a literal left of the pivot
    with the pivot's predicate skips the new atom).  A variable-free rule
    comes out when the last of its distinct positive body atoms leaves the
    worklist.  Instances come out in derivation order, and those one atom
    completes in rule order, as one run of the rules gives them.  `_prepare`
    plans each rule once, runs phase 1 and joins its atoms into the others, so
    a rewriting passes its runs on (`program.cache["runs"]`): the program's
    rules and the bridges or insertion rules as one prepared run, kept with the
    program (`_kept`), then the delta's and the database's seed runs.  A call
    adds the seeds, replays what phase 1's atoms completed and joins its own
    atoms (`_Static`).  If a seed run defines a static predicate (a database
    fact), the runs are prepared again as one.
    """
    runs = program.cache.get("runs") or (_prepare(program.rules),)
    static = runs[0].static
    if static and any(not static.predicates.isdisjoint(run.heads) for run in runs[1:]):
        runs = (_prepare([rule for run in runs for rule in run.rules]),)
        static = runs[0].static
    out = static.table._extended() if static else GroundProgram()
    _instantiate(out, runs)
    return out


def _instantiate(out: GroundProgram, runs: tuple[_Prepared, ...], given: Iterable[tuple] = (),
                 record: list | None = None) -> tuple:
    """Add the instances of a prepared run and its seed runs (`_seeded`) to `out`, the
    atoms `given` joined first and the prepared run's phase 1 replayed after the seeds;
    returns the worklist, each waiting rule's count left, by id (the rules outlive the
    call), and the atoms joined.  Only the prepared run has triggers.  With `record`, only
    `given` is joined, and what it completes is listed there (`_Static.replay`), not added."""
    for run in runs:
        out._known.update(run.atoms)
    triggers = runs[0].triggers
    missing: dict[int, int] = {}
    derived: set[int] = set()
    queue = list(given)
    constants: list[str] = []       # sorted on first use: most plans have no free variable

    def add(head: tuple, body: Iterable, origin: str | None) -> None:
        h = out._add(head, body, origin)
        if h not in derived:
            derived.add(h)
            queue.append(head)

    def emit(plan: _Plan, binding: list, free) -> None:
        if free and not constants:
            constants.extend(sorted(frozenset().union(*[run.constants for run in runs])))
        for values in itertools.product(constants, repeat=len(free)):
            for slot, value in zip(free, values):
                binding[slot] = value
            for left, right, equal in plan.tests:
                if (binding[left] == binding[right]) != equal:
                    break
            else:
                add((plan.head[0], tuple([binding[i] for i in plan.head[1]])),
                    [((p, tuple([binding[i] for i in args])), positive)
                     for p, args, positive in plan.body], plan.origin)

    if record is not None:
        add = lambda *instance: record.append(_Waiting(*instance, 0))
        emit = lambda plan, binding, free: record.append((plan, tuple(binding), free))
    static = runs[0].static
    for seed in itertools.chain(*[run.seeds for run in runs], static.replay if static else ()):
        if isinstance(seed, _Waiting):
            add(seed.head, seed.body, seed.origin)
        else:
            emit(seed[0], list(seed[1]), seed[2])
    derivable = _Derivable(lookup for run in runs for lookup in run.lookups)
    if static:
        derivable.facts.update(static.facts)
        derivable.lookups.update(static.lookups)
    for key in queue:       # the list grows as the loop runs
        predicate, args = key
        derivable.add(predicate, args)
        for trigger in triggers.get(predicate, ()) + triggers.get(key, ()):
            if isinstance(trigger, _Waiting):
                left = missing[id(trigger)] = missing.get(id(trigger), trigger.count) - 1
                if not left:
                    add(trigger.head, trigger.body, trigger.origin)
                continue
            pivot, row = trigger.pivot, trigger.plan.row
            if any(args[i] != row[k] for i, k in zip(pivot.positions, pivot.key)):
                continue
            start = _match(pivot, args, row)
            if start is None:
                continue
            for binding in _join(trigger.others, start, derivable, args):
                emit(trigger.plan, binding, trigger.free)
    return queue, missing, derivable
