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
it as one prepared run.  Each insertion rule is a run of its own, planned once
per process (`_insertion`).  The delta's and the database's rules have no
positive body, and are made as seeds (`_seeded`).

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
from collections import defaultdict, namedtuple
from collections.abc import Iterable
from functools import cached_property, lru_cache
from operator import attrgetter, is_

from .model import (RESERVED_PREFIX, Atom, BuiltinLiteral, Database, Literal, Polarity, Program,
                    Rule, StdLiteral, UpdateAtom, UpdateProgram, UpdLiteral, ValidationError,
                    Variable, validate_update_program)


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


class GroundProgram:
    """Variable-free, builtin-free rules with their atoms numbered once: the solver's atom table.

    The table is filled one rule at a time, into `_index` and `_rules` only, by
    `ground` (`_add`, and each plan's compiled `emit`) and by this constructor
    from `rules`.  An atom is numbered at its first appearance by its predicate
    and arguments, and a rule equal to an earlier one is dropped.  A table that
    extends a kept `prefix` numbers its own atoms from `settled`, the prefix's
    atom count (0 without one).  The solver reads one graph, `_local`: each own
    atom's rule bodies (see stable._well_founded).  `atoms` (atom i is
    `atoms[i]`), `_local` and `rules` are built on first read, once the table is
    filled: a table whose structure the solver knows builds no list.  A
    variable, an update atom or a builtin is a `ValidationError`.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        # Each atom's number: a new one is numbered next, in C (a `_Numbers` if extended).
        self._index: dict[tuple, int] = defaultdict(itertools.count().__next__)
        # Each rule as numbers, its head then each body atom a, as ~a if
        # negated, with its origin.  Equal rules give equal numbers.
        self._rules: dict[tuple[int, ...], str | None] = {}
        # What the solver derives from the rules, kept with them (see stable._well_founded).
        self.cache: dict = {}
        # Atoms the input rules already hold, by key, for `atoms` to reuse.
        self._known: dict[tuple, Atom] = {}
        self.prefix: GroundProgram | None = None    # the kept table this one extends (`_extended`)
        self.settled = 0                            # the prefix's atom count: own atoms follow
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
        """Number `head :- body`, atoms as (predicate, args) keys, as `emit` does; returns its
        head's number."""
        index = self._index
        numbers = tuple([index[head]] + [index[k] if sign else ~index[k] for k, sign in body])
        self._rules.setdefault(numbers, origin)
        return numbers[0]

    def _extended(self) -> GroundProgram:
        """A table that extends this one, its `prefix`: no rule it gains may head a prefix
        atom, so none equals a prefix rule; it reads the prefix's numbers through."""
        out = GroundProgram()
        out._index, out.prefix, out.settled = _Numbers(), self, len(self._index)
        out._index.kept = self._index
        return out

    @cached_property
    def _local(self) -> list[list[tuple[int, ...]]]:
        """Own atom a's own rules' bodies at a - `settled`; a negated n is ~n."""
        local: list[list[tuple[int, ...]]] = [[] for _ in self._index]
        for rule in self._rules:
            local[rule[0] - self.settled].append(rule[1:])
        return local

    @cached_property
    def _atoms(self) -> tuple[Atom, ...]:
        return tuple([self._known.get(key) or Atom(*key) for key in self._index])

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        return self.prefix.atoms + self._atoms if self.prefix else self._atoms

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

    pairs = {(lit.uatom.polarity, lit.uatom.atom.predicate, lit.uatom.atom.arity)
             for rule in program.rules for lit in rule.body if isinstance(lit, UpdLiteral)}
    for polarity, predicate, arity in sorted(pairs, key=lambda p: (p[1], p[0].value)):
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
    side.  Each predicate an action rule or the delta inserts into adds its
    insertion rule as a run of its own (`_insertion`), after the program's run.
    An insertion into a predicate the program's run holds static is refused as
    validation refuses it: a static predicate is derived.
    """
    run, insertable = _kept(up.program, "rewrite bm", _bm_program)
    inserted = insertable | {(atom.predicate, atom.arity) for atom in up.delta.inserts()}
    if run.static and not run.static.predicates.isdisjoint([p for p, _ in inserted]):
        validate_update_program(up)     # raises: a static predicate is derived
    delta = [((renamed_update_predicate(u.polarity, u.atom.predicate), u.atom.args),
              (((renamed_update_predicate(_COMPLEMENT[u.polarity], u.atom.predicate),
                 u.atom.args), False),)) for u in up.delta.ordered]
    return _Rewritten(run, *[_insertion(*pair) for pair in sorted(inserted)], _seeded(delta))


_COMPLEMENT = {Polarity.INSERT: Polarity.DELETE, Polarity.DELETE: Polarity.INSERT}


@lru_cache(maxsize=256)
def _insertion(predicate: str, arity: int) -> _Prepared:
    """p's insertion rule `p(X1, ..) :- @plus_p(X1, ..)` planned alone, a run every program shares.

    After a prepared run, it leaves the ground table as one run of both gives it, rule by
    rule and atom by atom.  It reads `@plus_p`, reserved and so never static: phase 1's
    atoms fire none of its triggers, and `_instantiate` fires them after the prepared run's
    own, per predicate (or, at arity 0, per ground atom).  `rewrite_bm` refuses an
    insertion into a static predicate, so the prepared run's static set and replay are
    those of one run of both.
    """
    args = _generic_args(arity)
    plus = Atom(renamed_update_predicate(Polarity.INSERT, predicate), args)
    return _plan([Rule(Atom(predicate, args), (StdLiteral(plus),))])


def _bm_program(program: Program) -> tuple[_Prepared, frozenset[tuple[str, int]]]:
    """What `rewrite_bm` takes from the program alone: its rules, prepared as one run, and
    the predicates its action rules insert into, with their arities."""
    rules: list[Rule] = []
    for rule in program.rules:
        body = [StdLiteral(renamed_update_atom(lit.uatom), lit.positive)
                if isinstance(lit, UpdLiteral) else lit for lit in rule.body]
        if rule.is_active:
            complement = UpdateAtom(_COMPLEMENT[rule.head.polarity], rule.head.atom)
            guard = StdLiteral(renamed_update_atom(complement), positive=False)
            if guard not in body:
                body.append(guard)
            rules.append(Rule(renamed_update_atom(rule.head), tuple(body), rule.origin))
        else:
            rules.append(_passive(rule, body))
    return _prepare(rules, program), frozenset(
        (rule.head.atom.predicate, rule.head.atom.arity) for rule in program.rules
        if rule.is_active and rule.head.polarity is Polarity.INSERT)


def _kept(program: Program | Database, key, compute):
    """`compute(program)`, kept in `program.cache[key]`, never changed but for a run's `base`
    and never compared, so threads share it; two threads that miss at once compute alike."""
    kept = program.cache.get(key)
    if kept is None:
        kept = program.cache[key] = compute(program)
    return kept


class _Rewritten(Program):
    """The rules of a prepared run, of its insertion runs (`_insertion`) and then of its
    seed runs (`_seeded`), built on first read: `ground` reads the runs.  A copy or a
    pickle is the plain `Program` of the rules, and `repr` prints it."""

    def __init__(self, prepared: _Prepared, *runs: _Prepared):
        object.__setattr__(self, "cache", {"runs": (prepared, *runs)})

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple([rule for run in self.cache["runs"] for rule in run.rules])

    def __reduce__(self):
        return Program, (self.rules,)


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

# A rule with `size` variables, planned for grounding.  A row holds each
# variable's value, by slot in name order, then the rule's constants; `row`
# binds no variable.  An atom is its predicate and the row index of each
# argument: `body` holds the standard body literals as (predicate, indices,
# positive), `tests` the builtins as (left index, right index, whether equal),
# `free` the slots in no positive body literal, and `emit` is code (`_emitter`).
_Plan = namedtuple("_Plan", "origin size row head body tests free emit")


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
    free = sorted(set(range(len(variables))).difference(*[args for _, args in patterns]))
    plan = _Plan(rule.origin, len(variables), (None,) * len(variables) + tuple(consts), head,
                 tuple(body), tuple(tests), tuple(free), None)
    plan = plan._replace(emit=_emitter(plan))
    return plan, _triggers(plan, patterns)


# One positive literal in a join order.  On arrival, `positions` are the
# arguments fixed by a constant or an earlier binding and `key` their row
# indices; `unbound` pairs each other argument position with its variable
# slot.  `exclude_pivot` marks a literal left of the pivot with the pivot's
# predicate: under semi-naive evaluation it must not reuse the new atom.
_Step = namedtuple("_Step", "predicate positions key unbound exclude_pivot")

# How a new atom for a plan's pivot literal joins the `others`: `join` (`_joiner`).
_Trigger = namedtuple("_Trigger", "plan pivot others join")


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
        triggers.append(_Trigger(plan, first, tuple(others), _joiner(plan, first, others)))
    return triggers


@lru_cache(maxsize=256)
def _maker(source: str):
    """The `make` function that `source` defines, compiled once per source.

    Grounding interprets no plan: each plan and trigger becomes source once and is compiled
    to straight-line code (as in Soufflé, Jordan, Scholz & Subotić, CAV 2016).  A source
    holds the plan's shape alone, each predicate, constant and origin an argument of `make`:
    no program text becomes code, and equal shapes share one compilation.  A fast path that
    pays: traced, cascade's grounding fell from 208 to 80 us a transaction.  It costs each
    new shape a compile, about 0.1 ms; a fixture has at most 19 shapes and the benchmark's
    three workloads 28, so 256 kept shapes (0.4 MB) let programs of one process share them.
    """
    namespace: dict = {"product": itertools.product}
    exec(compile(source, "<grounding plan>", "exec"), namespace)
    return namespace["make"]


def _made(plan: _Plan, predicates: list[str], name: str, lines: list[str]):
    """`name`, defined by `lines` in `make(origin, p0, .., v<slot>, ..)`, made for `plan`."""
    parameters = [f"p{k}" for k in range(len(predicates))] + \
        [f"v{i}" for i in range(plan.size, len(plan.row))]
    source = "\n".join([f"def make(origin, {', '.join(parameters)}):", *lines, f" return {name}"])
    return _maker(source)(plan.origin, *predicates, *plan.row[plan.size:])


def _emitter(plan: _Plan):
    """`emit(row, constants, index, rules, derived, queue)`: number each instance of the binding
    `row` into a table, queueing a new head; free slots range over `constants` in product order."""
    name = [f"v{i}" for i in range(len(plan.row))]
    atom = lambda k, slots: f"(p{k}, ({''.join(name[i] + ', ' for i in slots)}))"
    lines = [" def emit(row, constants, index, rules, derived, queue):",
             f"  {''.join(n + ', ' for n in name[:plan.size])}= row"]
    free = "".join(name[s] + ", " for s in plan.free)
    lines += [f"  for {free}in product(constants, repeat={len(plan.free)}):"] * bool(plan.free)
    pad = "   " if plan.free else "  "
    lines += [f"{pad}if {name[left]} {'!=' if equal else '=='} {name[right]}: "
              + ("continue" if plan.free else "return") for left, right, equal in plan.tests]
    body = "".join(f"{'' if positive else '~'}index[{atom(k, slots)}], "
                   for k, (_, slots, positive) in enumerate(plan.body, 1))
    lines += [f"{pad}key = {atom(0, plan.head[1])}", f"{pad}head = index[key]",
              f"{pad}rules.setdefault((head, {body}), origin)", f"{pad}if head not in derived:",
              f"{pad} derived.add(head)", f"{pad} queue.append(key)"]
    return _made(plan, [plan.head[0]] + [p for p, _, _ in plan.body], "emit", lines)


def _joiner(plan: _Plan, pivot: _Step, others: list[_Step]):
    """`join(args, facts, lookups)`: each binding of the plan's variables (a free one None)
    that a new pivot atom's `args` extend to through the `others` (`_instantiate`'s index)."""
    name = [f"v{i}" for i in range(len(plan.row))]
    lines, pad = [" def join(args, facts, lookups):"], "  "

    def bind(step: _Step, value: str, miss: str) -> None:
        """Unpack `value`: a repeated slot, or a pivot's fixed position, must match."""
        fixed = list(zip(step.positions, step.key)) if step is pivot else []
        to, checks = ["_"] * (len(step.key) + len(step.unbound)), ["t == args"] * step.exclude_pivot
        seen = {k for _, k in fixed}
        for i, s in fixed + list(step.unbound):
            to[i] = f"t{i}" if s in seen else name[s]
            checks += [f"t{i} != {name[s]}"] * (s in seen)
            seen.add(s)
        lines.append(f"{pad}{''.join(t + ', ' for t in to)}= {value}")
        lines.extend(f"{pad}if {check}: {miss}" for check in checks)

    if pivot.unbound:
        bind(pivot, "args", "return")
    passed = {s for _, s in pivot.unbound}      # the slots bound so far
    for k, step in enumerate(others):
        if k and not k % 15:    # Python nests at most 20 blocks in a function: go on in another
            call = f"join{k}(args, facts, lookups, {''.join(name[s] + ', ' for s in sorted(passed))})"
            lines += [f"{pad}yield from {call}", f" def {call}:"]
            pad = "  "
        passed.update(s for _, s in step.unbound)
        key = f"({''.join(name[s] + ', ' for s in step.key)})"
        if not step.unbound:
            other = f" and {key} != args" if step.exclude_pivot else ""
            lines.append(f"{pad}if {key} in facts[p{k}]{other}:")
        elif step.positions:
            lines.append(f"{pad}for t in lookups[p{k}][{step.positions!r}].get({key}, ()):")
        else:
            lines.append(f"{pad}for t in facts[p{k}]:")
        pad += " "
        if step.unbound:
            bind(step, "t", "continue")
    bound = ", ".join("None" if i in plan.free else name[i] for i in range(plan.size))
    lines.append(f"{pad}yield ({bound},)")
    return _made(plan, [step.predicate for step in others], "join", lines)


# Rules prepared for grounding (`_prepare`): a plain value, a run that reads no rule
# before or after it and is never changed but for `_Static.base`.  `heads` are the
# predicates its `rules` define, and `static` its phase 1 of `ground`
# (`_Static`, or None); the rest plans its other rules.  `seeds` come out before
# any join, in rule order: plans, each with a binding of no variable, and
# variable-free rules without positive body (`_Waiting`, as `GroundProgram._add`
# takes it).  `triggers` maps a predicate to the triggers whose pivot has it and
# variables, and a ground atom's key to the triggers whose pivot it is and to
# each variable-free rule that has it among the `count` distinct positive body
# atoms that must leave the worklist first.  `lookups` are the (predicate,
# positions) the joins read, and `atoms` the variable-free rules'.
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
# `lookups` are their index (`_instantiate`), shared and never changed.  `triggers`
# keep no static key, and a `_Waiting` rule's `count` is what it still waits for.
# `base` is the run's one mutable part: a one-element list of the database facts on static
# predicates that entered its last base (see `ground`) and that base, replaced whole in one
# store, so threads need no lock.  A base adds database facts alone (see `rewrite_bm`).
_Static = namedtuple("_Static", "predicates table replay facts lookups base")


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
    constants, table, derived = _phase_1(first) if kept is None else \
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
                      for kind in index)
    return rest._replace(rules=tuple(rules), constants=constants | rest.constants,
                         heads=static | rest.heads, triggers=triggers, static=_Static(
                             static, table, tuple(replay), facts, lookups, [(None, None)]))


def _phase_1(rules: tuple[Rule, ...]) -> tuple:
    """Phase 1 of `ground` on the static `rules`: their constants, their ground table and its
    atoms in the order they left the worklist.  The rules' heads are the static predicates."""
    first, table = _plan(rules), GroundProgram()
    return first.constants, table, tuple(_instantiate(table, (first,))[0])


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
        # A fast path that pays: a variable-free rule planned as a join costs chain ~9 % of txn/s.
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
            seeds.append((plan, (None,) * plan.size))
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
    plans each rule once, as code (`_maker`) that numbers its instances into
    the table, runs phase 1 and joins its atoms into the others, so a
    rewriting passes its runs on (`program.cache["runs"]`): the program's
    rewritten rules (with `st`'s bridges) as one prepared run, kept with the
    program (`_kept`), then `bm`'s insertion runs (`_insertion`), then the
    delta's and the database's seed runs.  A call adds the seeds, replays what
    phase 1's atoms completed and joins its own atoms (`_Static`).  A database
    fact on a static predicate, true or unknown, joins the prepared run's rules
    in a base with the same static predicates, the last one kept; `rewrite_bm`
    refuses an insertion into one, so no other run heads one.  A program that
    carries no runs is prepared as one.
    """
    runs = program.cache.get("runs") or (_prepare(program.rules),)
    static = runs[0].static
    if static and any(not static.predicates.isdisjoint(run.heads) for run in runs[1:]):
        moved = tuple([rule for run in runs[1:] for rule in run.rules
                       if rule.head.predicate in static.predicates])
        facts, base = static.base[0]
        if facts != moved:
            static.base[0] = moved, (base := _prepare(runs[0].rules + moved))
        runs = (base, *[run._replace(seeds=tuple([s for s in run.seeds
                                                  if s.head[0] not in static.predicates]))
                        for run in runs[1:]])
        static = base.static
    out = static.table._extended() if static else GroundProgram()
    _instantiate(out, runs)
    return out


def _instantiate(out: GroundProgram, runs: tuple[_Prepared, ...], given: Iterable[tuple] = (),
                 record: list | None = None) -> tuple:
    """Add the instances of a prepared run, its insertion runs (`_insertion`) and its seed
    runs (`_seeded`) to `out`, the atoms `given` joined first and the prepared run's phase 1
    replayed after the seeds; returns the worklist, each waiting rule's count left, by id
    (the rules outlive the call), and the atoms joined, indexed.  An atom fires the prepared
    run's triggers of its predicate, then the insertion runs', then those of its key in the
    same order, as one run of all their rules does.  With `record`, only `given` is joined,
    and what it completes is listed there, as seeds (`_Static.replay`)."""
    triggers, extra = runs[0].triggers, {}
    for run in runs:
        out._known.update(run.atoms)
        if run.triggers and run is not runs[0]:
            for key, entries in run.triggers.items():
                extra[key] = extra.get(key, triggers.get(key, ())) + entries
    fired = triggers.get if not extra else lambda k, none: extra.get(k) or triggers.get(k, none)
    missing: dict[int, int] = {}
    derived: set[int] = set()
    queue = list(given)
    constants: list[str] = []       # sorted on first use: most plans have no free variable

    def add(rule: _Waiting) -> None:
        head = out._add(rule.head, rule.body, rule.origin)
        if head not in derived:
            derived.add(head)
            queue.append(rule.head)

    def emit(plan: _Plan, row: tuple) -> None:
        if plan.free and not constants:
            constants.extend(sorted(frozenset().union(*[run.constants for run in runs])))
        plan.emit(row, constants, out._index, out._rules, derived, queue)

    if record is not None:
        add, emit = record.append, lambda *seed: record.append(seed)
    static = runs[0].static
    for seed in itertools.chain(*[run.seeds for run in runs], static.replay if static else ()):
        if isinstance(seed, _Waiting):
            add(seed)
        else:
            emit(*seed)
    # The atoms joined, by predicate and by their arguments at the positions a join step
    # fixes, of the predicates the steps read.  Every container keeps insertion order, so the
    # join order, and with it the order of the ground rules, does not depend on string hashing.
    facts: dict[str, dict[tuple, None]] = {}
    lookups: dict[str, dict[tuple[int, ...], dict[tuple, list[tuple]]]] = {}
    for predicate, positions in itertools.chain(*[run.lookups for run in runs]):
        facts.setdefault(predicate, {})
        if positions:
            lookups.setdefault(predicate, {}).setdefault(positions, {})
    if static:
        facts.update(static.facts)
        lookups.update(static.lookups)
    for key in queue:       # the list grows as the loop runs: each atom is joined once
        predicate, args = key
        if predicate in facts:
            facts[predicate][args] = None
            for positions, table in lookups.get(predicate, {}).items():
                table.setdefault(tuple([args[i] for i in positions]), []).append(args)
        for trigger in fired(predicate, ()) + fired(key, ()):
            if isinstance(trigger, _Waiting):
                left = missing[id(trigger)] = missing.get(id(trigger), trigger.count) - 1
                if not left:
                    add(trigger)
                continue
            for row in trigger.join(args, facts, lookups):
                emit(trigger.plan, row)
    return queue, missing, (facts, lookups)
