"""Three-valued model theory: the reduct operator, well-founded model, stable-model families.

Everything rests on the reduct operator Psi (Przymusinski 1990): Psi(I) is the
least three-valued model of the program in which every negated body literal is
replaced by the complement of its value in I.  The partial stable models are
the fixpoints of Psi, and the well-founded model is the least of them in the
knowledge order, reached by iterating Psi from the all-undefined
interpretation.  That iteration is run one strongly connected component of the
atom dependency graph at a time, lower components first (Van Gelder, Ross &
Schlipf 1991): a component reads only atoms of its own and of lower components,
which already hold their final values, so each rule is propagated in its own
component only.  A single atom that no rule of its own reads takes its best
rule's value, and any other component iterates Psi.  A least model is computed
one truth level at a time by counter propagation (Dowling & Gallier 1984): an
atom reaches a level when some rule whose floor, the least complement of its
negated atoms, reaches that level has every positive body atom at that level.
Every partial stable model extends the well-founded model, so a family is built
on its undefined residue: the residue splits into components linked by the
rules still live under the well-founded model (splitting sets; Lifschitz &
Turner 1994), each component is searched on its own, against its live rules
only, by truth-order bounds that Psi narrows, and the family is the product of
the fixpoints of Psi found per component.  Both read one atom table, which the
grounder fills as it instantiates the rules: each atom numbered once, each rule
kept by those numbers (its atom dependency graph).  The program's cache keeps
the well-founded values and model computed from it; a program that extends a
kept prefix of static atoms (see rewrite.ground) starts from the prefix's.

The family is kept factorised: `ModelFamily` holds the well-founded model
and each component's parts, each flagged within its component from per-atom
masks as the component is enumerated.  Components share no atoms, so a model
carries a flag exactly when each of its parts does (the argument per flag is
on `ModelFamily`), counts are products of per-component counts, and a model
is chosen part by part.  The product of the parts is listed only when
`records` is read.  A caller may keep one bounded memo across programs
(`memo`): a table's numbered rules give its well-founded values (a table with
a prefix is not kept), and a residue component's renumbered rules and token
ranks, all that its search and flags read, give its flagged parts.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .model import (Atom, EngineError, Interpretation, ResourceLimitError, TruthValue,
                    _set, _Value, render_token)
from .rewrite import GroundProgram

DEFAULT_ENUMERATION_CAP = 20

FLAG_WELL_FOUNDED = "well-founded"
FLAG_T_STABLE = "t-stable"
FLAG_M_STABLE = "m-stable"
FLAG_L_STABLE = "l-stable"
FLAG_DETERMINISTIC = "deterministic"
FLAG_MAX_DETERMINISTIC = "max-deterministic"

ALL_FLAGS = (FLAG_WELL_FOUNDED, FLAG_T_STABLE, FLAG_M_STABLE, FLAG_L_STABLE,
             FLAG_DETERMINISTIC, FLAG_MAX_DETERMINISTIC)

_TRUE = int(TruthValue.TRUE)
_UNDEF = int(TruthValue.UNDEFINED)
_FALSE = int(TruthValue.FALSE)
_NOTHING = Interpretation(frozenset())
_VALUES = (TruthValue.FALSE, TruthValue.UNDEFINED, TruthValue.TRUE)


class _Rules:
    """Rules over the atoms 0 .. size - 1, in the form the least-model kernel reads.

    Rule r has head `heads[r]`, `need[r]` positive body literals and negated
    body atoms `negs[r]`, and its floor cannot rise above `base[r]`;
    `occurs[a]` names rule r once for every positive body literal of r on
    atom a, and `unconditional` lists the rules with no positive body literal.
    `_restrict` and `_components` build it.
    """

    def __init__(self, size: int, heads: Sequence[int], pos: Sequence[Sequence[int]],
                 negs: Sequence[Sequence[int]], base: Sequence[int]):
        self.size = size
        self.heads = heads
        self.pos = pos
        self.negs = negs
        self.base = base
        self.need = [len(p) for p in pos]
        self.occurs: list[list[int]] = [[] for _ in range(size)]
        for r, body in enumerate(pos):
            for p in body:
                self.occurs[p].append(r)
        self.unconditional = [r for r, n in enumerate(self.need) if n == 0]


def _floors(rules: _Rules, vals: list[int]) -> list[int]:
    """Each rule's floor in the reduct by `vals`: the least complement of its negated atoms."""
    floors = []
    for floor, neg in zip(rules.base, rules.negs):
        for n in neg:
            if _TRUE - vals[n] < floor:
                floor = _TRUE - vals[n]
        floors.append(floor)
    return floors


def _reach(rules: _Rules, floors: list[int], level: int) -> list[bool]:
    """Which atoms are at `level` or above in the least model of the reduct with `floors`."""
    # A rule fires once its count of positive body literals not yet reached
    # drops to zero, if its floor is at the level.
    heads, occurs = rules.heads, rules.occurs
    need = rules.need[:]
    reached = [False] * rules.size
    stack = []
    for r in rules.unconditional:
        if floors[r] >= level:
            head = heads[r]
            if not reached[head]:
                reached[head] = True
                stack.append(head)
    while stack:
        for r in occurs[stack.pop()]:
            need[r] -= 1
            if not need[r] and floors[r] >= level:
                head = heads[r]
                if not reached[head]:
                    reached[head] = True
                    stack.append(head)
    return reached


def _psi(rules: _Rules, vals: list[int]) -> list[int]:
    """The reduct operator: the least three-valued model of the reduct by `vals`."""
    floors = _floors(rules, vals)
    # Atoms at TRUE are also at UNDEFINED, so the two flags add up to the value.
    return [top + mid for top, mid in zip(_reach(rules, floors, _TRUE),
                                          _reach(rules, floors, _UNDEF))]


def _stable(rules: _Rules, vals: Sequence[int]) -> bool:
    """True when `vals` is a fixpoint of the reduct operator."""
    return _psi(rules, vals) == list(vals)


def _restrict(program: GroundProgram, atoms: Sequence[int], vals: Sequence[int]) -> _Rules:
    """The rules for `atoms`, over those atoms only, every other atom fixed by `vals`.

    Atom `atoms[i]` becomes atom i.  A body atom outside `atoms` is read from
    `vals` and folded into its rule's floor: a positive one at its value, a
    negated one at its complement.  A rule whose floor falls to FALSE can
    derive nothing and is left out.
    """
    slot = {a: i for i, a in enumerate(atoms)}
    heads, pos, negs, base = [], [], [], []
    settled = program.settled
    for i, a in enumerate(atoms):
        table, own = (program, a - settled) if a >= settled else (program.prefix, a)
        for body in table._local[own]:
            floor, inner_pos, inner_neg = _TRUE, [], []
            for b in body:      # a negated atom n is ~n
                n = b if b >= 0 else ~b
                if n in slot:
                    (inner_pos if b >= 0 else inner_neg).append(slot[n])
                    continue
                v = vals[n] if b >= 0 else _TRUE - vals[n]
                if v < floor:
                    floor = v
            if floor != _FALSE:
                heads.append(i)
                pos.append(inner_pos)
                negs.append(inner_neg)
                base.append(floor)
    return _Rules(len(atoms), heads, pos, negs, base)


def _sccs(program: GroundProgram) -> Iterator[list[int]]:
    """The strongly connected components of the atom dependency graph, dependencies first.

    Tarjan's algorithm (1972), with an explicit stack so that a long chain
    of rules does not exhaust Python's recursion limit.  A component is
    yielded only after every component it reaches, and the search starts
    from the atoms in table order, so the order is deterministic.  The
    `prefix`'s atoms come first and reach no other atom: the search runs over
    the own atoms and rules only, atom a at a - `settled` (`GroundProgram._local`).
    """
    bodies, settled = program._local, program.settled

    def successors(a: int) -> Iterator[int]:
        return iter([n - settled for body in bodies[a] for b in body
                     if (n := b if b >= 0 else ~b) >= settled])

    size = len(bodies)
    done = size + 1                 # the order of an atom already yielded: above any low
    order = [0] * size              # visit number, from 1; 0 while unvisited
    low = [0] * size
    stack: list[int] = []
    visited = 0
    for root in range(size):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        stack.append(root)
        work = [(root, successors(root))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if not order[w]:
                    visited += 1
                    order[w] = low[w] = visited
                    stack.append(w)
                    work.append((w, successors(w)))
                    break
                if order[w] < low[v]:     # w is on the stack
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        order[w] = done
                    yield [w + settled for w in component]


def _solve(program: GroundProgram, kept: list[int]) -> list[int]:
    """The well-founded values of the prefix's atoms, `kept`, then of `program`'s own.

    The model is computed one strongly connected component of the atom
    dependency graph at a time, in the order `_sccs` yields them (Van Gelder,
    Ross & Schlipf 1991).  The well-founded value of an atom depends only on
    the rules of the atoms it reaches, and the atoms a component reaches lie
    in it or in components yielded before it.  A lower component reaches no
    atom of a higher one, so its values are final once computed, and each
    component is the least fixpoint of Psi over its own rules with the lower
    values fixed (`_restrict`).  There are two cases: a single atom that no
    rule of its own reads takes its best rule's floor, and any other
    component iterates Psi from all-undefined until it stops changing.
    """
    bodies = program._local
    vals = kept + [_UNDEF] * len(bodies)
    for component in _sccs(program):
        # A fast path that pays: settling these atoms through Psi costs chain 47 % of txn/s.
        if len(component) == 1:
            a = component[0]
            value = _FALSE
            for body in bodies[a - len(kept)]:
                if a in body or ~a in body:
                    break
                floor = _TRUE
                for b in body:      # a negated atom n is ~n
                    v = vals[b] if b >= 0 else _TRUE - vals[~b]
                    if v < floor:
                        floor = v
                if floor > value:
                    value = floor
            else:
                vals[a] = value
                continue
        rules = _restrict(program, component, vals)
        sub = [_UNDEF] * len(component)
        new_sub = _psi(rules, sub)
        while new_sub != sub:
            for old, new in zip(sub, new_sub):
                if old != _UNDEF and old != new:
                    raise EngineError("well-founded iteration is not inflationary")
            sub, new_sub = new_sub, _psi(rules, new_sub)
        for a, v in zip(component, new_sub):
            vals[a] = v
    return vals


def _well_founded(program: GroundProgram,
                  memo: dict | None = None) -> tuple[list[int], Interpretation]:
    """The well-founded values of `program`'s atoms and its model, computed once and cached.

    The values are indexed by the program's one atom table, filled as it was
    grounded (or by `GroundProgram(rules)`, which rejects rules that are not
    ground), and computed by `_solve`.  A table that extends a kept `prefix`
    (rewrite.ground's phase 1) starts from the prefix's values, as its atoms
    read no other atom, and reads only its own rules; its model builds its
    sets on first read (`_Model`).  `well_founded` and `enumerate_pstable` on
    one program share the model, and the enumeration reads the residue off
    the same values.  `enumerate_pstable` calls this function rather than
    `well_founded`, so a tracer that wraps the public name (perfbench) counts
    only the requests made from outside this module.  Threads that race on
    an empty cache each compute the same model, and either is kept.

    `memo`, kept across programs, maps a table's structure, its numbered rules
    in order, to its values: the structure fixes the atoms' rules, the
    components and every Psi round, so only the model is built from this
    table's own atoms.  A table with a prefix is not kept, as its key would
    have to name the prefix.  Each entry is charged its rules' numbers and
    its values (`_keep`).
    """
    cached = program.cache.get("well-founded")
    if cached is None:
        kept, known = _well_founded(program.prefix) if program.prefix else ([], _NOTHING)
        key = None if memo is None or program.prefix else tuple(program._rules)
        stored = None if key is None else memo.get(key)
        vals = _solve(program, kept) if stored is None else list(stored[0])
        if key is not None and stored is None:
            _keep(memo, key, (tuple(vals),), sum(map(len, key)) + len(vals))
        cached = program.cache["well-founded"] = (vals, _Model(known, program._atoms,
                                                                vals[len(kept):]))
    return cached


class _Model(Interpretation):
    """The prefix's model, `known`, with a table's own atoms and values, consistent as built:
    `value` and `undefined_count` read the own atoms only, and the sets are built on first read."""

    def __init__(self, known: Interpretation, atoms: Sequence[Atom], vals: Sequence[int]):
        object.__setattr__(self, "_parts", (known, dict(zip(atoms, vals))))

    def _with(self, value: int, inherited: frozenset[Atom]) -> frozenset[Atom]:
        return inherited.union([a for a, v in self._parts[1].items() if v == value])

    universe = cached_property(lambda self: self._parts[0].universe.union(self._parts[1]))
    true_atoms = cached_property(lambda self: self._with(_TRUE, self._parts[0].true_atoms))
    false_atoms = cached_property(lambda self: self._with(_FALSE, self._parts[0].false_atoms))
    undefined_count = cached_property(lambda self: self._parts[0].undefined_count
                                      + list(self._parts[1].values()).count(_UNDEF))
    __hash__ = Interpretation.__hash__

    def __eq__(self, other: object) -> bool:    # also when `other` is no `_Model`
        return isinstance(other, Interpretation) and \
            (self.universe, self.true_atoms, self.false_atoms) == \
            (other.universe, other.true_atoms, other.false_atoms)

    def value(self, atom: Atom) -> TruthValue:
        own = self._parts[1].get(atom)
        return self._parts[0].value(atom) if own is None else _VALUES[own]


def well_founded(program: GroundProgram, memo: dict | None = None) -> Interpretation:
    """Least fixpoint of the reduct operator, computed one dependency component at a time;
    `memo` keeps the values of each table structure across programs (`_well_founded`)."""
    return _well_founded(program, memo)[1]


def is_pstable(program: GroundProgram, interp: Interpretation) -> bool:
    """True when `interp` equals the least model of its own reduct.

    An atom of `interp`'s universe that the program does not mention has no
    rule, so the least model makes it false.
    """
    vals = [int(interp.value(atom)) for atom in program.atoms]
    return (interp.universe - interp.false_atoms <= program.universe
            and _stable(_restrict(program, range(len(vals)), vals), vals))


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

class ModelRecord(_Value):
    __slots__ = _fields = ("model", "flags")

    def __init__(self, model: Interpretation, flags: frozenset[str] = frozenset()):
        _set(self, "model", model)
        _set(self, "flags", flags)

    @property
    def undefined_count(self) -> int:
        return self.model.undefined_count

    def has(self, flag: str) -> bool:
        return flag in self.flags


class ModelFamily(_Value):
    """The partial stable models of a program, factorised over its residue components.

    `components` holds, for each component of the well-founded model `wf`'s
    undefined residue (see `_components`), its parts: the partial stable
    assignments of the component's atoms, each a record whose model ranges
    over those atoms only, in `render_key` order.  The models of the family
    are exactly the well-founded model with every component set to one of
    its parts, any combination (see `enumerate_pstable`).

    `enumerate_pstable` flags each part within its component as it finds the
    component's parts, and a model carries a flag exactly when every one of
    its parts carries it.  Components share no atoms, so a model's literal
    set is the disjoint union of `wf`'s and its parts' literal sets, and
    every flag factors:

    - well-founded: the family's intersection is `wf`'s literal set exactly
      when each component's parts have an empty intersection, and then a
      model equals it exactly when each part is empty;
    - t-stable: a model is total exactly when each part is;
    - m-stable: a model below another is below it in some component, and a
      part below another yields a model below another, so a model is maximal
      exactly when each part is maximal in its component;
    - l-stable: the undefined atoms of a model add up over its parts, so the
      fewest among m-stable models is the sum of each component's fewest
      among its m-stable parts, and a model reaches it exactly when each part
      is m-stable and reaches its component's fewest;
    - deterministic: two models are consistent exactly when their parts are,
      component by component, and any part combines with any other, so a
      model is consistent with every model exactly when each part is
      consistent with every part of its component;
    - max-deterministic: a deterministic model contains every deterministic
      model exactly when each part contains every deterministic part of its
      component, so the maximum is unique exactly when it is per component.

    Every count is therefore the product of per-component counts, and the
    models with a flag are the product of the parts with it (`parts_with`).
    The product itself, `records`, is built only when it is read.
    """

    _fields = ("wf", "components")

    def __init__(self, wf: Interpretation, components: tuple[tuple[ModelRecord, ...], ...]):
        _set(self, "wf", wf)
        _set(self, "components", components)
        # `model_of`'s model, by the models of its parts.
        _set(self, "_models", {})

    @cached_property
    def records(self) -> tuple[ModelRecord, ...]:
        """Every model with its flags, in `render_key` order: the product, built on first use."""
        start = frozenset(ALL_FLAGS)
        records = [ModelRecord(self.model_of(choice),
                               start.intersection(*(part.flags for part in choice)))
                   for choice in itertools.product(*self.components)]
        records.sort(key=lambda r: r.model.render_key())
        return tuple(records)

    def models(self) -> tuple[Interpretation, ...]:
        return tuple(r.model for r in self.records)

    def with_flag(self, flag: str) -> tuple[ModelRecord, ...]:
        return tuple(r for r in self.records if r.has(flag))

    def parts_with(self, flag: str) -> list[tuple[ModelRecord, ...]]:
        """Per component, the parts that carry `flag`.

        The models that carry `flag` are the product of these parts.
        """
        return [tuple(part for part in parts if flag in part.flags)
                for parts in self.components]

    def counts(self) -> dict[str, int]:
        """The number of models, and of models with each flag; a new dict on every call."""
        return dict(self._counts)

    @cached_property
    def _counts(self) -> dict[str, int]:
        out = {"models": math.prod(len(parts) for parts in self.components)}
        for flag in ALL_FLAGS:
            out[flag.replace("-", "_")] = math.prod(
                len(parts) for parts in self.parts_with(flag))
        return out

    def model_of(self, parts: Iterable[ModelRecord]) -> Interpretation:
        """The well-founded model with each component set to its part in `parts`.

        `parts` holds one part of every component, so the model spans all of
        `wf`'s universe.  Equal parts give the same object, and parts that
        define no atom give `wf` itself: so a model's `render_key` is rendered
        once and `_Session.apply_model` applies it once.  The parts are the
        key; a frozenset caches its hash, so a lookup hashes no atom again.
        """
        parts = tuple(part.model for part in parts)
        model = self._models.get(parts)
        if model is None:
            wf = self.wf
            if not any(part.true_atoms or part.false_atoms for part in parts):
                model = wf
            else:
                model = Interpretation(
                    wf.universe,
                    wf.true_atoms.union(*(part.true_atoms for part in parts)),
                    wf.false_atoms.union(*(part.false_atoms for part in parts)))
            self._models[parts] = model
        return model

    def nth(self, eligible: Sequence[Sequence[ModelRecord]], index: int) -> Interpretation:
        """The model at `index` in `render_key` order of the product of `eligible`.

        `eligible` holds some of each component's parts, in any order.  Two
        renderings compare as their tokens do at the first atom, in `str`
        order, on which they differ (see `Interpretation.render_key`).  So the
        index is decoded one residue atom at a time, without listing the
        product.  The models that agree with the atoms fixed so far are
        grouped by the atom's token, in token order; a group holds as many
        models as the product, over the components, of the parts still
        possible.  The index skips whole groups until it falls into one, and
        that group fixes the atom.  So the least model of the product sets
        each component to its least part.
        """
        live = [list(parts) for parts in eligible]
        count = math.prod(len(parts) for parts in live)
        if not 0 <= index < count:
            raise IndexError(f"model {index} of a product of {count}")
        positions = sorted((str(atom), c, atom) for c, parts in enumerate(live)
                           for atom in parts[0].model.universe)
        for text, c, atom in positions:
            rest = count // len(live[c])
            groups: dict[str, list[ModelRecord]] = {}
            for part in live[c]:
                groups.setdefault(render_token(text, part.model.value(atom)), []).append(part)
            for token in sorted(groups):
                count = rest * len(groups[token])
                if index < count:
                    live[c] = groups[token]
                    break
                index -= count
        return self.model_of(parts[0] for parts in live)


class _Component(list):
    """A residue component's atoms, in `str` order, and its live rules over them (`rules`)."""


def _components(program: GroundProgram, vals: list[int]) -> list[_Component]:
    """The undefined atoms of `vals`, split into the components their live rules link.

    The live rules are the residue's rules restricted by `vals` (`_restrict`);
    each links its head with every body atom it keeps, positive or negated,
    and goes to its head's component, renumbered to that component's atoms.
    Components are ordered by their least atom in `str` order, and the atoms
    of each in `str` order.
    """
    residue = sorted((a for a, v in enumerate(vals) if v == _UNDEF),
                     key=lambda a: str(program.atoms[a]))
    rules = _restrict(program, residue, vals)
    parent = list(range(len(residue)))

    def root(s: int) -> int:
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for head, pos, neg in zip(rules.heads, rules.pos, rules.negs):
        for b in (*pos, *neg):
            parent[root(b)] = root(head)
    components: dict[int, _Component] = {}
    local = []                      # each residue atom's place in its component
    for s, a in enumerate(residue):
        component = components.setdefault(root(s), _Component())
        local.append(len(component))
        component.append(a)
    split: dict[int, list] = {c: [] for c in components}
    for head, pos, neg, floor in zip(rules.heads, rules.pos, rules.negs, rules.base):
        split[root(head)].append((local[head], tuple([local[p] for p in pos]),
                                  tuple([local[n] for n in neg]), floor))
    for c, component in components.items():
        # Every residue atom heads a live rule, so no component's list is empty.
        component.rules = _Rules(len(component), *zip(*split[c]))
    return list(components.values())


def _search(rules: _Rules) -> list[list[int]]:
    """The fixpoints of Psi over one component's rules, each found once.

    A node bounds every fixpoint M in it in the truth order, lo <= M <= hi.
    Psi is antimonotone in that order, so Psi(hi) <= M <= Psi(lo), and the
    node narrows until raising lo to Psi(hi) and lowering hi to Psi(lo)
    change nothing (smodels' atleast and atmost; Simons, Niemelä & Soininen
    2002); an empty interval prunes it.  Psi reads M only through negated
    atoms, so a node branches on the free one with the most negated
    occurrences, one child per value: the children partition the node.
    Once all are fixed, Psi(lo) = Psi(hi), so lo = hi = Psi(lo) is the one
    candidate, and `_stable` confirms it.
    """
    weight = [0] * rules.size
    for n in itertools.chain.from_iterable(rules.negs):
        weight[n] += 1
    branching = sorted((a for a in range(rules.size) if weight[a]), key=lambda a: -weight[a])
    found = []
    stack = [([_FALSE] * rules.size, [_TRUE] * rules.size, True, True)]
    while stack:
        # A bound that has not moved since Psi of it last narrowed the other one is skipped.
        lo, hi, lo_moved, hi_moved = stack.pop()
        while lo_moved or hi_moved:
            if hi_moved:
                raised = list(map(max, lo, _psi(rules, hi)))
                lo, lo_moved, hi_moved = raised, lo_moved or raised != lo, False
            if lo_moved:
                narrowed = list(map(min, hi, _psi(rules, lo)))
                hi, hi_moved, lo_moved = narrowed, narrowed != hi, False
        if any(map(int.__gt__, lo, hi)):
            continue
        free = next((a for a in branching if lo[a] != hi[a]), None)
        if free is None:
            if _stable(rules, lo):
                found.append(lo)
            continue
        for value in range(lo[free], hi[free] + 1):
            child_lo, child_hi = lo[:], hi[:]
            child_lo[free] = child_hi[free] = value
            stack.append((child_lo, child_hi, value > lo[free], value < hi[free]))
    return found


# The most a memo keeps, in table entries' numbers and component entries' part values.
_MEMO_BOUND = 65_536
_keeping = threading.Lock()


def _keep(memo: dict, key: object, value: tuple, size: int) -> None:
    """Keep `value` at `key`, charged `size` of `_MEMO_BOUND`: its last field spans that in a
    running count over both kinds of entry, so the memo holds the newest end less the oldest
    start, and the oldest leave first.  A value larger than the bound is not kept.  A table's
    key starts with a rule of integers, a component's with rank triples, so none collide."""
    if size <= _MEMO_BOUND:
        with _keeping:
            end = size + (memo[next(reversed(memo))][-1].stop if memo else 0)
            while memo and memo[next(iter(memo))][-1].start < end - _MEMO_BOUND:
                del memo[next(iter(memo))]
            memo.setdefault(key, (*value, range(end - size, end)))


def enumerate_pstable(program: GroundProgram, cap: int = DEFAULT_ENUMERATION_CAP,
                      memo: dict | None = None) -> ModelFamily:
    """All partial stable models, as extensions of the well-founded model, with their flags.

    The well-founded model W is the least fixpoint of Psi in the knowledge
    order, so every partial stable model keeps W's defined atoms and only the
    undefined residue is searched (refused above `cap` undefined atoms).  Psi
    is monotone in that order, so for every candidate M that keeps them,
    Psi(M) >= Psi(W) = W: the atoms W defines keep their W values in Psi(M).
    A rule that is not live under W (see `_components`) then derives nothing,
    and a live rule reads only atoms of its head's component and atoms W
    defines, so Psi(M) on a component C depends only on M's values on C.  M
    is therefore a fixpoint exactly when, for every C, the candidate that
    agrees with M on C and with W elsewhere is one.  That candidate already
    agrees with Psi of it outside C, so each C is searched on its own
    (`_search`), against C's rules restricted by W (`_restrict`): a rule
    that is not live falls to a floor of FALSE and is left out, and the
    body atoms of a live rule outside C are defined by W and fold into its
    floor.  C's atoms are in `str` order, so the parts sort into
    `render_key` order as the tuples of their atoms' token ranks.  The
    family keeps the parts found per component, flagged within it
    (`_flag`), and is their product.  W is in the family exactly when every
    component keeps its all-undefined part.

    `memo`, kept across calls, is `well_founded`'s: W is read through it
    (`_well_founded`), and it maps a component's key (its rules and its
    atoms' token ranks) to its parts' values and flags; the search, the
    sort and the flags read nothing else, so a kept key's parts are what a
    search finds.  Each entry is charged its values, parts times atoms.
    """
    vals, wf = _well_founded(program, memo)
    if wf.undefined_count > cap:
        raise ResourceLimitError(
            f"{wf.undefined_count} atoms undefined in the well-founded model "
            f"exceeds the enumeration cap of {cap}", cap)
    return ModelFamily(wf, tuple(_parts(program, component, memo)
                                 for component in _components(program, vals)))


def _ranks(text: str) -> tuple[int, int, int]:
    """Each value's rank among the `render_token`s of an atom rendered as `text`, in sorted order.

    `A.` sorts before `A?`, and `not A.` before both or after both: a string
    between them starts with A, then a character from '.' to '?', and the
    characters of `not A.` are those of `not ` as far as it agrees with A.
    """
    return (0, 2, 1) if "not " + text + "." < text + "." else (2, 1, 0)


def _parts(program: GroundProgram, component: _Component,
           memo: dict | None = None) -> tuple[ModelRecord, ...]:
    """The flagged parts of a residue component, in `render_key` order."""
    atoms = [program.atoms[s] for s in component]
    ranks = tuple([_ranks(str(atom)) for atom in atoms])
    rules = component.rules
    key = (ranks, rules.heads, rules.pos, rules.negs, rules.base)
    kept = memo.get(key) if memo is not None else None
    if kept is None:
        parts = _search(rules)
        parts.sort(key=lambda part: [rank[v] for rank, v in zip(ranks, part)])
        kept = (tuple(map(tuple, parts)), _flag(len(atoms), parts))
        if memo is not None:
            _keep(memo, key, kept, len(parts) * len(atoms))
    universe = frozenset(atoms)
    return tuple(ModelRecord(Interpretation(
                     universe, frozenset(a for a, v in zip(atoms, part) if v == _TRUE),
                     frozenset(a for a, v in zip(atoms, part) if v == _FALSE)), flags)
                 for part, flags in zip(*kept[:2]))


def _flag(size: int, parts: list[list[int]]) -> tuple[frozenset[str], ...]:
    """The flags of one residue component's parts, within it (see `ModelFamily`).

    `parts` holds value vectors over the component's `size` atoms, in
    `render_key` order.  Each atom keeps, per value, the mask of the parts
    that give it that value, so each flag is read off the masks of a part's
    defined literals: the parts that contain them are the AND of those
    masks, and a part is maximal when that AND is its own bit; it is
    deterministic when no part gives one of its defined atoms the opposite
    value.  Deterministic parts are pairwise consistent, so one of them
    contains the union of their literals exactly when it has as many
    literals as that union.
    """
    masks = [[0, 0, 0] for _ in range(size)]
    for j, part in enumerate(parts):
        for mask, v in zip(masks, part):
            mask[v] |= 1 << j
    defined = [[(i, v) for i, v in enumerate(part) if v != _UNDEF] for part in parts]
    if [] not in defined:
        raise EngineError("well-founded model missing from the enumerated family")
    maximal, deterministic = [], []
    for j, literals in enumerate(defined):
        above = (1 << len(parts)) - 1
        for i, v in literals:
            above &= masks[i][v]
        maximal.append(above == 1 << j)
        deterministic.append(not any(masks[i][_TRUE - v] for i, v in literals))
    det_bits = sum(1 << j for j, d in enumerate(deterministic) if d)
    union = sum(bool(mask[v] & det_bits) for mask in masks for v in (_FALSE, _TRUE))
    max_det = [d and len(literals) == union for d, literals in zip(deterministic, defined)]
    if sum(max_det) != 1:
        raise EngineError("deterministic family has no unique maximum")
    most_defined = max(len(literals) for literals, m in zip(defined, maximal) if m)
    return tuple(frozenset(flag for flag, holds in (
        (FLAG_WELL_FOUNDED, not literals), (FLAG_T_STABLE, len(literals) == size),
        (FLAG_M_STABLE, is_max), (FLAG_L_STABLE, is_max and len(literals) == most_defined),
        (FLAG_DETERMINISTIC, d), (FLAG_MAX_DETERMINISTIC, md)) if holds)
        for literals, is_max, d, md in zip(defined, maximal, deterministic, max_det))


def max_deterministic(program: GroundProgram,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Interpretation:
    """The top of the deterministic-model lattice."""
    family = enumerate_pstable(program, cap)
    return family.model_of(parts[0] for parts in family.parts_with(FLAG_MAX_DETERMINISTIC))
