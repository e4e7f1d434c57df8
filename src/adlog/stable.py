"""Three-valued model theory: the reduct operator, well-founded model, stable-model families.

Everything rests on the reduct operator Psi (Przymusinski 1990): Psi(I) is the
least three-valued model of the program in which every negated body literal is
replaced by the complement of its value in I.  The partial stable models are
the fixpoints of Psi, and the well-founded model is the least of them in the
knowledge order, reached by iterating Psi from the all-undefined
interpretation.  That iteration is run one strongly connected component of the
atom dependency graph at a time, lower components first (Van Gelder, Ross &
Schlipf 1991): a component reads only atoms of its own and of lower
components, which already hold their final values, so each rule is propagated
in its own component only, and a component that negates none of its own atoms
is settled in one pass.  A least model is computed one truth level at a time
by counter propagation (Dowling & Gallier 1984): an atom reaches a level when
some rule whose floor, the least complement of its negated atoms, reaches that
level has every positive body atom at that level.  Every partial stable model
extends the well-founded model, so a family is built on its undefined residue:
the residue splits into components linked by the rules still live under the
well-founded model (splitting sets; Lifschitz & Turner 1994), each component's
assignments are tried on their own, against that component's live rules only,
and the family is the product of the fixpoints of Psi found per component.
Both rest on one integer index of the program, its atom dependency graph,
built once and kept with the well-founded model in the program's cache.

The family is kept factorised: `ModelFamily` holds the well-founded model
and each component's parts, each flagged within its component as the
component is enumerated.  Components share no atoms, so a model carries a
flag exactly when each of its parts does (the argument per flag is on
`ModelFamily`), counts are products of per-component counts, and a model is
chosen part by part.  The product of the parts is listed only when `records`
is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .model import (Atom, EngineError, Interpretation, ResourceLimitError,
                    TruthValue, render_token)
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


class _Rules:
    """Rules over the atoms 0 .. size - 1, in the form the least-model kernel reads.

    Rule r has head `heads[r]`, `need[r]` positive body literals and negated
    body atoms `negs[r]`, and its floor cannot rise above `base[r]`;
    `occurs[a]` names rule r once for every positive body literal of r on
    atom a, and `unconditional` lists the rules with no positive body literal.
    `_restrict` builds it.
    """

    def __init__(self, size: int, heads: list[int], pos: Sequence[Sequence[int]],
                 negs: Sequence[Sequence[int]], base: list[int]):
        self.size = size
        self.heads = heads
        self.negs = negs
        self.base = base
        self.need = [len(p) for p in pos]
        self.occurs: list[list[int]] = [[] for _ in range(size)]
        for r, body in enumerate(pos):
            for p in body:
                self.occurs[p].append(r)
        self.unconditional = [r for r, n in enumerate(self.need) if n == 0]


class _Indexed:
    """Integer-indexed view of a ground program: its atom dependency graph.

    Atoms are numbered in order of first appearance in the rules, then
    `extra_atoms`.  Rule r has head `heads[r]`, positive body atoms `pos[r]`
    and negated body atoms `negs[r]`, and `defs[a]` lists the rules with head
    a.  The graph has an edge from each head to every body atom.
    """

    def __init__(self, program: GroundProgram, extra_atoms: Iterable[Atom] = ()):
        index: dict[Atom, int] = {}
        heads, self.pos, negs = [], [], []
        for rule in program.rules:
            heads.append(index.setdefault(rule.head, len(index)))
            pos, neg = [], []
            for lit in rule.body:
                (pos if lit.positive else neg).append(index.setdefault(lit.atom, len(index)))
            self.pos.append(pos)
            negs.append(neg)
        for atom in extra_atoms:
            index.setdefault(atom, len(index))
        self.heads, self.negs = heads, negs
        self.atoms: list[Atom] = list(index)
        self.defs: list[list[int]] = [[] for _ in self.atoms]
        for r, head in enumerate(heads):
            self.defs[head].append(r)

    def to_interpretation(self, vals: list[int]) -> Interpretation:
        true_atoms = frozenset(a for a, v in zip(self.atoms, vals) if v == _TRUE)
        false_atoms = frozenset(a for a, v in zip(self.atoms, vals) if v == _FALSE)
        return Interpretation(frozenset(self.atoms), true_atoms, false_atoms)


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
    """True when `vals` is a fixpoint of the reduct operator.

    The least model of the reduct is compared with `vals` one level at a
    time, TRUE first, and the check stops at the first level that differs.
    """
    floors = _floors(rules, vals)
    for level in (_TRUE, _UNDEF):
        if _reach(rules, floors, level) != [v >= level for v in vals]:
            return False
    return True


def _restrict(idx: _Indexed, atoms: Sequence[int], vals: Sequence[int]) -> _Rules:
    """The rules for `atoms`, over those atoms only, every other atom fixed by `vals`.

    Atom `atoms[i]` becomes atom i.  A body atom outside `atoms` is read from
    `vals` and folded into its rule's floor: a positive one at its value, a
    negated one at its complement.  A rule whose floor falls to FALSE can
    derive nothing and is left out.
    """
    slot = {a: i for i, a in enumerate(atoms)}
    heads, pos, negs, base = [], [], [], []
    for i, a in enumerate(atoms):
        for r in idx.defs[a]:
            floor, inner_pos, inner_neg = _TRUE, [], []
            for p in idx.pos[r]:
                if p in slot:
                    inner_pos.append(slot[p])
                elif vals[p] < floor:
                    floor = vals[p]
            for n in idx.negs[r]:
                if n in slot:
                    inner_neg.append(slot[n])
                elif _TRUE - vals[n] < floor:
                    floor = _TRUE - vals[n]
            if floor != _FALSE:
                heads.append(i)
                pos.append(inner_pos)
                negs.append(inner_neg)
                base.append(floor)
    return _Rules(len(atoms), heads, pos, negs, base)


def _sccs(idx: _Indexed) -> Iterator[list[int]]:
    """The strongly connected components of the atom dependency graph, dependencies first.

    Tarjan's algorithm (1972), with an explicit stack so that a long chain
    of rules does not exhaust Python's recursion limit.  A component is
    yielded only after every component it reaches, and the search starts
    from the atoms in index order, so the order is deterministic.
    """
    defs, pos, negs = idx.defs, idx.pos, idx.negs

    def successors(a: int) -> Iterator[int]:
        return iter([b for r in defs[a] for b in (*pos[r], *negs[r])])

    size = len(idx.atoms)
    order = [0] * size              # visit number, from 1; 0 while unvisited
    low = [0] * size
    done = size + 1                 # the order of an atom already yielded: above any low
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
                    yield component


def _well_founded(program: GroundProgram) -> tuple[_Indexed, list[int], Interpretation]:
    """The index of `program`, its well-founded values and model, computed once and cached.

    The model is computed one strongly connected component of the atom
    dependency graph at a time, in the order `_sccs` yields them (Van Gelder,
    Ross & Schlipf 1991).  The well-founded value of an atom depends only on
    the rules of the atoms it reaches, and the atoms a component reaches lie
    in it or in components yielded before it.  A lower component reaches no
    atom of a higher one, so its values are final once computed, and each
    component is the least fixpoint of Psi over its own rules with the lower
    values fixed (`_restrict`).  A component whose rules negate none of its
    atoms reaches that fixpoint in one application of Psi, and a single atom
    that no rule of its own reads takes its best rule's floor; any other
    component iterates Psi from all-undefined.

    `well_founded` and `enumerate_pstable` on one program share the model,
    and the enumeration reads the residue off the same index and values.
    `enumerate_pstable` calls this function rather than `well_founded`, so
    a tracer that wraps the public name (perfbench) counts only the requests
    made from outside this module.  Threads that race on an empty cache each
    compute the same model, and either is kept.
    """
    cached = program.cache.get("well-founded")
    if cached is None:
        idx = _Indexed(program)
        defs, pos, negs = idx.defs, idx.pos, idx.negs
        vals = [_UNDEF] * len(idx.atoms)
        for component in _sccs(idx):
            if len(component) == 1:
                a = component[0]
                value = _FALSE
                for r in defs[a]:
                    if a in pos[r] or a in negs[r]:
                        break
                    floor = _TRUE
                    for p in pos[r]:
                        if vals[p] < floor:
                            floor = vals[p]
                    for n in negs[r]:
                        if _TRUE - vals[n] < floor:
                            floor = _TRUE - vals[n]
                    if floor > value:
                        value = floor
                else:
                    vals[a] = value
                    continue
            rules = _restrict(idx, component, vals)
            negates_itself = any(rules.negs)
            sub = [_UNDEF] * len(component)
            new_sub = _psi(rules, sub)
            while negates_itself and new_sub != sub:
                for old, new in zip(sub, new_sub):
                    if old != _UNDEF and old != new:
                        raise EngineError("well-founded iteration is not inflationary")
                sub, new_sub = new_sub, _psi(rules, new_sub)
            for a, v in zip(component, new_sub):
                vals[a] = v
        cached = program.cache["well-founded"] = (idx, vals, idx.to_interpretation(vals))
    return cached


def well_founded(program: GroundProgram) -> Interpretation:
    """Least fixpoint of the reduct operator, computed one dependency component at a time."""
    return _well_founded(program)[2]


def is_pstable(program: GroundProgram, interp: Interpretation) -> bool:
    """True when `interp` equals the least model of its own reduct."""
    idx = _Indexed(program, interp.universe)
    vals = [int(interp.value(atom)) for atom in idx.atoms]
    return _stable(_restrict(idx, range(len(vals)), vals), vals)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelRecord:
    model: Interpretation
    flags: frozenset[str] = frozenset()

    @property
    def undefined_count(self) -> int:
        return self.model.undefined_count

    def has(self, flag: str) -> bool:
        return flag in self.flags


@dataclass(frozen=True)
class ModelFamily:
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

    wf: Interpretation
    components: tuple[tuple[ModelRecord, ...], ...]

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
        out = {"models": math.prod(len(parts) for parts in self.components)}
        for flag in ALL_FLAGS:
            out[flag.replace("-", "_")] = math.prod(
                len(parts) for parts in self.parts_with(flag))
        return out

    def model_of(self, parts: Iterable[ModelRecord]) -> Interpretation:
        """The well-founded model with the components of `parts` set to them.

        The universe is `wf`'s defined atoms plus the atoms of those
        components: with one part of every component, all of `wf`'s universe.
        """
        parts = tuple(part.model for part in parts)
        wf = self.wf
        return Interpretation(
            (wf.true_atoms | wf.false_atoms).union(*(part.universe for part in parts)),
            wf.true_atoms.union(*(part.true_atoms for part in parts)),
            wf.false_atoms.union(*(part.false_atoms for part in parts)))

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


def _components(idx: _Indexed, vals: list[int]) -> list[list[int]]:
    """The undefined atoms of `vals`, split into the components their live rules link.

    The live rules are the residue's rules restricted by `vals`
    (`_restrict`); each links its head with every body atom it keeps,
    positive or negated.  Components are ordered by their least atom in
    `str` order, and the atoms of each in `str` order.
    """
    residue = sorted((a for a, v in enumerate(vals) if v == _UNDEF),
                     key=lambda a: str(idx.atoms[a]))
    rules = _restrict(idx, residue, vals)
    parent = list(range(len(residue)))

    def root(s: int) -> int:
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    for head, neg in zip(rules.heads, rules.negs):
        for n in neg:
            parent[root(n)] = root(head)
    for s, occurs in enumerate(rules.occurs):
        for r in occurs:
            parent[root(s)] = root(rules.heads[r])
    components: dict[int, list[int]] = {}
    for s, a in enumerate(residue):
        components.setdefault(root(s), []).append(a)
    return list(components.values())


def enumerate_pstable(program: GroundProgram,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> ModelFamily:
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
    agrees with Psi of it outside C, so each of C's 3^|C| assignments is
    checked on C alone, against C's rules restricted by W (`_restrict`): a
    rule that is not live falls to a floor of FALSE and is left out, and the
    body atoms of a live rule outside C are defined by W and fold into its
    floor.  The family keeps the assignments found per component, flagged
    within it (`_classify`), and is their product.  W is in the family
    exactly when every component keeps its all-undefined part.
    """
    idx, vals, wf = _well_founded(program)
    if wf.undefined_count > cap:
        raise ResourceLimitError(
            f"{wf.undefined_count} atoms undefined in the well-founded model "
            f"exceeds the enumeration cap of {cap}", cap)
    components = []
    for component in _components(idx, vals):
        rules = _restrict(idx, component, vals)
        atoms = frozenset(idx.atoms[s] for s in component)
        parts = []
        for combo in itertools.product((_FALSE, _UNDEF, _TRUE), repeat=len(component)):
            if _stable(rules, combo):
                parts.append(Interpretation(
                    atoms,
                    frozenset(idx.atoms[s] for s, v in zip(component, combo) if v == _TRUE),
                    frozenset(idx.atoms[s] for s, v in zip(component, combo) if v == _FALSE)))
        if not any(part.undefined_count == len(atoms) for part in parts):
            raise EngineError("well-founded model missing from the enumerated family")
        parts.sort(key=lambda part: part.render_key())
        components.append(_classify(parts))
    return ModelFamily(wf, tuple(components))


def _classify(models: list[Interpretation]) -> tuple[ModelRecord, ...]:
    """Flag the parts of one residue component within it (see `ModelFamily`)."""
    if not models:
        raise EngineError("empty stable model family")
    literal_sets = [m.literal_set() for m in models]
    # The well-founded model defines no atom of the component.
    if frozenset.intersection(*literal_sets):
        raise EngineError("family intersection disagrees with the well-founded model")

    maximal = [not any(ls < other for other in literal_sets) for ls in literal_sets]
    least_undefined = min(m.undefined_count for m, is_max in zip(models, maximal) if is_max)
    deterministic = [all(m.union_consistent(n) for n in models) for m in models]
    det_sets = [ls for ls, d in zip(literal_sets, deterministic) if d]
    max_det = [d and all(other <= ls for other in det_sets)
               for ls, d in zip(literal_sets, deterministic)]
    if sum(max_det) != 1:
        raise EngineError("deterministic family has no unique maximum")

    records = []
    for i, model in enumerate(models):
        flags = set()
        if not literal_sets[i]:
            flags.add(FLAG_WELL_FOUNDED)
        if model.is_total:
            flags.add(FLAG_T_STABLE)
        if maximal[i]:
            flags.add(FLAG_M_STABLE)
            if model.undefined_count == least_undefined:
                flags.add(FLAG_L_STABLE)
        if deterministic[i]:
            flags.add(FLAG_DETERMINISTIC)
        if max_det[i]:
            flags.add(FLAG_MAX_DETERMINISTIC)
        records.append(ModelRecord(model, frozenset(flags)))
    return tuple(records)


def max_deterministic(program: GroundProgram,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Interpretation:
    """The top of the deterministic-model lattice."""
    family = enumerate_pstable(program, cap)
    return family.model_of(parts[0] for parts in family.parts_with(FLAG_MAX_DETERMINISTIC))
