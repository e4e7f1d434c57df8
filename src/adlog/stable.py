"""Three-valued model theory: the reduct operator, well-founded model, stable-model families.

Everything rests on the reduct operator Psi (Przymusinski 1990): Psi(I) is the
least three-valued model of the program in which every negated body literal is
replaced by the complement of its value in I.  The partial stable models are
the fixpoints of Psi, and the well-founded model is the least of them in the
knowledge order, reached by iterating Psi from the all-undefined
interpretation.  A least model is computed one truth level at a time by
counter propagation (Dowling & Gallier 1984): an atom reaches a level when
some rule whose floor, the least complement of its negated atoms, reaches
that level has every positive body atom at that level.  Families of partial
stable models are produced by extending the undefined residue of the
well-founded model in every way and keeping the fixpoints of Psi.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .model import (Atom, EngineError, Interpretation, ResourceLimitError,
                    TruthValue)
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


class _Indexed:
    """Integer-indexed view of a ground program for the least-model kernel.

    Rule r has head `heads[r]`, `need[r]` positive body literals and negated
    body atoms `negs[r]`; `occurs[a]` names rule r once for every positive
    body literal of r on atom a, and `unconditional` lists the rules with no
    positive body literal.
    """

    def __init__(self, program: GroundProgram, extra_atoms: Iterable[Atom] = ()):
        self.atoms: list[Atom] = sorted(program.universe | set(extra_atoms), key=str)
        self.index = {atom: i for i, atom in enumerate(self.atoms)}
        self.heads: list[int] = []
        self.need: list[int] = []
        self.negs: list[tuple[int, ...]] = []
        self.occurs: list[list[int]] = [[] for _ in self.atoms]
        for r, rule in enumerate(program.rules):
            self.heads.append(self.index[rule.head])
            pos = [self.index[lit.atom] for lit in rule.body if lit.positive]
            for p in pos:
                self.occurs[p].append(r)
            self.need.append(len(pos))
            self.negs.append(tuple(self.index[lit.atom] for lit in rule.body
                                   if not lit.positive))
        self.unconditional = [r for r, n in enumerate(self.need) if n == 0]

    def values_of(self, interp: Interpretation) -> list[int]:
        return [int(interp.value(atom)) for atom in self.atoms]

    def to_interpretation(self, vals: list[int]) -> Interpretation:
        true_atoms = frozenset(a for a, v in zip(self.atoms, vals) if v == _TRUE)
        false_atoms = frozenset(a for a, v in zip(self.atoms, vals) if v == _FALSE)
        return Interpretation(frozenset(self.atoms), true_atoms, false_atoms)


def _floors(idx: _Indexed, vals: list[int]) -> list[int]:
    """Each rule's floor in the reduct by `vals`: the least complement of its negated atoms."""
    floors = []
    for neg in idx.negs:
        floor = _TRUE
        for n in neg:
            if _TRUE - vals[n] < floor:
                floor = _TRUE - vals[n]
        floors.append(floor)
    return floors


def _reach(idx: _Indexed, floors: list[int], level: int) -> list[bool]:
    """Which atoms are at `level` or above in the least model of the reduct with `floors`."""
    # A rule fires once its count of positive body literals not yet reached
    # drops to zero, if its floor is at the level.
    heads, occurs = idx.heads, idx.occurs
    need = idx.need[:]
    reached = [False] * len(idx.atoms)
    stack = []
    for r in idx.unconditional:
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


def _psi(idx: _Indexed, vals: list[int]) -> list[int]:
    """The reduct operator: the least three-valued model of the reduct by `vals`."""
    floors = _floors(idx, vals)
    # Atoms at TRUE are also at UNDEFINED, so the two flags add up to the value.
    return [top + mid for top, mid in zip(_reach(idx, floors, _TRUE),
                                          _reach(idx, floors, _UNDEF))]


def _stable(idx: _Indexed, vals: list[int]) -> bool:
    """True when `vals` is a fixpoint of the reduct operator.

    The least model of the reduct is compared with `vals` one level at a
    time, TRUE first, and the check stops at the first level that differs.
    """
    floors = _floors(idx, vals)
    for level in (_TRUE, _UNDEF):
        if _reach(idx, floors, level) != [v >= level for v in vals]:
            return False
    return True


def well_founded(program: GroundProgram) -> Interpretation:
    """Least fixpoint of the reduct operator, iterated from the all-undefined interpretation."""
    idx = _Indexed(program)
    vals = [_UNDEF] * len(idx.atoms)
    while True:
        new_vals = _psi(idx, vals)
        if new_vals == vals:
            return idx.to_interpretation(vals)
        for old, new in zip(vals, new_vals):
            if old != _UNDEF and old != new:
                raise EngineError("well-founded iteration is not inflationary")
        vals = new_vals


def is_pstable(program: GroundProgram, interp: Interpretation) -> bool:
    """True when `interp` equals the least model of its own reduct."""
    idx = _Indexed(program, interp.universe)
    return _stable(idx, idx.values_of(interp))


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
    records: tuple[ModelRecord, ...]

    def models(self) -> tuple[Interpretation, ...]:
        return tuple(r.model for r in self.records)

    def with_flag(self, flag: str) -> tuple[ModelRecord, ...]:
        return tuple(r for r in self.records if r.has(flag))

    def counts(self) -> dict[str, int]:
        out = {"models": len(self.records)}
        for flag in ALL_FLAGS:
            out[flag.replace("-", "_")] = len(self.with_flag(flag))
        return out


def enumerate_pstable(program: GroundProgram,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> ModelFamily:
    """All partial stable models, as extensions of the well-founded model.

    Every partial stable model agrees with the well-founded model on its
    defined part, so only the undefined residue is enumerated (3^k candidates,
    refused above `cap` undefined atoms).
    """
    wf = well_founded(program)
    undefined = sorted(wf.undefined_atoms(), key=str)
    if len(undefined) > cap:
        raise ResourceLimitError(
            f"{len(undefined)} atoms undefined in the well-founded model "
            f"exceeds the enumeration cap of {cap}", cap)
    idx = _Indexed(program)
    base = idx.values_of(wf)
    slots = [idx.index[a] for a in undefined]
    models = []
    for combo in itertools.product((_FALSE, _UNDEF, _TRUE), repeat=len(slots)):
        vals = list(base)
        for slot, value in zip(slots, combo):
            vals[slot] = value
        if _stable(idx, vals):
            models.append(idx.to_interpretation(vals))
    models.sort(key=lambda m: m.render_key())
    if wf not in models:
        raise EngineError("well-founded model missing from the enumerated family")
    return ModelFamily(tuple(ModelRecord(m) for m in models))


def classify(program: GroundProgram, family: ModelFamily) -> ModelFamily:
    """Attach the model-class flags to an enumerated family."""
    models = family.models()
    if not models:
        raise EngineError("empty stable model family")
    literal_sets = [m.literal_set() for m in models]
    intersection = frozenset.intersection(*literal_sets)
    wf = well_founded(program)
    if intersection != wf.literal_set():
        raise EngineError("family intersection disagrees with the well-founded model")

    maximal = [not any(ls < other for other in literal_sets) for ls in literal_sets]
    least_undefined = min((m.undefined_count for m, is_max in zip(models, maximal) if is_max),
                          default=0)
    deterministic = [all(m.union_consistent(n) for n in models) for m in models]

    det_sets = [ls for ls, d in zip(literal_sets, deterministic) if d]
    max_det_ids = [i for i, (ls, d) in enumerate(zip(literal_sets, deterministic))
                   if d and all(other <= ls for other in det_sets)]
    if len(max_det_ids) != 1:
        raise EngineError("deterministic family has no unique maximum")

    records = []
    for i, model in enumerate(models):
        flags = set()
        if literal_sets[i] == intersection:
            flags.add(FLAG_WELL_FOUNDED)
        if model.is_total:
            flags.add(FLAG_T_STABLE)
        if maximal[i]:
            flags.add(FLAG_M_STABLE)
            if model.undefined_count == least_undefined:
                flags.add(FLAG_L_STABLE)
        if deterministic[i]:
            flags.add(FLAG_DETERMINISTIC)
        if i in max_det_ids:
            flags.add(FLAG_MAX_DETERMINISTIC)
        records.append(ModelRecord(model, frozenset(flags)))
    return ModelFamily(tuple(records))


def stable_family(program: GroundProgram,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> ModelFamily:
    """Enumerate and classify in one step."""
    return classify(program, enumerate_pstable(program, cap))


def max_deterministic(program: GroundProgram,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> Interpretation:
    """The top of the deterministic-model lattice."""
    family = stable_family(program, cap)
    (record,) = family.with_flag(FLAG_MAX_DETERMINISTIC)
    return record.model
