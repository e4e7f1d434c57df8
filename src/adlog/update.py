"""Applying derived updates to three-valued databases under selectable semantics.

A run rewrites the update program, embeds the database, grounds, computes the
model(s) the chosen semantics asks for, extracts the update literals from the
model and applies them.  The input delta is applied to the database first; the
derived updates second, so rule-derived deletions can override requested
insertions of the same fact.
"""

from __future__ import annotations

import enum
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

from .model import (Atom, ConsistencyError, Database, DeltaSet, EngineError,
                    Interpretation, Polarity, PreconditionError, Program,
                    ResourceLimitError, TruthValue, UpdateProgram,
                    _record_arity, check_same_schema, validate_update_program)
from .rewrite import (GroundProgram, base_atom_of_renamed, embed_database,
                      ground, rewrite_bm, rewrite_st)
from .stable import (DEFAULT_ENUMERATION_CAP, FLAG_M_STABLE,
                     FLAG_MAX_DETERMINISTIC, FLAG_T_STABLE, ModelFamily,
                     ModelRecord, enumerate_pstable, well_founded)


class Semantics(enum.Enum):
    """The selectable update semantics."""

    WS = "ws"          # well-founded
    MD = "md"          # max-deterministic
    TWFS = "twfs"      # well-founded, restricted to total transformations
    TMDS = "tmds"      # max-deterministic, restricted to total transformations
    UTS = "uts"        # unique total stable model
    TS = "ts"          # chosen total stable model
    MS = "ms"          # chosen maximal stable model
    MSTT = "mstt"      # chosen maximal stable model with total transformation
    WS_BM = "ws-bm"    # well-founded over the complement-guarded rewriting

    @staticmethod
    def parse(text: str) -> "Semantics":
        normal = text.strip().lower().replace("_", "-")
        for sem in Semantics:
            if sem.value == normal:
                return sem
        raise ValueError(f"unknown semantics {text!r}")


# How each semantics runs: the rewriting ("st" or "bm"); the model source
# (None for the well-founded model, else the family flag its candidates
# carry); whether a policy chooses among the candidates (else exactly one
# must exist); whether the output, and whether the input, must be total.
_Plan = namedtuple("_Plan", "mode source choose total_output total_input")

PLANS = {
    Semantics.WS: _Plan("st", None, False, False, False),
    Semantics.MD: _Plan("st", FLAG_MAX_DETERMINISTIC, False, False, False),
    Semantics.TWFS: _Plan("st", None, False, True, True),
    Semantics.TMDS: _Plan("st", FLAG_MAX_DETERMINISTIC, False, True, True),
    Semantics.UTS: _Plan("st", FLAG_T_STABLE, False, False, True),
    Semantics.TS: _Plan("st", FLAG_T_STABLE, True, False, True),
    Semantics.MS: _Plan("st", FLAG_M_STABLE, True, False, True),
    Semantics.MSTT: _Plan("st", FLAG_M_STABLE, True, True, True),
    Semantics.WS_BM: _Plan("bm", None, False, False, False),
}

STATUS_APPLIED = "applied"
STATUS_REJECTED = "rejected-unchanged"


# ---------------------------------------------------------------------------
# Update outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateOutcome:
    """Update literals of a model, split by polarity and certainty."""

    certain_insert: frozenset[Atom] = frozenset()
    certain_delete: frozenset[Atom] = frozenset()
    undef_insert: frozenset[Atom] = frozenset()
    undef_delete: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        if self.certain_insert & self.certain_delete:
            raise ConsistencyError("update set requests both +A and -A")
        if self.certain_insert & self.undef_delete:
            raise ConsistencyError("certain insertion with undefined deletion")
        if self.certain_delete & self.undef_insert:
            raise ConsistencyError("certain deletion with undefined insertion")
        if self.certain_insert & self.undef_insert or self.certain_delete & self.undef_delete:
            raise ConsistencyError("an update cannot be both certain and undefined")

    @property
    def is_empty(self) -> bool:
        return not (self.certain_insert or self.certain_delete
                    or self.undef_insert or self.undef_delete)


def extract_updates(model: Interpretation, schema: frozenset[str] | None = None) -> UpdateOutcome:
    """Read the renamed update atoms out of a model; auxiliary atoms are ignored."""
    certain_insert, certain_delete, undef_insert, undef_delete = set(), set(), set(), set()
    for atom in model.universe:
        parsed = base_atom_of_renamed(atom)
        if parsed is None:
            continue
        polarity, base = parsed
        if schema is not None and base.predicate not in schema:
            raise EngineError(f"extracted update on unknown predicate {base.predicate}")
        value = model.value(atom)
        if value is TruthValue.TRUE:
            (certain_insert if polarity is Polarity.INSERT else certain_delete).add(base)
        elif value is TruthValue.UNDEFINED:
            (undef_insert if polarity is Polarity.INSERT else undef_delete).add(base)
    return UpdateOutcome(frozenset(certain_insert), frozenset(certain_delete),
                         frozenset(undef_insert), frozenset(undef_delete))


def apply_updates(outcome: UpdateOutcome, database: Database) -> Database:
    """New database state: certain updates applied, undefined ones blur facts they touch."""
    removed = outcome.certain_delete | outcome.undef_delete
    new_true = outcome.certain_insert | (database.true_facts - removed)
    certain = outcome.certain_insert | outcome.certain_delete
    new_unknown = (database.unknown_facts - certain) \
        | (database.true_facts & outcome.undef_delete) \
        | (outcome.undef_insert - database.true_facts - database.unknown_facts)
    return Database(frozenset(new_true), frozenset(new_unknown))


def apply_delta(delta: DeltaSet, database: Database) -> Database:
    """Input updates are certain: insertions and deletions, no undefined part."""
    outcome = UpdateOutcome(certain_insert=delta.inserts(), certain_delete=delta.deletes())
    return apply_updates(outcome, database)


def is_total_transformation(model: Interpretation, database: Database) -> bool:
    """Totality test of a transformation over a total database.

    Holds when the model is total, or every undefined insertion concerns a fact
    already true and every undefined deletion a fact already false.
    """
    if model.is_total:
        return True
    for atom in model.undefined_atoms():
        parsed = base_atom_of_renamed(atom)
        if parsed is None:
            continue
        polarity, base = parsed
        if polarity is Polarity.INSERT and base not in database.true_facts:
            return False
        if polarity is Polarity.DELETE and (base in database.true_facts
                                            or base in database.unknown_facts):
            return False
    return True


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    semantics: Semantics
    input_db: Database
    output_db: Database
    status: str
    chosen_model: Interpretation | None
    family_stats: dict[str, int] | None
    policy: str
    seed: int | None

    @property
    def applied(self) -> bool:
        return self.status == STATUS_APPLIED

    def to_json_dict(self) -> dict:
        def db_dict(db: Database) -> dict:
            return {"true": sorted(str(a) for a in db.true_facts),
                    "unknown": sorted(str(a) for a in db.unknown_facts)}
        return {
            "semantics": self.semantics.value,
            "status": self.status,
            "policy": self.policy,
            "seed": self.seed,
            "input": db_dict(self.input_db),
            "output": db_dict(self.output_db),
            "model": self.chosen_model.render_key() if self.chosen_model else None,
            "family": dict(self.family_stats) if self.family_stats is not None else None,
        }


class _Session:
    """One pipeline: rewrite, embed, ground, compute models, apply.

    Every stage is computed once per rewriting mode ("st" or "bm") and kept
    on the instance, or its `ResourceLimitError` is, so several semantics and
    commands share one grounding and one enumeration.
    """

    def __init__(self, up: UpdateProgram, database: Database, *,
                 cap: int = DEFAULT_ENUMERATION_CAP):
        validate_update_program(up)
        arities = dict(up.program.cache["arities"])
        for uatom in up.delta.updates:
            _record_arity(arities, uatom.atom)
        for atom in database.true_facts | database.unknown_facts:
            _record_arity(arities, atom)
        idb = up.program.cache["idb"]
        self.schema = frozenset(p for p in arities if p not in idb and not p.startswith("@"))
        self.up = up
        self.database = database
        self.cap = cap
        self._stages: dict[tuple[str, str], object] = {}

    def _stage(self, name: str, mode: str, compute):
        key = (name, mode)
        if key not in self._stages:
            try:
                self._stages[key] = compute()
            except ResourceLimitError as exc:
                self._stages[key] = exc
        value = self._stages[key]
        if isinstance(value, ResourceLimitError):
            raise value
        return value

    @cached_property
    def delta_applied(self) -> Database:
        return apply_delta(self.up.delta, self.database)

    def rewritten(self, mode: str) -> Program:
        return self._stage("rewritten", mode, lambda: (
            rewrite_bm(self.up) if mode == "bm" else rewrite_st(self.up)))

    def ground(self, mode: str) -> GroundProgram:
        return self._stage("ground", mode, lambda: ground(
            embed_database(self.rewritten(mode), self.database)))

    def wf(self, mode: str) -> Interpretation:
        return self._stage("wf", mode, lambda: well_founded(self.ground(mode)))

    def family(self, mode: str) -> ModelFamily:
        return self._stage("family", mode,
                           lambda: enumerate_pstable(self.ground(mode), self.cap))

    def apply_model(self, model: Interpretation, base: Database) -> Database:
        outcome = extract_updates(model, self.schema)
        output = apply_updates(outcome, base)
        if base.is_total and is_total_transformation(model, base) != output.is_total:
            raise EngineError("totality test disagrees with the applied database")
        return output

    def run(self, semantics: Semantics, policy: str = "lex",
            seed: int | None = None) -> RunReport:
        if policy not in ("lex", "random"):
            raise ValueError(f"unknown selection policy {policy!r}")
        plan = PLANS[semantics]
        if plan.total_input and not self.database.is_total:
            raise PreconditionError(
                f"{semantics.value} semantics requires a total input database")
        if policy == "random" and seed is None:
            seed = random.randrange(2 ** 32)  # recorded below, for replay
        # The input delta is applied first under both rewritings.  bm turns each
        # input update into a rule guarded only by its complement, so the model
        # makes the update true, or its complement true, or leaves both
        # undefined; each case gives the same output with the delta applied first.
        base = self.delta_applied
        stats: dict[str, int] | None = None
        chosen: Interpretation | None = None
        if plan.source is None:
            chosen = self.wf(plan.mode)
        else:
            # The candidates are the product of per-component parts (ModelFamily).
            family = self.family(plan.mode)
            stats = family.counts()
            eligible = family.parts_with(plan.source)
            if plan.choose:
                if plan.total_output:
                    # A model transforms totally exactly when each of its parts does.
                    eligible = [tuple(part for part in parts if self.apply_model(
                        family.model_of([part]), base).is_total) for parts in eligible]
                if all(eligible):
                    chosen = _select(family, eligible, policy, seed)
            elif all(len(parts) == 1 for parts in eligible):
                chosen = family.model_of(parts[0] for parts in eligible)
        # A single model that fails the totality test is still reported.
        output = self.apply_model(chosen, base) if chosen is not None else None
        if output is None or plan.total_output and not output.is_total:
            status, output = STATUS_REJECTED, self.database
        else:
            status = STATUS_APPLIED
        return RunReport(semantics, self.database, output, status, chosen, stats,
                         policy, seed if policy == "random" else None)


def _select(family: ModelFamily, eligible: list[tuple[ModelRecord, ...]],
            policy: str, seed: int | None) -> Interpretation:
    """The model `policy` picks from the product of `eligible`, in `render_key` order."""
    if policy == "lex":
        # Each component's least part makes the least model (ModelFamily.nth).
        return family.model_of(parts[0] for parts in eligible)
    # The index random.Random(seed).choice takes from a sequence this long.
    count = math.prod(len(parts) for parts in eligible)
    return family.nth(eligible, random.Random(seed).randrange(count))


def run(up: UpdateProgram, database: Database, semantics: Semantics,
        *, policy: str = "lex", seed: int | None = None,
        cap: int = DEFAULT_ENUMERATION_CAP) -> RunReport:
    """Apply an update program to a database under one semantics."""
    return _Session(up, database, cap=cap).run(semantics, policy, seed)


@dataclass(frozen=True)
class CompareRow:
    semantics: Semantics
    report: RunReport | None
    error: str | None


@dataclass(frozen=True)
class CompareResult:
    rows: tuple[CompareRow, ...]

    def report_of(self, semantics: Semantics) -> RunReport | None:
        for row in self.rows:
            if row.semantics is semantics:
                return row.report
        return None

    def info_matrix(self) -> dict[tuple[Semantics, Semantics], bool]:
        """`info_leq` for every pair of row outputs, with one schema check for all."""
        good = [(row.semantics, row.report.output_db)
                for row in self.rows if row.report is not None]
        check_same_schema(db for _, db in good)
        return {(s1, s2): d2.unknown_facts <= d1.unknown_facts
                for s1, d1 in good for s2, d2 in good}


def compare(up: UpdateProgram, database: Database,
            *, cap: int = DEFAULT_ENUMERATION_CAP) -> CompareResult:
    """Run every semantics with the lexicographic policy.

    A semantics whose precondition fails or whose enumeration exceeds the cap
    becomes a row error; engine defects propagate.
    """
    session = _Session(up, database, cap=cap)
    rows = []
    for semantics in Semantics:
        try:
            rows.append(CompareRow(semantics, session.run(semantics), None))
        except (PreconditionError, ResourceLimitError) as exc:
            rows.append(CompareRow(semantics, None, str(exc)))
    return CompareResult(tuple(rows))
