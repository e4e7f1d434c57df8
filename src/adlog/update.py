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
from collections.abc import Iterable
from functools import cached_property

from .model import (RESERVED_PREFIX, Atom, ConsistencyError, Database, DeltaSet,
                    EngineError, Interpretation, Polarity, PreconditionError,
                    Program, ResourceLimitError, TruthValue, UpdateProgram,
                    ValidationError, _record_arities, _set, _Value, check_same_schema,
                    validate_update_program)
from .rewrite import (GroundProgram, embed_database, ground, renamed_updates, rewrite_bm,
                      rewrite_st)
from .stable import (DEFAULT_ENUMERATION_CAP, FLAG_M_STABLE,
                     FLAG_MAX_DETERMINISTIC, FLAG_T_STABLE, ModelFamily,
                     enumerate_pstable, well_founded)


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

    # Members are singletons compared by identity; Enum's own hash runs in Python.
    __hash__ = object.__hash__

    @staticmethod
    def parse(text: str) -> "Semantics":
        try:  # a lookup in the enum's own map of values
            return Semantics(text.strip().lower().replace("_", "-"))
        except ValueError:
            raise ValueError(f"unknown semantics {text!r}") from None


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

class UpdateOutcome(_Value):
    """Update literals of a model, split by polarity and certainty."""

    __slots__ = _fields = ("certain_insert", "certain_delete", "undef_insert", "undef_delete")

    def __init__(self, certain_insert: frozenset[Atom] = frozenset(),
                 certain_delete: frozenset[Atom] = frozenset(),
                 undef_insert: frozenset[Atom] = frozenset(),
                 undef_delete: frozenset[Atom] = frozenset()):
        _set(self, "certain_insert", certain_insert)
        _set(self, "certain_delete", certain_delete)
        _set(self, "undef_insert", undef_insert)
        _set(self, "undef_delete", undef_delete)
        if self.certain_insert & self.certain_delete:
            raise ConsistencyError("update set requests both +A and -A")
        if self.certain_insert & self.undef_delete:
            raise ConsistencyError("certain insertion with undefined deletion")
        if self.certain_delete & self.undef_insert:
            raise ConsistencyError("certain deletion with undefined insertion")
        if self.certain_insert & self.undef_insert or self.certain_delete & self.undef_delete:
            raise ConsistencyError("an update cannot be both certain and undefined")


def extract_updates(model: Interpretation, schema: frozenset[str] | None = None,
                    updates: Iterable[tuple[Atom, Polarity, Atom]] | None = None) -> UpdateOutcome:
    """Read the renamed update atoms out of a model; auxiliary atoms are ignored.

    `updates` lists them, with polarities and base atoms, as the model's table
    does (`GroundProgram.updates`); by default the model's universe is parsed.
    """
    if updates is None:
        updates = renamed_updates(model.universe)
    certain_insert, certain_delete, undef_insert, undef_delete = set(), set(), set(), set()
    for atom, polarity, base in updates:
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
    return Database(*_updated(outcome, database))


def _updated(outcome: UpdateOutcome, database: Database) -> tuple[frozenset, frozenset]:
    """The facts of `apply_updates(outcome, database)`, unchecked (see `Database._checked`)."""
    removed = outcome.certain_delete | outcome.undef_delete
    new_true = outcome.certain_insert | (database.true_facts - removed)
    certain = outcome.certain_insert | outcome.certain_delete
    new_unknown = (database.unknown_facts - certain) \
        | (database.true_facts & outcome.undef_delete) \
        | (outcome.undef_insert - database.true_facts - database.unknown_facts)
    return frozenset(new_true), frozenset(new_unknown)


def apply_delta(delta: DeltaSet, database: Database) -> Database:
    """Input updates are certain: insertions and deletions, no undefined part."""
    return apply_updates(UpdateOutcome(delta.inserts(), delta.deletes()), database)


def is_total_transformation(model: Interpretation, database: Database,
                            updates: Iterable[tuple[Atom, Polarity, Atom]] | None = None) -> bool:
    """Totality test of a transformation over a total database.

    Holds when the model is total, or every undefined insertion concerns a fact
    already true and every undefined deletion a fact already false.  `updates`
    are the update atoms to test, as for `extract_updates`.
    """
    if model.is_total:
        return True
    if updates is None:
        updates = renamed_updates(model.undefined_atoms())
    for atom, polarity, base in updates:
        if model.value(atom) is not TruthValue.UNDEFINED:
            continue
        if polarity is Polarity.INSERT and base not in database.true_facts:
            return False
        if polarity is Polarity.DELETE and (base in database.true_facts
                                            or base in database.unknown_facts):
            return False
    return True


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class RunReport(_Value):
    __slots__ = _fields = ("semantics", "input_db", "output_db", "status", "chosen_model",
                           "family_stats", "policy", "seed")

    def __init__(self, semantics: Semantics, input_db: Database, output_db: Database,
                 status: str, chosen_model: Interpretation | None,
                 family_stats: dict[str, int] | None, policy: str, seed: int | None):
        _set(self, "semantics", semantics)
        _set(self, "input_db", input_db)
        _set(self, "output_db", output_db)
        _set(self, "status", status)
        _set(self, "chosen_model", chosen_model)
        _set(self, "family_stats", family_stats)
        _set(self, "policy", policy)
        _set(self, "seed", seed)

    @property
    def applied(self) -> bool:
        return self.status == STATUS_APPLIED

    def to_json_dict(self) -> dict:
        """The report as JSON data; every call returns new lists and dicts."""
        (true_in, unknown_in), (true_out, unknown_out) = \
            self.input_db.fact_texts, self.output_db.fact_texts
        return {
            "semantics": self.semantics.value,
            "status": self.status,
            "policy": self.policy,
            "seed": self.seed,
            "input": {"true": list(true_in), "unknown": list(unknown_in)},
            "output": {"true": list(true_out), "unknown": list(unknown_out)},
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
        arities = validate_update_program(up)
        if any(p.startswith(RESERVED_PREFIX) for p in database.arities):
            reserved = min(str(a) for a in database.true_facts | database.unknown_facts
                           if a.predicate.startswith(RESERVED_PREFIX))
            raise ValidationError(f"reserved predicate name in database fact {reserved}")
        before = dict(arities)  # a clash is reported as `_record_arities` reports it
        if any(arities.setdefault(p, n) != n for p, n in database.arities.items()):
            _record_arities(before, database.true_facts | database.unknown_facts)
        idb = up.program.cache["idb"]
        self.schema = frozenset(p for p in arities if p not in idb)
        self.up = up
        self.database = database
        self.cap = cap
        self._stages: dict[tuple[str, str], object] = {}
        # Each model and base applied, with the output.
        self._applied: list[tuple[Interpretation, Database, Database]] = []

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
        delta = self.up.delta
        return Database._checked(*_updated(UpdateOutcome(delta.inserts(), delta.deletes()),
                                           self.database))

    def rewritten(self, mode: str) -> Program:
        return self._stage("rewritten", mode, lambda: (
            rewrite_bm(self.up) if mode == "bm" else rewrite_st(self.up)))

    def ground(self, mode: str) -> GroundProgram:
        return self._stage("ground", mode, lambda: ground(
            embed_database(self.rewritten(mode), self.database)))

    def wf(self, mode: str) -> Interpretation:
        return self._stage("wf", mode, lambda: well_founded(
            self.ground(mode), self.up.program.cache.setdefault("memo", {})))

    def family(self, mode: str) -> ModelFamily:
        return self._stage("family", mode, lambda: enumerate_pstable(
            self.ground(mode), self.cap, self.up.program.cache.setdefault("memo", {})))

    def apply_model(self, model: Interpretation, base: Database,
                    updates: Iterable[tuple[Atom, Polarity, Atom]] | None = None) -> Database:
        """`model`'s updates applied to `base`; the same model and base give the same object.

        Only a run's chosen model is applied: `mstt` decides totality on each
        part alone (see `run`).  The semantics that share a model share the
        object (`well_founded`'s cache, `ModelFamily.model_of`) and so one
        output; no model's sets are read to match it.  `updates` are its
        table's (`extract_updates`).  On a total base, the applied database's
        totality is checked against `is_total_transformation` of the model.
        """
        # A fast path that pays: applying each semantics' model again costs choice 5 % of txn/s.
        output = next((out for seen, against, out in self._applied
                       if seen is model and against is base), None)
        if output is None:
            outcome = extract_updates(model, self.schema, updates)
            output = Database._checked(*_updated(outcome, base))
            if base.is_total and is_total_transformation(model, base, updates) != output.is_total:
                raise EngineError("totality test disagrees with the applied database")
            self._applied.append((model, base, output))
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
            if plan.choose and plan.total_output:
                # A model's undefined atoms are its parts' (ModelFamily.model_of),
                # so it transforms totally exactly when each of its parts does.
                eligible = [tuple(part for part in parts
                                  if is_total_transformation(part.model, base))
                            for parts in eligible]
            # A semantics without a policy needs exactly one candidate.  The random
            # policy draws the index random.Random(seed).choice would take from
            # `count` candidates.
            count = math.prod(len(parts) for parts in eligible)
            if count == 1 or plan.choose and count:
                if policy == "random":
                    chosen = family.nth(eligible, random.Random(seed).randrange(count))
                else:
                    # Each component's least part makes the least model (ModelFamily.nth).
                    chosen = family.model_of(parts[0] for parts in eligible)
        # A single model that fails the totality test is still reported.
        output = self.apply_model(chosen, base, self.ground(plan.mode).updates) \
            if chosen is not None else None
        if output is None or plan.total_output and not output.is_total:
            status, output = STATUS_REJECTED, self.database
        else:
            status = STATUS_APPLIED
        return RunReport(semantics, self.database, output, status, chosen, stats,
                         policy, seed if policy == "random" else None)


def run(up: UpdateProgram, database: Database, semantics: Semantics,
        *, policy: str = "lex", seed: int | None = None,
        cap: int = DEFAULT_ENUMERATION_CAP) -> RunReport:
    """Apply an update program to a database under one semantics."""
    return _Session(up, database, cap=cap).run(semantics, policy, seed)


class CompareRow(_Value):
    __slots__ = _fields = ("semantics", "report", "error")

    def __init__(self, semantics: Semantics, report: RunReport | None, error: str | None):
        _set(self, "semantics", semantics)
        _set(self, "report", report)
        _set(self, "error", error)


class CompareResult(_Value):
    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[CompareRow, ...]):
        _set(self, "rows", rows)

    def info_matrix(self) -> dict[tuple[Semantics, Semantics], bool]:
        """`info_leq` for every pair of row outputs, with one schema check for all."""
        good = [(row.semantics, row.report.output_db)
                for row in self.rows if row.report is not None]
        # Rows often share one output object; each object is checked once.
        check_same_schema({id(db): db for _, db in good}.values())
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
