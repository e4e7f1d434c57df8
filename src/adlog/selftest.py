"""Fixture corpus, object-level oracles and randomized property suites.

Every fixture pins its expected outcomes as frozen literals.  Outcomes marked
"oracle" were computed with the exhaustive enumeration in this module (which
checks stability over every three-valued assignment through the object-level
reduct route and never consults the fixpoint engine); outcomes marked "hand"
were derived by hand from the definitions and double-checked against the
oracle where feasible.

The randomized suites check the ordering laws between semantics, the lattice
laws of deterministic models, agreement between the two independent
stable-model routes, and constant-genericity.  All suites are deterministic
given a seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from importlib import resources

from .model import (Atom, BuiltinLiteral, Constant, Database, DeltaSet,
                    Interpretation, Literal, Polarity, Program, Rule,
                    StdLiteral, TruthValue, UpdateAtom, UpdateProgram,
                    UpdLiteral, Variable, info_leq, rename_constants)
from .parse import parse_database, parse_delta, parse_program, render
from .rewrite import GroundProgram, renamed_update_atom, rewrite_st
from .stable import (FLAG_DETERMINISTIC, FLAG_MAX_DETERMINISTIC,
                     FLAG_WELL_FOUNDED, enumerate_pstable, well_founded)
from .update import Semantics, _Session, is_total_transformation

DEFAULT_SEED = 20240

DETERMINISTIC_SEMANTICS = (Semantics.WS, Semantics.MD, Semantics.TWFS,
                           Semantics.TMDS, Semantics.UTS, Semantics.WS_BM)


# ---------------------------------------------------------------------------
# Object-level oracles: model checks and the reduct route
# ---------------------------------------------------------------------------

def eval_literal(lit: Literal, interp: Interpretation) -> TruthValue:
    """Truth value of a ground literal; negation flips true/false and fixes undefined."""
    if isinstance(lit, BuiltinLiteral):
        return TruthValue.TRUE if lit.evaluate() else TruthValue.FALSE
    if isinstance(lit, StdLiteral):
        value = interp.value(lit.atom)
        return value if lit.positive else value.negate()
    # Update literals read the renamed standard atom they stand for.
    value = interp.value(renamed_update_atom(lit.uatom))
    return value if lit.positive else value.negate()


def rule_satisfied(rule: Rule, interp: Interpretation) -> bool:
    """A ground rule holds when the head value is at least the minimum body value."""
    body = min((eval_literal(lit, interp) for lit in rule.body), default=TruthValue.TRUE)
    if isinstance(rule.head, UpdateAtom):
        head = interp.value(renamed_update_atom(rule.head))
    else:
        head = interp.value(rule.head)
    return head >= body


def is_model(program: Program, interp: Interpretation) -> bool:
    return all(rule_satisfied(rule, interp) for rule in program.rules)


@dataclass(frozen=True)
class ReductRule:
    """Positive rule; `floor` folds the truth constants substituted for negated literals."""

    head: Atom
    positive: tuple[Atom, ...]
    floor: TruthValue

    def __str__(self) -> str:
        parts = [str(a) for a in self.positive] + [str(self.floor)]
        return f"{self.head} :- {', '.join(parts)}."


@dataclass(frozen=True)
class ReductProgram:
    rules: tuple[ReductRule, ...]
    universe: frozenset[Atom]


def gl_reduct(program: GroundProgram, interp: Interpretation) -> ReductProgram:
    """Replace each negated body literal with the complement of its value in `interp`."""
    rules = []
    for rule in program.rules:
        positive = tuple(lit.atom for lit in rule.body if lit.positive)
        floor = TruthValue.TRUE
        for lit in rule.body:
            if not lit.positive:
                floor = min(floor, interp.value(lit.atom).negate())
        rules.append(ReductRule(rule.head, positive, floor))
    return ReductProgram(tuple(rules), program.universe)


def least_3v_model(reduct: ReductProgram) -> Interpretation:
    """Least three-valued model of a positive program, by increasing fixpoint from all-false."""
    atoms = sorted(reduct.universe, key=str)
    index = {atom: i for i, atom in enumerate(atoms)}
    true, false = int(TruthValue.TRUE), int(TruthValue.FALSE)
    vals = [false] * len(atoms)
    rules = [(index[r.head], tuple(index[a] for a in r.positive), int(r.floor))
             for r in reduct.rules]
    changed = True
    while changed:
        changed = False
        for head, pos, floor in rules:
            v = floor
            for p in pos:
                if vals[p] < v:
                    v = vals[p]
            if v > vals[head]:
                vals[head] = v
                changed = True
    return Interpretation(frozenset(atoms),
                          frozenset(a for a, v in zip(atoms, vals) if v == true),
                          frozenset(a for a, v in zip(atoms, vals) if v == false))


def brute_force_family(program) -> list[Interpretation]:
    """All partial stable models, by checking every three-valued assignment.

    Deliberately independent of the fixpoint engine: no well-founded
    computation, no residue restriction, and stability is checked through the
    object-level reduct route.  Exponential; keep the universe small.
    """
    atoms = sorted(program.universe, key=str)
    models = []
    for combo in itertools.product((0, 1, 2), repeat=len(atoms)):
        true_atoms = frozenset(a for a, v in zip(atoms, combo) if v == 2)
        false_atoms = frozenset(a for a, v in zip(atoms, combo) if v == 0)
        candidate = Interpretation(frozenset(atoms), true_atoms, false_atoms)
        if least_3v_model(gl_reduct(program, candidate)) == candidate:
            models.append(candidate)
    models.sort(key=lambda m: m.render_key())
    return models


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    name: str
    provenance: str
    has_database: bool = False
    has_delta: bool = False
    # For plain Datalog fixtures: number of models and {render_key: flags}.
    model_count: int | None = None
    models: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # For update fixtures: semantics -> (status, rendered output database).
    runs: dict[Semantics, tuple[str, str]] = field(default_factory=dict)


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="zoo_chain",
        provenance="oracle: exhaustive check over all 81 assignments",
        model_count=1,
        models={
            "not a. b. not c. not d.": ("deterministic", "l-stable", "m-stable",
                                        "max-deterministic", "t-stable", "well-founded"),
        },
    ),
    Fixture(
        name="zoo_choice",
        provenance="hand: choice pair, odd loop and guarded pair, checked by oracle",
        model_count=5,
        models={
            "a. b? c? d? e? p? q?": ("deterministic", "max-deterministic", "well-founded"),
            "a. b. not c. d? e? p? q?": ("m-stable",),
            "a. not b. c. d? e? not p. q?": (),
            "a. not b. c. not d. e. not p. q?": ("m-stable",),
            "a. not b. c. d. not e. not p. not q.": ("l-stable", "m-stable", "t-stable"),
        },
    ),
    Fixture(
        name="zoo_choice_nofact",
        provenance="hand: same shape without the enabling fact, checked by oracle",
        model_count=3,
        models={
            "not a. b? c? not d. not e. p? q?": ("deterministic", "max-deterministic",
                                                 "well-founded"),
            "not a. b. not c. not d. not e. p? q?": ("m-stable",),
            "not a. not b. c. not d. not e. not p. q?": ("l-stable", "m-stable"),
        },
    ),
    Fixture(
        name="zoo_join",
        provenance="hand: even cycle feeding a join, checked by oracle",
        model_count=4,
        models={
            "a? b? c? d?": ("deterministic", "well-founded"),
            "a? b? c. not d.": ("deterministic", "max-deterministic"),
            "a. not b. c. not d.": ("l-stable", "m-stable", "t-stable"),
            "not a. b. c. not d.": ("l-stable", "m-stable", "t-stable"),
        },
    ),
    Fixture(
        name="confirm_manager",
        provenance="hand: alternating fixpoint of both rewritings",
        has_delta=True,
        runs={
            Semantics.WS: ("applied", "confirm(x,d). mgr(x,d)."),
            Semantics.WS_BM: ("applied", "confirm(x,d). mgr(x,d)?"),
            Semantics.MD: ("applied", "confirm(x,d). mgr(x,d)."),
            Semantics.UTS: ("applied", "confirm(x,d). mgr(x,d)."),
        },
    ),
    Fixture(
        name="project_cascade",
        provenance="hand: alternating fixpoint; residue checked by oracle",
        has_database=True,
        has_delta=True,
        runs={
            Semantics.WS: ("applied", "mgr(x,p,d)?"),
            Semantics.MD: ("applied", "mgr(x,p,d)?"),
            Semantics.MS: ("applied", "mgr(x,p,d)?"),
            Semantics.TWFS: ("rejected-unchanged", "mgr(x,p,d). proj(p)."),
            Semantics.TS: ("rejected-unchanged", "mgr(x,p,d). proj(p)."),
            Semantics.MSTT: ("rejected-unchanged", "mgr(x,p,d). proj(p)."),
            Semantics.UTS: ("rejected-unchanged", "mgr(x,p,d). proj(p)."),
        },
    ),
    Fixture(
        name="new_hire_roles",
        provenance="hand: guarded choice pairs; family checked by oracle",
        has_delta=True,
        runs={
            Semantics.WS: ("applied", "new(a). emp(a)? mgr(a)? noworker(a)? worker(a)?"),
            Semantics.MD: ("applied", "new(a). worker(a). emp(a)? mgr(a)?"),
            Semantics.TWFS: ("rejected-unchanged", ""),
            Semantics.TMDS: ("rejected-unchanged", ""),
        },
    ),
    Fixture(
        name="new_hire_mixed",
        provenance="hand: derived-role variant of new_hire_roles",
        has_delta=True,
        runs={
            Semantics.TWFS: ("rejected-unchanged", ""),
            Semantics.TMDS: ("applied", "new(a). worker(a)."),
        },
    ),
    Fixture(
        name="new_hire_unique",
        provenance="hand: single total model survives the demotion guard",
        has_delta=True,
        runs={
            Semantics.UTS: ("applied", "emp(a). new(a). worker(a)."),
            Semantics.WS: ("applied", "new(a). emp(a)? mgr(a)? worker(a)?"),
        },
    ),
    Fixture(
        name="new_hire_worker",
        provenance="hand: both maximal models agree on worker",
        has_delta=True,
        runs={
            Semantics.MS: ("applied", "emp(a). new(a). worker(a)."),
            Semantics.MD: ("applied", "new(a). emp(a)? mgr(a)? worker(a)?"),
            Semantics.UTS: ("rejected-unchanged", ""),
        },
    ),
    Fixture(
        name="promotion",
        provenance="oracle: total fixpoint confirmed stable via the reduct route",
        has_database=True,
        has_delta=True,
        runs={
            Semantics.WS: ("applied", "mgr(e1,d1). prom(e1,d1)."),
            Semantics.MD: ("applied", "mgr(e1,d1). prom(e1,d1)."),
            Semantics.UTS: ("applied", "mgr(e1,d1). prom(e1,d1)."),
            Semantics.WS_BM: ("applied", "prom(e1,d1). mgr(e1,d1)?"),
        },
    ),
)

GOLDEN_REWRITE_FIXTURE = "project_cascade"
GOLDEN_REWRITE_FILE = "golden/project_cascade_rewrite.adl"


def fixture_dir():
    return resources.files("adlog") / "fixtures"


def load_fixture(fixture: Fixture) -> tuple[UpdateProgram, Database]:
    base = fixture_dir()
    program = parse_program((base / f"{fixture.name}.adl").read_text(),
                            origin=f"{fixture.name}.adl")
    delta = parse_delta((base / f"{fixture.name}.adu").read_text()) \
        if fixture.has_delta else DeltaSet()
    database = parse_database((base / f"{fixture.name}.adb").read_text()) \
        if fixture.has_database else Database()
    return UpdateProgram(delta, program), database


# ---------------------------------------------------------------------------
# Suite plumbing
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.cases += 1
        if not condition:
            self.failures.append(message)


def _describe(up: UpdateProgram, db: Database) -> str:
    return (f"--- program ---\n{render(up.program)}"
            f"--- delta ---\n{render(up.delta)}"
            f"--- database ---\n{render(db)}")


# ---------------------------------------------------------------------------
# Suite 1: fixture corpus
# ---------------------------------------------------------------------------

def suite_fixtures() -> SuiteResult:
    result = SuiteResult("fixtures")
    for fixture in FIXTURES:
        up, db = load_fixture(fixture)
        if fixture.model_count is not None:
            # Taken as written: grounding would drop the rules whose positive
            # body atoms are underivable, and atoms the pinned families mention.
            g = GroundProgram(up.program.rules)
            family = enumerate_pstable(g)
            result.check(len(family.records) == fixture.model_count,
                         f"{fixture.name}: expected {fixture.model_count} models, "
                         f"got {len(family.records)}")
            got = {r.model.render_key(): tuple(sorted(r.flags)) for r in family.records}
            expected = {key: tuple(sorted(flags)) for key, flags in fixture.models.items()}
            result.check(got == expected,
                         f"{fixture.name}: family mismatch\nexpected {expected}\ngot {got}")
            oracle = brute_force_family(g)
            result.check([m.render_key() for m in oracle] == sorted(got),
                         f"{fixture.name}: exhaustive oracle disagrees with enumeration")
        session = _Session(up, db) if fixture.runs else None
        for semantics, (status, output) in sorted(fixture.runs.items(),
                                                  key=lambda kv: kv[0].value):
            report = session.run(semantics)
            got_output = render(report.output_db).replace("\n", " ").strip()
            result.check(
                (report.status, got_output) == (status, output),
                f"{fixture.name}/{semantics.value}: expected {(status, output)}, "
                f"got {(report.status, got_output)}")
    return result


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------

_BASE_PREDS = ("p", "q", "r")
_DERIVED_PREDS = ("s", "t")
_VARS = (Variable("X"), Variable("Y"))


class InstanceGenerator:
    """Random update programs within the desk-scale property-suite bounds.

    At most three base predicates of arity two or less, three constants and
    six rules.  Instances whose well-founded residue would make enumeration
    expensive are resampled, so suites that need model families stay fast.
    """

    def __init__(self, rng: random.Random, max_residue: int = 10,
                 extra_db_constants: int = 0):
        self.rng = rng
        self.max_residue = max_residue
        self.extra_db_constants = extra_db_constants

    def instance(self) -> _Session:
        """The session of an accepted instance; `.up` and `.database` give the pair."""
        while True:
            session = _Session(*self._candidate())
            if session.wf("st").undefined_count > self.max_residue:
                continue
            if session.wf("bm").undefined_count > self.max_residue:
                continue
            return session

    def _candidate(self) -> tuple[UpdateProgram, Database]:
        rng = self.rng
        constants = [Constant(c) for c in ("a", "b", "c")[:rng.randint(1, 3)]]
        base = {pred: rng.randint(0, 2) for pred in _BASE_PREDS[:rng.randint(1, 3)]}
        derived = {pred: rng.randint(0, 2)
                   for pred in _DERIVED_PREDS[:rng.randint(0, 2)]}

        def make_args(arity: int, pool: list) -> tuple:
            return tuple(rng.choice(pool) for _ in range(arity))

        rules = []
        for _ in range(rng.randint(1, 6)):
            body = []
            bound: list = list(constants)
            # Positive literals first; they bind the variables everything
            # else may use.
            for _ in range(rng.randint(1, 2)):
                pred = rng.choice(sorted(base) + sorted(derived))
                arity = base.get(pred, derived.get(pred))
                args = make_args(arity, list(constants) + list(_VARS))
                if pred in base and rng.random() < 0.4:
                    body.append(UpdLiteral(UpdateAtom(rng.choice(list(Polarity)),
                                                      Atom(pred, args))))
                else:
                    body.append(StdLiteral(Atom(pred, args)))
                bound += [t for t in args if isinstance(t, Variable)]
            for _ in range(rng.randint(0, 2)):
                pred = rng.choice(sorted(base) + sorted(derived))
                arity = base.get(pred, derived.get(pred))
                args = make_args(arity, bound)
                if pred in base and rng.random() < 0.5:
                    body.append(UpdLiteral(UpdateAtom(rng.choice(list(Polarity)),
                                                      Atom(pred, args)), positive=False))
                else:
                    body.append(StdLiteral(Atom(pred, args), positive=False))
            if derived and rng.random() < 0.4:
                pred = rng.choice(sorted(derived))
                head_args = make_args(derived[pred], bound)
                rules.append(Rule(Atom(pred, head_args), tuple(body)))
            else:
                pred = rng.choice(sorted(base))
                head_args = make_args(base[pred], bound)
                rules.append(Rule(UpdateAtom(rng.choice(list(Polarity)),
                                             Atom(pred, head_args)), tuple(body)))

        if rng.random() < 0.5 and len(base) >= 2:
            # Choice gadget: an even negative cycle between two ground update
            # atoms, optionally joined into a common consequence.  This is the
            # shape that produces several stable models, so the selection
            # semantics and the deterministic lattice get exercised.
            preds = rng.sample(sorted(base), 2)
            left = UpdateAtom(Polarity.INSERT, Atom(preds[0], make_args(base[preds[0]],
                                                                        constants)))
            right = UpdateAtom(Polarity.INSERT, Atom(preds[1], make_args(base[preds[1]],
                                                                         constants)))
            if left.atom != right.atom:
                rules = rules[:4]
                rules.append(Rule(left, (UpdLiteral(right, positive=False),)))
                rules.append(Rule(right, (UpdLiteral(left, positive=False),)))
                if rng.random() < 0.6:
                    joined = rng.choice(sorted(base))
                    head = UpdateAtom(Polarity.INSERT,
                                      Atom(joined, make_args(base[joined], constants)))
                    rules.append(Rule(head, (UpdLiteral(left),)))
                    rules.append(Rule(head, (UpdLiteral(right),)))

        delta_atoms: dict[Atom, Polarity] = {}
        for _ in range(rng.randint(0, 2)):
            pred = rng.choice(sorted(base))
            atom = Atom(pred, make_args(base[pred], constants))
            delta_atoms.setdefault(atom, rng.choice(list(Polarity)))
        delta = DeltaSet.of(UpdateAtom(pol, atom) for atom, pol in delta_atoms.items())

        db_constants = list(constants) + [Constant(f"d{i + 1}")
                                          for i in range(self.extra_db_constants)]
        true_facts = set()
        for pred, arity in base.items():
            for combo in itertools.product(db_constants, repeat=arity):
                if rng.random() < 0.3:
                    true_facts.add(Atom(pred, combo))
        return UpdateProgram(delta, Program(tuple(rules))), Database.of(true_facts)


def random_ground_program(rng: random.Random):
    """Propositional ground program over at most eight atoms."""
    names = ("a", "b", "c", "d", "e", "f", "g", "h")
    atoms = [Atom(n) for n in names[:rng.randint(2, 8)]]
    rules = []
    for _ in range(rng.randint(1, 2 * len(atoms))):
        head = rng.choice(atoms)
        body = tuple(StdLiteral(rng.choice(atoms), positive=rng.random() < 0.55)
                     for _ in range(rng.randint(0, 3)))
        rules.append(Rule(head, body))
    return GroundProgram(tuple(dict.fromkeys(rules)))


# ---------------------------------------------------------------------------
# Suite 2: semantics ordering and lattice laws
# ---------------------------------------------------------------------------

def suite_ordering(count: int = 200, seed: int = DEFAULT_SEED) -> SuiteResult:
    result = SuiteResult("ordering-laws")
    gen = InstanceGenerator(random.Random(seed))
    for case in range(count):
        session = gen.instance()
        tag = f"case {case}\n{_describe(session.up, session.database)}"
        try:
            _check_ordering_case(result, tag, session)
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            result.check(False, f"{tag}\nraised {exc!r}")
    return result


def _check_ordering_case(result: SuiteResult, tag: str, session: _Session) -> None:
    reports = {semantics: session.run(semantics) for semantics in Semantics}
    ws = reports[Semantics.WS].output_db
    bm = reports[Semantics.WS_BM].output_db
    md = reports[Semantics.MD].output_db
    result.check(info_leq(bm, ws),
                 f"{tag}\nordering violated: ws output not above ws-bm output")
    result.check(info_leq(ws, md),
                 f"{tag}\nordering violated: md output not above ws output")
    # Totality test versus actually applying.
    delta_db = session.delta_applied
    wf = session.wf("st")
    applied = session.apply_model(wf, delta_db)
    result.check(is_total_transformation(wf, delta_db) == applied.is_total,
                 f"{tag}\ntotality test disagrees with application")
    # Deterministic-family lattice laws.
    family = session.family("st")
    det = [r.model for r in family.with_flag(FLAG_DETERMINISTIC)]
    (wf_rec,) = family.with_flag(FLAG_WELL_FOUNDED)
    (md_rec,) = family.with_flag(FLAG_MAX_DETERMINISTIC)
    for model in det:
        result.check(wf_rec.model.issubset(model) and model.issubset(md_rec.model),
                     f"{tag}\ndeterministic model outside the lattice bounds")
    for m1, m2 in itertools.combinations(det, 2):
        result.check(m1.union_consistent(m2),
                     f"{tag}\ntwo deterministic models are contradictory")
    for report in reports.values():
        out = report.output_db
        result.check(not (out.true_facts & out.unknown_facts),
                     f"{tag}\noutput database is ill-formed")
        if report.status == "rejected-unchanged":
            result.check(out == session.database, f"{tag}\nrejected run modified the database")


# ---------------------------------------------------------------------------
# Suite 3: oracle equivalence
# ---------------------------------------------------------------------------

def suite_oracle(count: int = 100, seed: int = DEFAULT_SEED + 1) -> SuiteResult:
    result = SuiteResult("oracle-equivalence")
    rng = random.Random(seed)
    for case in range(count):
        program = random_ground_program(rng)
        tag = f"case {case}\n{render(program)}"
        expected = brute_force_family(program)
        family = enumerate_pstable(program)
        got = list(family.models())
        result.check(got == expected,
                     f"{tag}\nenumeration disagrees with the exhaustive oracle:\n"
                     f"expected {[m.render_key() for m in expected]}\n"
                     f"got {[m.render_key() for m in got]}")
        if not expected:
            continue
        intersection = frozenset.intersection(*(m.literal_set() for m in expected))
        wf = well_founded(program)
        result.check(wf.literal_set() == intersection,
                     f"{tag}\nwell-founded model is not the family intersection")
    return result


# ---------------------------------------------------------------------------
# Suite 4: constant genericity
# ---------------------------------------------------------------------------

def suite_genericity(count: int = 50, seed: int = DEFAULT_SEED + 2) -> SuiteResult:
    result = SuiteResult("genericity")
    rng = random.Random(seed)
    gen = InstanceGenerator(rng, extra_db_constants=2)
    for case in range(count):
        original = gen.instance()
        up, db = original.up, original.database
        fixed = up.program.constants() | up.delta.constants()
        movable = sorted(db.constants() - fixed)
        if rng.random() < 0.5 and movable:
            fresh = [f"z{i + 1}" for i in range(len(movable))]
            rho = dict(zip(movable, fresh))
        else:
            shuffled = movable[:]
            rng.shuffle(shuffled)
            rho = dict(zip(movable, shuffled))
        renamed_db = rename_constants(db, rho)
        tag = f"case {case} rho={rho}\n{_describe(up, db)}"
        renamed = _Session(up, renamed_db)
        for semantics in DETERMINISTIC_SEMANTICS:
            left = renamed.run(semantics).output_db
            right = rename_constants(original.run(semantics).output_db, rho)
            result.check(left == right,
                         f"{tag}\n{semantics.value} does not commute with renaming:\n"
                         f"run(renamed) = {render(left)!r}\n"
                         f"renamed(run) = {render(right)!r}")
    return result


# ---------------------------------------------------------------------------
# Suite 5: round-trips and golden stability
# ---------------------------------------------------------------------------

def suite_roundtrip() -> SuiteResult:
    result = SuiteResult("round-trip")
    base = fixture_dir()
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".adl"):
            program = parse_program(entry.read_text(), origin=entry.name)
            result.check(parse_program(render(program)) == program,
                         f"{entry.name}: program round-trip failed")
        elif entry.name.endswith(".adb"):
            db = parse_database(entry.read_text())
            result.check(parse_database(render(db)) == db,
                         f"{entry.name}: database round-trip failed")
        elif entry.name.endswith(".adu"):
            delta = parse_delta(entry.read_text())
            result.check(parse_delta(render(delta)) == delta,
                         f"{entry.name}: delta round-trip failed")
    fixture = next(f for f in FIXTURES if f.name == GOLDEN_REWRITE_FIXTURE)
    up, _ = load_fixture(fixture)
    first = render(rewrite_st(up))
    second = render(rewrite_st(up))
    result.check(first == second, "rewriting is not byte-stable across runs")
    golden = (base / GOLDEN_REWRITE_FILE).read_text()
    result.check(first == golden,
                 f"golden rewrite drifted:\n--- expected ---\n{golden}\n--- got ---\n{first}")
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(seed: int = DEFAULT_SEED, *, ordering_count: int = 200,
            oracle_count: int = 100, genericity_count: int = 50) -> list[SuiteResult]:
    return [
        suite_fixtures(),
        suite_roundtrip(),
        suite_ordering(ordering_count, seed),
        suite_oracle(oracle_count, seed + 1),
        suite_genericity(genericity_count, seed + 2),
    ]
