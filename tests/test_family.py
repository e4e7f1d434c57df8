"""The factorised model family against the product it stands for.

The oracles here are the code the factorised family and its search replaced:
`oracle_classify_parts` compares every pair of one component's parts,
`oracle_classify` compares every pair of models of the whole product, and
`oracle_run` picks a model by listing the candidates of the product, running
the MSTT totality filter model by model and sorting by `render_key`.
"""

import math
import random
import re

import pytest

from adlog import (Database, DeltaSet, EngineError, Interpretation, PreconditionError,
                   ResourceLimitError, UpdateProgram, enumerate_pstable,
                   parse_database, parse_delta, parse_program, render)
from adlog.selftest import InstanceGenerator, random_ground_program
from adlog.stable import (ALL_FLAGS, FLAG_DETERMINISTIC, FLAG_L_STABLE,
                          FLAG_M_STABLE, FLAG_MAX_DETERMINISTIC,
                          FLAG_T_STABLE, FLAG_WELL_FOUNDED, ModelRecord,
                          _components, _parts, _well_founded, well_founded)
from adlog.update import (PLANS, STATUS_APPLIED, STATUS_REJECTED, RunReport,
                          Semantics, _Session)

from conftest import FIXTURES
from test_stable import (FIXTURE_NAMES, coupled_pairs_program, fixture_programs,
                         ground_of, guarded_ring_program, oracle_enumerate,
                         oracle_parts, pairs_program, ring_program)


def oracle_classify(program, models) -> tuple[ModelRecord, ...]:
    """The flags of every model, by comparing every pair of models: O(m^2)."""
    if not models:
        raise EngineError("empty stable model family")
    literal_sets = [m.literal_set() for m in models]
    intersection = frozenset.intersection(*literal_sets)
    wf = well_founded(program)
    assert wf in models, "well-founded model missing from the family"
    assert intersection == wf.literal_set(), "family intersection is not the well-founded model"

    maximal = [not any(ls < other for other in literal_sets) for ls in literal_sets]
    least_undefined = min(m.undefined_count for m, is_max in zip(models, maximal) if is_max)
    deterministic = [all(m.union_consistent(n) for n in models) for m in models]
    det_sets = [ls for ls, d in zip(literal_sets, deterministic) if d]
    max_det_ids = [i for i, (ls, d) in enumerate(zip(literal_sets, deterministic))
                   if d and all(other <= ls for other in det_sets)]
    assert len(max_det_ids) == 1, "deterministic family has no unique maximum"

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
    return tuple(records)


def oracle_classify_parts(models) -> tuple[ModelRecord, ...]:
    """The flags of one residue component's parts, by comparing every pair of parts."""
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


def oracle_counts(records) -> dict[str, int]:
    out = {"models": len(records)}
    for flag in ALL_FLAGS:
        out[flag.replace("-", "_")] = sum(1 for r in records if flag in r.flags)
    return out


def indices(count: int, rng: random.Random) -> list[int]:
    """Every index of a short sequence; the ends and a sample of a long one."""
    if count <= 64:
        return list(range(count))
    return sorted({0, count - 1, *rng.sample(range(count), 62)})


def check_family(g, tag=None) -> int:
    """The factorised family of `g` against the product oracle; returns the model count."""
    family = enumerate_pstable(g)
    expected = oracle_classify(g, oracle_enumerate(g))
    assert family.counts() == oracle_counts(expected), tag
    assert family.records == expected, tag
    rng = random.Random(str(tag))
    for flag in ALL_FLAGS:
        ordered = [r.model for r in expected if flag in r.flags]
        eligible = family.parts_with(flag)
        assert math.prod(len(parts) for parts in eligible) == len(ordered), (tag, flag)
        if not ordered:
            continue
        assert family.model_of(parts[0] for parts in eligible) == ordered[0], (tag, flag)
        reversed_parts = [parts[::-1] for parts in eligible]
        for index in indices(len(ordered), rng):
            assert family.nth(eligible, index) == ordered[index], (tag, flag, index)
            # The decoding orders parts by their tokens, not by their position.
            assert family.nth(reversed_parts, index) == ordered[index], (tag, flag, index)
    return len(expected)


# Programs of several residue components.  Atom names are chosen so that the
# components interleave in `str` order and `render_key` tokens order
# differently per atom: `not x.` sorts before `x.` only when x sorts after "n".
MULTI_COMPONENT = [
    pairs_program(3),
    # Two pairs that share a consequence form one component, next to a third pair.
    pairs_program(2) + "c :- p0.\nc :- p1.\nu :- not v.\nv :- not u.\n",
    # Components next to atoms the well-founded model makes true and false.
    pairs_program(2) + "t.\nr :- p0, t, not f.\nf :- g.\ns :- q1, not t.\n",
    # Odd loops: components whose only part is all-undefined.
    "a :- not a.\nb :- not c.\nc :- not b.\nz :- not z.\n",
    # An atom named not_x next to x, and zero-ary atoms around them.
    "x :- not not_x.\nnot_x :- not x.\nm :- not n.\nn :- not m.\ny :- x.\n",
    # Quoted constants, including one with a quote.
    "p('it''s') :- not q('it''s').\nq('it''s') :- not p('it''s').\n"
    "p('A b') :- not q(a).\nq(a) :- not p('A b').\nr(b) :- not r(b).\n",
    # Parts that are not total, not maximal, or maximal but not least undefined.
    "a :- not b.\nb :- not a.\nc :- not c, a.\nd :- not e.\ne :- not d.\nf :- d, not f.\n",
    "a :- not b.\nb :- not a.\nb :- not b.\nk :- not l.\nl :- not k.\n",
]


class TestPartsMatchExhaustiveOracle:
    """Per component: the search's parts, their order and their flags against the
    exhaustive loop and the all-pairs classification."""

    @staticmethod
    def check(g, tag=None) -> int:
        vals, _ = _well_founded(g)
        components = _components(g, vals)
        for component in components:
            expected = oracle_classify_parts(oracle_parts(g, component, vals))
            assert _parts(g, component) == expected, tag
        return len(components)

    def test_random_ground_programs(self):
        assert sum(self.check(random_ground_program(random.Random(seed)), seed)
                   for seed in range(1500)) > 300

    def test_generated_instances(self):
        gen = InstanceGenerator(random.Random(53))
        assert sum(self.check(gen.instance().ground(mode), (case, mode))
                   for case in range(200) for mode in ("st", "bm")) > 100

    @pytest.mark.parametrize("text", MULTI_COMPONENT)
    def test_multi_component_programs(self, text):
        assert self.check(ground_of(text), text) >= 2

    @pytest.mark.parametrize("text", [ring_program(n) for n in range(2, 7)]
                             + [guarded_ring_program(4), coupled_pairs_program(3)])
    def test_one_component_programs(self, text):
        assert self.check(ground_of(text), text) == 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture(self, name):
        for g in fixture_programs(name):
            self.check(g, name)


class TestFamilyMatchesProductOracle:
    def test_random_ground_programs(self):
        for seed in range(300):
            check_family(random_ground_program(random.Random(seed)), seed)

    @pytest.mark.parametrize("text", MULTI_COMPONENT)
    def test_multi_component_programs(self, text):
        g = ground_of(text)
        assert len(enumerate_pstable(g).components) >= 2
        assert check_family(g, text) > 1

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture(self, name):
        for g in fixture_programs(name):
            check_family(g, name)

    def test_random_ground_programs_side_by_side(self):
        # Two random programs over disjoint atoms: at least two components
        # when both leave a residue.  The oracle enumerates 3^residue.
        several = 0
        for seed in range(400):
            rng = random.Random(seed)
            first, second = (render(random_ground_program(rng)) for _ in range(2))
            g = ground_of(first + re.sub(r"\b([a-h])\b", r"\1\1", second))
            if well_founded(g).undefined_count <= 8:
                check_family(g, seed)
                several += len(enumerate_pstable(g).components) > 1
        assert several > 15

    def test_product_is_built_only_when_read(self):
        family = enumerate_pstable(ground_of(pairs_program(12)), cap=24)
        assert family.counts()["models"] == 3 ** 12
        assert "records" not in vars(family)

    def test_model_of_finds_its_model_by_identity(self, monkeypatch):
        """The same records give the same model without building a set; well-founded parts
        give the well-founded model itself, and a lookup reads none of their sets."""
        family = enumerate_pstable(ground_of(pairs_program(2)))
        sets = ("universe", "true_atoms", "false_atoms")
        plain = [parts[0] for parts in family.parts_with(FLAG_WELL_FOUNDED)]
        total = [parts[0] for parts in family.parts_with(FLAG_T_STABLE)]
        first = family.model_of(total)
        built = []
        with_set = Interpretation._with
        monkeypatch.setattr(Interpretation, "_with",
                            lambda *args: built.append(args) or with_set(*args))
        assert family.model_of(plain) is family.model_of(iter(plain)) is family.wf
        assert family.model_of(total) is first and first != family.wf
        assert not built
        assert not [name for part in plain for name in sets if name in vars(part.model)]

    def test_nth_rejects_an_index_outside_the_product(self):
        family = enumerate_pstable(ground_of(pairs_program(2)))
        eligible = family.parts_with(FLAG_T_STABLE)
        with pytest.raises(IndexError):
            family.nth(eligible, 4)


def test_randrange_draws_the_index_choice_takes():
    # `_Session.run` draws randrange(count) where the product code drew
    # choice(ordered); both take _randbelow(count) from the same stream.
    for seed in range(50):
        for count in (1, 2, 3, 7, 64, 3 ** 12):
            assert random.Random(seed).randrange(count) == \
                random.Random(seed).choice(range(count))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def oracle_run(session: _Session, records, semantics: Semantics, policy: str,
               seed: int | None) -> dict:
    """`_Session.run` of a family semantics over the product `records`: the report as JSON."""
    plan = PLANS[semantics]
    if plan.total_input and not session.database.is_total:
        raise PreconditionError(f"{semantics.value} semantics requires a total input database")
    base = session.delta_applied
    candidates = [r.model for r in records if plan.source in r.flags]
    chosen = None
    if plan.choose:
        if plan.total_output:
            # apply_model checks each candidate's totality test against the
            # applied database, and its update set for consistency.
            candidates = [m for m in candidates if session.apply_model(m, base).is_total]
        if candidates:
            ordered = sorted(candidates, key=lambda m: m.render_key())
            chosen = ordered[0] if policy == "lex" else random.Random(seed).choice(ordered)
    elif len(candidates) == 1:
        chosen = candidates[0]
    output = session.apply_model(chosen, base) if chosen is not None else None
    if output is None or plan.total_output and not output.is_total:
        status, output = STATUS_REJECTED, session.database
    else:
        status = STATUS_APPLIED
    return RunReport(semantics, session.database, output, status, chosen,
                     oracle_counts(records), policy,
                     seed if policy == "random" else None).to_json_dict()


FAMILY_SEMANTICS = [s for s, plan in PLANS.items() if plan.source is not None]


def side_by_side(gen: InstanceGenerator, copies: int) -> tuple[UpdateProgram, Database]:
    """`copies` generated instances over disjoint predicates, in one program."""
    program, delta, database = "", "", ""
    for tag in ("", "z", "w")[:copies]:
        up, db = gen._candidate()
        rename = lambda text: re.sub(r"(?<![\w'])([pqrst])(?![\w'])", rf"\g<1>{tag}", text)
        program += rename(render(up.program))
        delta += rename(render(up.delta))
        database += rename(render(db))
    return UpdateProgram(parse_delta(delta), parse_program(program)), parse_database(database)


def check_runs(up: UpdateProgram, db: Database, tag) -> bool:
    """Every family semantics, lex and seeded random, against `oracle_run`.

    The oracle classifies the listed product, which
    `TestEnumerateMatchesProductOracle` checks against the whole-residue
    enumeration.  Returns whether the instance was compared; refused
    families and products over 400 models are skipped.
    """
    session = _Session(up, db)
    try:
        program = session.ground("st")
        if session.family("st").counts()["models"] > 400:
            return False
    except ResourceLimitError:
        return False
    records = oracle_classify(program, list(enumerate_pstable(program).models()))
    for semantics in FAMILY_SEMANTICS:
        for policy, seed in [("lex", None)] + [("random", s) for s in range(6)]:
            try:
                expected = oracle_run(session, records, semantics, policy, seed)
            except PreconditionError:
                with pytest.raises(PreconditionError):
                    session.run(semantics, policy, seed)
                continue
            got = session.run(semantics, policy, seed).to_json_dict()
            assert got == expected, (tag, semantics, policy, seed)
    return True


class TestRunMatchesProductOracle:
    def test_generated_instances(self):
        gen = InstanceGenerator(random.Random(61))
        compared = sum(check_runs(*gen._candidate(), case) for case in range(120))
        assert compared > 100

    def test_generated_instances_side_by_side(self):
        gen = InstanceGenerator(random.Random(67))
        several = 0
        for case in range(150):
            up, db = side_by_side(gen, 2 + case % 2)
            if check_runs(up, db, case) and len(_Session(up, db).family("st").components) > 1:
                several += 1
        assert several > 20

    @pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if not n.startswith("zoo_")])
    def test_update_fixtures(self, name):
        text = lambda suffix: (FIXTURES / f"{name}{suffix}").read_text() \
            if (FIXTURES / f"{name}{suffix}").exists() else ""
        up = UpdateProgram(parse_delta(text(".adu")), parse_program(text(".adl")))
        assert check_runs(up, parse_database(text(".adb")), name)

    def test_choice_pairs_with_totality_filter(self):
        # Each pair can derive +a(i) or -b(i); the totality filter keeps only
        # the parts whose undefined updates leave the database total.
        text = "".join(f"+a({i}) :- not -b({i}).\n-b({i}) :- not +a({i}).\n"
                       f"+c({i}) :- not +c({i}), b({i}).\n" for i in range(3))
        up = UpdateProgram(DeltaSet(), parse_program(text))
        db = parse_database("".join(f"b({i}).\n" for i in range(0, 3, 2)))
        assert check_runs(up, db, "pairs")
        assert len(_Session(up, db).family("st").components) >= 3
