import itertools
import pathlib
import random
import sys
import threading

import pytest

from adlog import (Atom, Database, EngineError, GroundProgram,
                   Interpretation, ResourceLimitError, TruthValue, embed_database,
                   enumerate_pstable, ground, is_pstable, max_deterministic,
                   parse_program, rewrite_bm, rewrite_st, well_founded)
from adlog.selftest import (InstanceGenerator, brute_force_family,
                            eval_literal, gl_reduct, least_3v_model,
                            random_ground_program)
import adlog.stable
from adlog.model import render_token
from adlog.stable import (FLAG_L_STABLE, FLAG_M_STABLE, FLAG_T_STABLE,
                          _components, _psi, _ranks, _restrict, _Rules, _stable,
                          _well_founded)

from conftest import FIXTURES, load_update_program, rule_lists

a, b, c, p, q = Atom("a"), Atom("b"), Atom("c"), Atom("p"), Atom("q")


def ground_of(text: str):
    # Taken as written: grounding would drop the rules whose positive body
    # atoms are underivable, and with them atoms the tests mention.
    return GroundProgram(parse_program(text).rules)


def interp(universe, true=(), false=()):
    return Interpretation(frozenset(universe), frozenset(true), frozenset(false))


def oracle_unfounded(program, interpretation):
    """Greatest unfounded set by enumerating candidate subsets.

    Checks the defining condition directly on every subset of the candidate
    atoms and returns the union of all sets that satisfy it; independent of
    the erosion computation under test.
    """
    atoms = sorted(program.universe, key=str)
    def is_unfounded(subset):
        for rule in program.rules:
            if rule.head not in subset:
                continue
            body_false = any(
                (lit.positive and interpretation.value(lit.atom) is TruthValue.FALSE)
                or (not lit.positive and interpretation.value(lit.atom) is TruthValue.TRUE)
                for lit in rule.body)
            circular = any(lit.positive and lit.atom in subset for lit in rule.body)
            if not (body_false or circular):
                return False
        return True
    best: set = set()
    for size in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            if is_unfounded(set(combo)):
                best |= set(combo)
    return best


# The well-founded model as the least fixpoint of W(I) = T(I) + not-U(I), on
# rule and interpretation objects: the oracle for the reduct-operator kernel.

def immediate_consequence(program, interpretation):
    """Heads of rules whose entire body is true in the interpretation."""
    return {rule.head for rule in program.rules
            if all(eval_literal(lit, interpretation) is TruthValue.TRUE for lit in rule.body)}


def greatest_unfounded(program, interpretation):
    """Largest atom set whose every rule is false in `interpretation` or circular through the set.

    Erodes the candidate set: an atom escapes as soon as some rule for it is
    neither false in the interpretation nor circular through the candidates.
    """
    unfounded = {atom for atom in program.universe | interpretation.universe
                 if interpretation.value(atom) is not TruthValue.TRUE}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.head not in unfounded:
                continue
            if any(eval_literal(lit, interpretation) is TruthValue.FALSE for lit in rule.body):
                continue
            if not any(lit.positive and lit.atom in unfounded for lit in rule.body):
                unfounded.discard(rule.head)
                changed = True
    return unfounded


def wf_step(program, interpretation):
    return Interpretation(program.universe | interpretation.universe,
                          frozenset(immediate_consequence(program, interpretation)),
                          frozenset(greatest_unfounded(program, interpretation)))


def oracle_well_founded(program):
    """Iterate the W operator from the empty interpretation to its fixpoint."""
    current = Interpretation(program.universe)
    while True:
        nxt = wf_step(program, current)
        if nxt == current:
            return current
        assert current.issubset(nxt), "W iteration is not inflationary"
        current = nxt


def whole_program_rules(program):
    """The kernel's view of every rule of the program, built without `_restrict`."""
    heads, pos, negs = rule_lists(program)
    return _Rules(len(program.atoms), heads, pos, negs, [int(TruthValue.TRUE)] * len(heads))


def interpretation_of(program, vals):
    """The interpretation giving atom i of the program's table the value `vals[i]`."""
    return Interpretation(
        program.universe,
        frozenset(atom for atom, v in zip(program.atoms, vals) if v == int(TruthValue.TRUE)),
        frozenset(atom for atom, v in zip(program.atoms, vals) if v == int(TruthValue.FALSE)))


def oracle_psi_iteration(program):
    """Iterate the reduct operator over the whole program from all-undefined to its fixpoint.

    No dependency components: one whole-program round per link of a chain,
    so it is quadratic on the chain family.
    """
    rules = whole_program_rules(program)
    vals = [int(TruthValue.UNDEFINED)] * len(program.atoms)
    while True:
        nxt = _psi(rules, vals)
        if nxt == vals:
            return interpretation_of(program, vals)
        assert all(old == int(TruthValue.UNDEFINED) or old == new
                   for old, new in zip(vals, nxt)), "Psi iteration is not inflationary"
        vals = nxt


def oracle_enumerate(program):
    """The family by trying all 3^k assignments of the whole well-founded residue."""
    wf = well_founded(program)
    rules = whole_program_rules(program)
    base = [int(wf.value(atom)) for atom in program.atoms]
    index = {atom: slot for slot, atom in enumerate(program.atoms)}
    slots = [index[atom] for atom in sorted(wf.undefined_atoms(), key=str)]
    models = []
    for combo in itertools.product((0, 1, 2), repeat=len(slots)):
        vals = list(base)
        for slot, value in zip(slots, combo):
            vals[slot] = value
        if _stable(rules, vals):
            models.append(interpretation_of(program, vals))
    models.sort(key=lambda m: m.render_key())
    return models


def oracle_parts(program, component, vals):
    """One residue component's parts, in `render_key` order, by checking all 3^|C| assignments."""
    rules = _restrict(program, component, vals)
    atoms = frozenset(program.atoms[s] for s in component)
    parts = []
    for combo in itertools.product((0, 1, 2), repeat=len(component)):
        if _stable(rules, combo):
            parts.append(Interpretation(
                atoms,
                frozenset(program.atoms[s] for s, v in zip(component, combo) if v == 2),
                frozenset(program.atoms[s] for s, v in zip(component, combo) if v == 0)))
    parts.sort(key=lambda part: part.render_key())
    return parts


def oracle_components(program, base):
    """The undefined atoms of `base`, split by a liveness test and union-find of their own.

    A rule is live when its head is undefined, no positive body atom is false
    and no negated body atom is true; it links its head with every undefined
    atom of its body.  Ordered as `_components` orders them: components by
    their least atom in `str` order, and the atoms of each in `str` order.
    """
    undefined, true, false = (int(v) for v in (TruthValue.UNDEFINED, TruthValue.TRUE,
                                               TruthValue.FALSE))
    parent = {a: a for a, v in enumerate(base) if v == undefined}

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for head, pos, neg in zip(*rule_lists(program)):
        if base[head] == undefined and all(base[b] != false for b in pos) \
                and all(base[n] != true for n in neg):
            for b in (*pos, *neg):
                if base[b] == undefined:
                    parent[root(b)] = root(head)
    components = {}
    for a in sorted(parent, key=lambda a: str(program.atoms[a])):
        components.setdefault(root(a), []).append(a)
    return list(components.values())


def pairs_program(k: int) -> str:
    """k independent choice pairs `p_i :- not q_i.` and `q_i :- not p_i.`"""
    return "".join(f"p{i} :- not q{i}.\nq{i} :- not p{i}.\n" for i in range(k))


def chain_program(n: int, reverse: bool = False):
    """The ROADMAP chain family: `a_i :- not a_{i+1}` and `b_i :- b_{i+1}`, n links each."""
    text = "".join(f"a{i} :- not a{i + 1}.\n" for i in range(n))
    text += "".join(f"b{i} :- b{i + 1}.\n" for i in range(n)) + f"b{n}.\n"
    rules = parse_program(text).rules
    return GroundProgram(rules[::-1] if reverse else rules)


class TestImmediateConsequence:
    def test_negative_body_false_fires(self):
        g = ground_of("a :- not b.")
        assert immediate_consequence(g, interp([a, b], false=[b])) == {a}

    def test_undefined_body_does_not_fire(self):
        g = ground_of("a :- not b.")
        assert immediate_consequence(g, interp([a, b])) == set()

    def test_factless_program_from_empty(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        assert immediate_consequence(g, Interpretation(g.universe)) == set()


class TestGreatestUnfounded:
    def test_ruleless_atom_is_unfounded(self):
        g = ground_of("a :- not q.")
        assert q in greatest_unfounded(g, Interpretation(g.universe))

    def test_self_supporting_loop(self):
        g = ground_of("p :- p.")
        assert greatest_unfounded(g, Interpretation(g.universe)) == {p}

    def test_matches_subset_oracle_on_choice_program(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_choice.adl").read_text())
        empty = Interpretation(g.universe)
        assert greatest_unfounded(g, empty) == oracle_unfounded(g, empty) == set()

    def test_matches_subset_oracle_on_random_programs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_ground_program(rng)
            if len(g.universe) > 6:
                continue
            empty = Interpretation(g.universe)
            assert greatest_unfounded(g, empty) == oracle_unfounded(g, empty)
            wf = well_founded(g)
            assert greatest_unfounded(g, wf) == oracle_unfounded(g, wf)


class TestWfStep:
    def test_empty_program_makes_everything_false(self):
        g = ground_of("")
        step = wf_step(g, interp([a, b]))
        assert step.false_atoms == {a, b}

    def test_single_fact(self):
        g = ground_of("a.")
        step = wf_step(g, Interpretation(g.universe | {b}))
        assert step.true_atoms == {a}
        assert step.false_atoms == {b}

    def test_choice_program_first_step_derives_the_fact(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_choice.adl").read_text())
        current = Interpretation(g.universe)
        seen = []
        for _ in range(6):
            nxt = wf_step(g, current)
            assert current.issubset(nxt)  # inflationary along the iteration
            seen.append(nxt)
            if nxt == current:
                break
            current = nxt
        assert a in seen[0].true_atoms
        assert all(q in s.undefined_atoms() for s in seen)


class TestWellFounded:
    def test_choice_program(self, fixtures_dir):
        wf = well_founded(ground_of((fixtures_dir / "zoo_choice.adl").read_text()))
        assert wf.true_atoms == {a}
        assert wf.false_atoms == set()
        assert wf.undefined_count == 6

    def test_join_program_all_undefined(self, fixtures_dir):
        wf = well_founded(ground_of((fixtures_dir / "zoo_join.adl").read_text()))
        assert wf.undefined_count == 4

    def test_choice_program_without_fact(self, fixtures_dir):
        wf = well_founded(ground_of((fixtures_dir / "zoo_choice_nofact.adl").read_text()))
        assert wf.true_atoms == set()
        assert wf.false_atoms == {a, Atom("d"), Atom("e")}


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.adl"))


def fixture_programs(name: str):
    """A propositional fixture as written, or an update fixture under both rewritings."""
    if name.startswith("zoo_"):
        return [ground_of((FIXTURES / f"{name}.adl").read_text())]
    up, db = load_update_program(name, db=(FIXTURES / f"{name}.adb").exists())
    return [ground(embed_database(rewriting(up), db)) for rewriting in (rewrite_st, rewrite_bm)]


def ring_program(n: int) -> str:
    """`a_i :- not a_{(i+1) mod n}.`: one strongly connected component through negation."""
    return "".join(f"a{i} :- not a{(i + 1) % n}.\n" for i in range(n))


def assert_matches_oracles(g, tag=None):
    wf = well_founded(g)
    assert wf == oracle_well_founded(g), tag
    assert wf == oracle_psi_iteration(g), tag
    return wf


class TestKernelMatchesWOperator:
    """The component-by-component model against the W operator and whole-program Psi."""

    def test_random_ground_programs(self):
        for seed in range(300):
            assert_matches_oracles(random_ground_program(random.Random(seed)), seed)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture(self, name):
        for g in fixture_programs(name):
            assert_matches_oracles(g, name)

    def test_generated_instances(self):
        gen = InstanceGenerator(random.Random(31))
        for case in range(100):
            session = gen.instance()
            for mode in ("st", "bm"):
                assert_matches_oracles(session.ground(mode), (case, mode))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_chain_family(self, reverse):
        wf = assert_matches_oracles(chain_program(50, reverse))
        assert wf.undefined_count == 0
        assert {str(atom) for atom in wf.true_atoms if atom.predicate.startswith("a")} \
            == {f"a{i}" for i in range(49, -1, -2)}

    @pytest.mark.parametrize("reverse", [False, True])
    def test_long_chain_family(self, reverse):
        # The W oracle is cubic on the chain (over a minute at n = 400), so
        # only the whole-program Psi iteration checks this size.
        g = chain_program(400, reverse)
        wf = well_founded(g)
        assert wf == oracle_psi_iteration(g)
        assert wf.false_atoms == {Atom(f"a{i}") for i in range(400, -1, -2)}

    @pytest.mark.parametrize("text, expected", [
        # A positive loop is unfounded.
        ("a :- b.\nb :- a.\n", "not a. not b."),
        ("a :- a.\nb :- not a.\n", "not a. b."),
        ("a :- not a.\n", "a?"),
        # A choice pair feeding a consequence through both of its atoms.
        ("p :- not q.\nq :- not p.\nr :- p.\nr :- q.\n", "p? q? r?"),
        # Negated edges from higher components into an undefined lower one.
        ("u :- not u.\nh :- not u.\n", "h? u?"),
        ("u :- not u.\nh :- not u, not g.\ng :- not h.\nk :- h, not u.\nt :- not k, u.\n",
         "g? h? k? t? u?"),
        # Facts settle a lower component, which then decides a higher cycle.
        ("f.\np :- not q, f.\nq :- not p, not f.\n", "f. p. not q."),
        # A positive cycle fed by a lower atom, undefined and then true.
        ("u :- not u.\na :- u.\na :- b.\nb :- a.\nc :- not a.\n", "a? b? c? u?"),
        ("f.\na :- f.\na :- b.\nb :- a.\nc :- not a.\n", "a. b. not c. f."),
    ] + [(ring_program(n), " ".join(f"a{i}?" for i in sorted(range(n), key=str)))
         for n in range(2, 7)])
    def test_hand_built_components(self, text, expected):
        assert assert_matches_oracles(ground_of(text)).render_key() == expected

    def test_chain_deeper_than_the_recursion_limit(self):
        # 6,400 links: the component search keeps its own stack.
        wf = well_founded(chain_program(6400))
        assert wf.undefined_count == 0
        assert Atom("a6399") in wf.true_atoms and Atom("a6398") in wf.false_atoms

    def test_iteration_that_is_not_inflationary_is_an_engine_error(self, monkeypatch):
        # A kernel that derives everything in one round and nothing in the
        # next moves a defined atom, which the fixpoint loop must refuse.
        calls = itertools.count()
        monkeypatch.setattr(adlog.stable, "_reach",
                            lambda rules, floors, level: [next(calls) < 2] * rules.size)
        with pytest.raises(EngineError, match="not inflationary"):
            well_founded(ground_of("a :- not a.\n"))


class TestReduct:
    def test_false_negation_becomes_true_floor(self):
        g = ground_of("a :- not b.")
        reduct = gl_reduct(g, interp([a, b], false=[b]))
        (rule,) = [r for r in reduct.rules if r.head == a]
        assert rule.floor is TruthValue.TRUE

    def test_undefined_negation_becomes_undefined_floor(self):
        g = ground_of("a :- not b.")
        reduct = gl_reduct(g, interp([a, b]))
        (rule,) = [r for r in reduct.rules if r.head == a]
        assert rule.floor is TruthValue.UNDEFINED

    def test_join_program_reduct(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        m = interp(g.universe, true=[c], false=[Atom("d")])
        reduct = gl_reduct(g, m)
        floors = {(str(r.head), tuple(map(str, r.positive))): r.floor for r in reduct.rules}
        assert floors[("a", ())] is TruthValue.UNDEFINED
        assert floors[("b", ())] is TruthValue.UNDEFINED
        assert floors[("c", ())] is TruthValue.TRUE      # c :- not d.
        assert floors[("d", ())] is TruthValue.FALSE     # d :- not c.
        assert floors[("c", ("a",))] is TruthValue.TRUE  # positive atom kept


class TestLeast3vModel:
    def test_true_floor(self):
        g = ground_of("a :- not b.")
        m = least_3v_model(gl_reduct(g, interp([a, b], false=[b])))
        assert m.value(a) is TruthValue.TRUE

    def test_undefined_floor(self):
        g = ground_of("a :- not b.")
        m = least_3v_model(gl_reduct(g, interp([a, b])))
        assert m.value(a) is TruthValue.UNDEFINED

    def test_join_program_least_model(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        m = least_3v_model(gl_reduct(g, interp(g.universe, true=[c], false=[Atom("d")])))
        assert m.value(c) is TruthValue.TRUE
        assert m.value(Atom("d")) is TruthValue.FALSE
        assert m.value(a) is TruthValue.UNDEFINED
        assert m.value(b) is TruthValue.UNDEFINED


class TestIsPstable:
    def test_join_program_partial_model(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        assert is_pstable(g, interp(g.universe, true=[c], false=[Atom("d")]))

    def test_unstable_assignment(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        assert not is_pstable(g, interp(g.universe, true=[a], false=[b]))

    def test_matches_reduct_route(self):
        rng = random.Random(13)
        verdicts = set()
        for _ in range(60):
            g = random_ground_program(rng)
            atoms = sorted(g.universe, key=str)
            candidates = list(enumerate_pstable(g).models())
            for _ in range(10):
                values = [rng.choice(list(TruthValue)) for _ in atoms]
                candidates.append(interp(
                    atoms, [x for x, v in zip(atoms, values) if v is TruthValue.TRUE],
                    [x for x, v in zip(atoms, values) if v is TruthValue.FALSE]))
            for m in candidates:
                stable = least_3v_model(gl_reduct(g, m)) == m
                assert is_pstable(g, m) == stable, m.render_key()
                verdicts.add(stable)
        assert verdicts == {True, False}

    def test_atom_without_rules_must_be_false(self):
        g = ground_of("a :- not b.\nb :- not a.")
        universe = g.universe | {c}
        assert is_pstable(g, interp(universe, true=[a], false=[b, c]))
        assert not is_pstable(g, interp(universe, true=[a, c], false=[b]))
        assert not is_pstable(g, interp(universe, true=[a], false=[b]))

    def test_well_founded_is_always_stable(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_ground_program(rng)
            assert is_pstable(g, well_founded(g))


class TestEnumerate:
    def test_single_fact(self):
        family = enumerate_pstable(ground_of("a."))
        assert [m.render_key() for m in family.models()] == ["a."]

    def test_counts_on_fixture_programs(self, fixtures_dir):
        for name, count in (("zoo_choice", 5), ("zoo_join", 4),
                            ("zoo_choice_nofact", 3), ("zoo_chain", 1)):
            g = ground_of((fixtures_dir / f"{name}.adl").read_text())
            assert len(enumerate_pstable(g).records) == count, name

    def test_cap_exceeded(self):
        text = "\n".join(f"p{i} :- not q{i}.\nq{i} :- not p{i}." for i in range(4))
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_pstable(ground_of(text), cap=5)
        assert exc.value.cap == 5

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(5)
        for _ in range(15):
            g = random_ground_program(rng)
            assert list(enumerate_pstable(g).models()) == brute_force_family(g)


class TestEnumerateMatchesProductOracle:
    """The per-component family equals the product over the whole residue."""

    @staticmethod
    def check(g, tag=None):
        assert list(enumerate_pstable(g).models()) == oracle_enumerate(g), tag

    def test_random_ground_programs(self):
        for seed in range(300):
            self.check(random_ground_program(random.Random(seed)), seed)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture(self, name):
        for g in fixture_programs(name):
            self.check(g)

    def test_generated_instances(self):
        gen = InstanceGenerator(random.Random(47))
        for case in range(100):
            session = gen.instance()
            for mode in ("st", "bm"):
                self.check(session.ground(mode), (case, mode))

    @pytest.mark.parametrize("text", [
        pairs_program(3),
        # Two pairs that share a consequence form one component.
        pairs_program(2) + "c :- p0.\nc :- p1.\n",
        # A component next to atoms the well-founded model makes true and false.
        pairs_program(2) + "t.\nr :- p0, t, not f.\nf :- g.\ns :- q1, not t.\n",
        # A rule dead under the well-founded model links nothing.
        pairs_program(2) + "p0 :- p1, f.\nq1 :- not t.\nt.\n",
    ])
    def test_multi_component_programs(self, text):
        g = ground_of(text)
        assert well_founded(g).undefined_count >= 4
        self.check(g)


def count_stable_checks(monkeypatch, text: str, cap: int = 20) -> tuple[int, int]:
    """The number of `_stable` calls and of models when enumerating `text`."""
    calls = []
    monkeypatch.setattr(adlog.stable, "_stable",
                        lambda rules, vals: calls.append(vals) or _stable(rules, vals))
    family = enumerate_pstable(ground_of(text), cap)
    return len(calls), len(family.records)


class TestComponents:
    def test_independent_pairs_are_checked_one_at_a_time(self, monkeypatch):
        # 6 components of 3 search leaves each, instead of 3^12 over the whole residue.
        assert count_stable_checks(monkeypatch, pairs_program(6)) == (18, 3 ** 6)

    def test_shared_consequence_joins_the_pairs(self, monkeypatch):
        text = pairs_program(2) + "c :- p0.\nc :- p1.\n"
        assert count_stable_checks(monkeypatch, text)[0] == 9

    def test_dead_rules_do_not_link(self, monkeypatch):
        # `p0 :- p1, f.` has a false positive body atom and `q1 :- p0, not t.`
        # a true negated one, so the two pairs stay apart.
        text = pairs_program(2) + "p0 :- p1, f.\nq1 :- p0, not t.\nt.\n"
        assert count_stable_checks(monkeypatch, text) == (6, 9)

    def test_defined_atoms_do_not_link(self, monkeypatch):
        text = pairs_program(2) + "t.\np0 :- t.\np0 :- not t, q1.\n"
        # p0 is true in the well-founded model, so the first pair is decided.
        assert well_founded(ground_of(text)).undefined_count == 2
        assert count_stable_checks(monkeypatch, text) == (3, 3)


def guarded_ring_program(n: int) -> str:
    """The ring with `b_i :- not a_i.`: one component of 2n atoms."""
    return ring_program(n) + "".join(f"b{i} :- not a{i}.\n" for i in range(n))


def coupled_pairs_program(m: int) -> str:
    """m choice pairs that all derive `r`: one component of 2m + 1 atoms."""
    return pairs_program(m) + "".join(f"r :- p{i}.\n" for i in range(m))


class TestSearch:
    """`_search` confirms only the parts, and its work grows polynomially on a ring."""

    def test_ring_rounds_grow_linearly(self, monkeypatch):
        # Each Psi round is linear in n, so the whole search is quadratic.
        rounds = []
        monkeypatch.setattr(adlog.stable, "_psi",
                            lambda rules, vals: rounds.append(1) or _psi(rules, vals))
        for n in (10, 40, 160):
            rounds.clear()
            checks, models = count_stable_checks(monkeypatch, guarded_ring_program(n), cap=2 * n)
            assert (checks, models) == (3, 3), n
            assert len(rounds) <= 4 * n, n

    def test_coupled_pairs(self):
        family = enumerate_pstable(ground_of(coupled_pairs_program(8)))
        counts = family.counts()
        assert (counts["models"], counts["m_stable"], counts["max_deterministic"]) \
            == (3 ** 8, 2 ** 8, 1)


class TestComponentsMatchOracle:
    """`_components`, on the live rules `_restrict` keeps, against its own liveness test."""

    @staticmethod
    def check(g, tag=None):
        vals, _ = _well_founded(g)
        assert _components(g, vals) == oracle_components(g, vals), tag

    def test_random_ground_programs(self):
        for seed in range(2000):
            self.check(random_ground_program(random.Random(seed)), seed)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture(self, name):
        for g in fixture_programs(name):
            self.check(g, name)


def listed(rules):
    """A kernel view as plain lists, so rules kept as tuples and as lists compare."""
    return (rules.size, list(rules.heads), [list(body) for body in rules.pos],
            [list(neg) for neg in rules.negs], list(rules.base))


def test_each_component_gets_its_own_restriction():
    # The rules `_components` splits out of the residue's one restriction are
    # those `_restrict` builds for the component alone, rule for rule.
    for seed in range(600):
        g = random_ground_program(random.Random(seed))
        vals, _ = _well_founded(g)
        for component in _components(g, vals):
            assert listed(component.rules) == listed(_restrict(g, component, vals)), seed


def count_searches(monkeypatch) -> list:
    """Replace `_search` by a wrapper that notes each call in the returned list."""
    calls: list = []
    search = adlog.stable._search
    monkeypatch.setattr(adlog.stable, "_search", lambda rules: calls.append(1) or search(rules))
    return calls


class TestSolvedMemo:
    """A `solved` memo shared across programs changes no family: not its components, their
    parts' order, their flags (records compare with their flags) or its counts."""

    def test_shared_across_random_fixture_and_ring_programs(self, monkeypatch):
        programs = [(random_ground_program(random.Random(seed)), seed) for seed in range(1500)]
        programs += [(g, name) for name in FIXTURE_NAMES for g in fixture_programs(name)]
        programs += [(ground_of(ring_program(n)), n) for n in range(2, 7)]
        searches = count_searches(monkeypatch)
        solved: dict = {}
        with_memo = 0
        for g, tag in programs:
            expected = enumerate_pstable(g, cap=64)
            before = len(searches)
            family = enumerate_pstable(g, cap=64, solved=solved)
            with_memo += len(searches) - before
            assert family == expected, tag
            assert family.counts() == expected.counts(), tag
        # Each entry came from a search, and the memo saved some of them.
        assert 0 < len(solved) <= with_memo < len(searches) - with_memo

    def test_part_order_follows_each_components_own_atoms(self, monkeypatch):
        # One rule structure three times; `a.` sorts before `not a.`, but `not p.`
        # before `p.`, so a/b orders its parts otherwise than p/q and r/s.
        g = ground_of("a :- not b.\nb :- not a.\np :- not q.\nq :- not p.\n"
                      "r :- not s.\ns :- not r.\n")
        searches = count_searches(monkeypatch)
        solved: dict = {}
        family = enumerate_pstable(g, solved=solved)
        assert [[part.model.render_key() for part in parts] for parts in family.components] == [
            ["a. not b.", "a? b?", "not a. b."],
            ["not p. q.", "p. not q.", "p? q?"],
            ["not r. s.", "r. not s.", "r? s?"]]
        assert (len(searches), len(solved)) == (2, 2)
        assert family == enumerate_pstable(g)

    def test_memo_keeps_no_more_than_its_bound(self):
        solved: dict = {}
        enumerate_pstable(ground_of(pairs_program(1)), solved=solved)
        counts = enumerate_pstable(ground_of(coupled_pairs_program(8)), solved=solved).counts()
        assert (counts["models"], counts["m_stable"], counts["max_deterministic"]) \
            == (3 ** 8, 2 ** 8, 1)
        # 6,561 parts of 17 atoms pass the bound, so only the pair's 3 parts of 2 stay.
        assert sum(len(values) * len(values[0]) for values, *_ in solved.values()) == 6
        assert adlog.stable._SOLVED_BOUND == 65_536

    def test_oldest_entries_leave_first(self, monkeypatch):
        monkeypatch.setattr(adlog.stable, "_SOLVED_BOUND", 12)
        solved: dict = {}
        for text in ("a :- not b.\nb :- not a.\n", "p :- not q.\nq :- not p.\n",
                     "a :- not a.\n", coupled_pairs_program(2), "p :- not p.\n"):
            enumerate_pstable(ground_of(text), solved=solved)
        # 6 + 6 values, then 1 more pushes out the first pair; coupled m = 2, 9
        # parts of 5 atoms, passes the bound and is never kept; the last 1 fits.
        kept = [(len(values), len(values[0]), span) for values, _, span in solved.values()]
        assert kept == [(3, 2, range(6, 12)), (1, 1, range(12, 13)), (1, 1, range(13, 14))]

    def test_threads_sharing_one_memo(self, monkeypatch):
        # A small bound makes every thread push entries out while others keep and read.
        monkeypatch.setattr(adlog.stable, "_SOLVED_BOUND", 40)
        programs = [random_ground_program(random.Random(seed)) for seed in range(200)]
        expected = [enumerate_pstable(g, cap=64) for g in programs]
        solved: dict = {}
        failures: list = []
        start = threading.Barrier(4)

        def work(t: int) -> None:
            start.wait()
            order = list(range(len(programs))) * 20
            random.Random(t).shuffle(order)
            for i in order:
                try:
                    if enumerate_pstable(programs[i], cap=64, solved=solved) != expected[i]:
                        failures.append(i)
                except Exception as exc:          # such as a dict changed while iterated
                    failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # Each entry's span starts where the one before it ends, and all fit the bound.
        spans = [span for _, _, span in solved.values()]
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        assert spans and spans[-1].stop - spans[0].start <= 40


class TestRanks:
    """`_ranks` is each value's rank among the atom's sorted `render_token`s."""

    @staticmethod
    def sorted_ranks(text: str) -> tuple[int, ...]:
        tokens = [render_token(text, value) for value in TruthValue]
        return tuple(sorted(tokens).index(token) for token in tokens)

    def test_fixture_and_quoted_atoms(self):
        atoms = {atom for name in FIXTURE_NAMES for g in fixture_programs(name)
                 for atom in g.atoms}
        quoted = parse_program((pathlib.Path(__file__).resolve().parent / "golden" /
                                "quoted_constants.adl").read_text())
        atoms |= {lit.atom for rule in quoted.rules for lit in rule.body
                  if hasattr(lit, "atom")} | {rule.head_atom() for rule in quoted.rules}
        ranks = {str(atom): _ranks(str(atom)) for atom in atoms}
        assert ranks == {text: self.sorted_ranks(text) for text in ranks}
        assert set(ranks.values()) == {(0, 2, 1), (2, 1, 0)}

    def test_names_that_start_with_not(self):
        names = ["n", "no", "not", "not_", "nota", "notnot", "nos", "nou", "noz", "nt", "o"]
        texts = [str(Atom(name, args)) for name in names
                 for args in ((), ("not",), ("x y",), ("not x",), ("a.b",), ("?",))]
        # And every string of up to five characters around the tokens' boundaries.
        alphabet = "not .?/>A"
        texts += ["".join(chars) for k in range(6) for chars in itertools.product(alphabet,
                                                                                  repeat=k)]
        assert all(_ranks(text) == self.sorted_ranks(text) for text in texts)


class TestClassify:
    def test_well_founded_is_intersection_and_subset_of_all(self, fixtures_dir):
        for name in ("zoo_choice", "zoo_join", "zoo_choice_nofact"):
            g = ground_of((fixtures_dir / f"{name}.adl").read_text())
            family = enumerate_pstable(g)
            wf = well_founded(g)
            for record in family.records:
                assert wf.issubset(record.model)
            sets = [m.literal_set() for m in family.models()]
            assert frozenset.intersection(*sets) == wf.literal_set()

    def test_t_stable_models_are_total_and_their_reducts_two_valued(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        for record in enumerate_pstable(g).with_flag(FLAG_T_STABLE):
            assert record.model.is_total
            least = least_3v_model(gl_reduct(g, record.model))
            assert least.undefined_count == 0

    def test_l_equals_t_when_totals_exist(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(40):
            g = random_ground_program(rng)
            family = enumerate_pstable(g)
            totals = family.with_flag(FLAG_T_STABLE)
            if totals:
                checked += 1
                assert set(family.with_flag(FLAG_L_STABLE)) == set(totals)
        assert checked > 5

    def test_m_stable_maximality(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_choice.adl").read_text())
        family = enumerate_pstable(g)
        maximal = {r.model.render_key() for r in family.with_flag(FLAG_M_STABLE)}
        assert maximal == {
            "a. b. not c. d? e? p? q?",
            "a. not b. c. not d. e. not p. q?",
            "a. not b. c. d. not e. not p. not q.",
        }


class TestMaxDeterministic:
    def test_join_program(self, fixtures_dir):
        g = ground_of((fixtures_dir / "zoo_join.adl").read_text())
        md = max_deterministic(g)
        assert md.true_atoms == {c}
        assert md.false_atoms == {Atom("d")}

    def test_unique_model_program(self):
        md = max_deterministic(ground_of("a."))
        assert md.true_atoms == {a}

    def test_rewritten_choice_update_program(self):
        up, _ = load_update_program("new_hire_roles")
        g = ground(embed_database(rewrite_st(up), Database()))
        md = max_deterministic(g)
        arg = ("a",)
        assert md.value(Atom("@plus_worker", arg)) is TruthValue.TRUE
        assert md.value(Atom("@plus_emp", arg)) is TruthValue.UNDEFINED
        assert md.value(Atom("@plus_mgr", arg)) is TruthValue.UNDEFINED
        assert md.value(Atom("@plus_noworker", arg)) is TruthValue.FALSE
