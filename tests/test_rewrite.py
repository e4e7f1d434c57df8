import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from adlog import (Atom, BuiltinLiteral, Database, DeltaSet,
                   GroundProgram, Polarity, Program, Rule, StdLiteral,
                   UpdateAtom, UpdateProgram, UpdLiteral, ValidationError,
                   Variable, embed_database, enumerate_pstable, ground,
                   parse_database, parse_program, render, rewrite_bm,
                   rewrite_st)
from adlog.rewrite import (bridge_predicate, delta_marker_predicate,
                           guard_predicate, renamed_update_predicate)
from adlog.selftest import InstanceGenerator

from conftest import FIXTURES, load_update_program

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Embedding this fact brings the constant zz, used nowhere else, into the
# active domain.
PAD = parse_database("pad(zz).")


class TestEmbedDatabase:
    def test_true_facts_become_facts(self):
        program = parse_program("q(X) :- p(X).")
        db = parse_database("p(a). p(b).")
        embedded = embed_database(program, db)
        assert Rule(Atom("p", ("a",))) in embedded.rules
        assert len(embedded.rules) == 3

    def test_unknown_fact_becomes_self_negating_rule(self):
        db = parse_database("emp(a)?")
        embedded = embed_database(Program(), db)
        (rule,) = embedded.rules
        assert str(rule) == "emp(a) :- not emp(a)."

    def test_empty_database_is_identity(self):
        program = parse_program("p(a).")
        assert embed_database(program, Database()) == program


class TestRewriteSt:
    def test_cascade_matches_golden(self, fixtures_dir):
        up, _ = load_update_program("project_cascade")
        golden = (fixtures_dir / "golden" / "project_cascade_rewrite.adl").read_text()
        assert render(rewrite_st(up)) == golden

    def test_every_action_rule_has_one_guard(self):
        up, _ = load_update_program("project_cascade")
        std = rewrite_st(up)
        for rule in std.rules:
            if rule.head.predicate.startswith(("@plus_", "@minus_")):
                guards = [lit for lit in rule.body
                          if lit.atom.predicate.startswith("@ck_")]
                assert len(guards) == 1
                assert not guards[0].positive
                assert guards[0].atom.args == rule.head.args

    def test_guard_definitions_cover_exactly_the_action_predicates(self):
        up, _ = load_update_program("promotion")
        std = rewrite_st(up)
        defined = {r.head.predicate[len("@ck_"):] for r in std.rules
                   if r.head.predicate.startswith("@ck_") }
        assert defined == set(up.program.action_predicates())

    def test_renamed_updates_only_in_bridge_and_guard_bodies(self):
        # Outside rule heads, @plus_/@minus_ atoms may appear only inside the
        # bodies of bridge and guard definitions; user-rule bodies see bridges.
        for name in ("project_cascade", "confirm_manager", "new_hire_roles"):
            up, _ = load_update_program(name)
            std = rewrite_st(up)
            for rule in std.rules:
                for lit in rule.body:
                    if isinstance(lit, StdLiteral) and \
                            lit.atom.predicate.startswith(("@plus_", "@minus_")):
                        assert rule.head.predicate.startswith(
                            ("@ck_", "@insb_", "@delb_")), str(rule)

    def test_bridging_applies_under_negation(self):
        up, _ = load_update_program("confirm_manager")
        std = rewrite_st(up)
        negated = [lit for rule in std.rules for lit in rule.body
                   if not lit.positive and lit.atom.predicate == "@insb_mgr"]
        assert negated, "negated update literal was not routed through its bridge"

    def test_delta_markers_become_facts(self):
        up, _ = load_update_program("confirm_manager")
        std = rewrite_st(up)
        assert Rule(Atom("@ins_confirm", ("x", "d"))) in std.rules

    def test_update_free_program_gets_no_bridges_or_markers(self):
        program = parse_program("+p(X) :- q(X).\nr(X) :- q(X).")
        std = rewrite_st(UpdateProgram(DeltaSet(), program))
        predicates = {r.head.predicate for r in std.rules}
        assert predicates == {"@plus_p", "r", "@ck_p"}

    def test_provenance_kinds(self):
        # A generated predicate's kind is its reserved prefix; the naming
        # functions define the prefixes, and the other predicates are the user's.
        up, _ = load_update_program("project_cascade")
        predicates = {atom.predicate for rule in rewrite_st(up).rules
                      for atom in (rule.head, *(lit.atom for lit in rule.body
                                                if isinstance(lit, StdLiteral)))}
        assert guard_predicate("mgr") == "@ck_mgr" and "@ck_mgr" in predicates
        assert delta_marker_predicate(Polarity.DELETE, "proj") == "@del_proj"
        assert "@del_proj" in predicates
        assert bridge_predicate(Polarity.DELETE, "proj") == "@delb_proj"
        assert "@delb_proj" in predicates
        assert renamed_update_predicate(Polarity.INSERT, "mgr") == "@plus_mgr"
        assert "@plus_mgr" in predicates
        user = {p for p in predicates if not p.startswith("@")}
        assert user == set(up.program.cache["arities"]) == {"diff_mgr", "mgr", "proj"}


class TestRewriteBm:
    @pytest.mark.parametrize("name", ["project_cascade", "confirm_manager"])
    def test_matches_golden(self, name):
        up, _ = load_update_program(name)
        assert render(rewrite_bm(up)) == (GOLDEN / f"rewrite_bm_{name}.adl").read_text()

    def test_confirm_manager_core_rules(self):
        up, _ = load_update_program("confirm_manager")
        text = render(rewrite_bm(up))
        assert "@plus_mgr(X,D) :- @plus_confirm(X,D), not @minus_mgr(X,D)." in text
        assert "@minus_mgr(X,D) :- mgr(X,D), not @plus_mgr(X,D), @plus_confirm(Y,D)." in text
        assert "@plus_confirm(x,d) :- not @minus_confirm(x,d)." in text

    def test_insertions_feed_the_base_relation(self):
        up, _ = load_update_program("confirm_manager")
        text = render(rewrite_bm(up))
        assert "mgr(X1,X2) :- @plus_mgr(X1,X2)." in text

    def test_existing_complement_guard_is_not_duplicated(self):
        up, _ = load_update_program("confirm_manager")
        std = rewrite_bm(up)
        for rule in std.rules:
            assert len(set(rule.body)) == len(rule.body), str(rule)

    def test_cascade_guards_and_delta_rule(self):
        up, _ = load_update_program("project_cascade")
        text = render(rewrite_bm(up))
        assert "@minus_proj(p) :- not @plus_proj(p)." in text
        assert ("@minus_mgr(X,P,D) :- @delb_proj(P)") not in text  # no bridges in this mode
        assert "@plus_mgr(X,P,D) :- @minus_mgr(X,P,D), not diff_mgr(X,D), " \
               "not @minus_mgr(X,P,D)." in text

    def test_pure_deductive_program_is_unchanged(self):
        program = parse_program("q(X) :- p(X), not r(X).")
        assert rewrite_bm(UpdateProgram(DeltaSet(), program)) == program


class TestGround:
    def test_false_neq_instances_are_dropped(self):
        program = parse_program("diff(X,D) :- mgr(Y,P,D), Y != X.")
        db_rules = parse_program("mgr(x,p,d).", validate=False)
        merged = Program(program.rules + db_rules.rules)
        rules = {str(r) for r in ground(merged).rules}
        assert "diff(x,d) :- mgr(x,p,d)." not in rules  # x != x is false
        assert "diff(p,d) :- mgr(x,p,d)." in rules
        # A variable-free rule is kept exactly when its builtins hold.
        program = parse_program("p :- a = b.\nq :- a = a.\nr :- a != b.\ns :- a != a.\nt :- p.")
        assert [str(r) for r in ground(program).rules] == ["q.", "r."]

    def test_propositional_program_grounds_to_itself(self, fixtures_dir):
        program = parse_program((fixtures_dir / "zoo_join.adl").read_text())
        g = ground(program)
        assert frozenset(g.rules) == frozenset(program.rules)

    def test_two_instances_for_two_constants(self):
        program = parse_program("p(X) :- q(X).\nq(a).\nq(b).")
        g = ground(program)
        p_rules = [r for r in g.rules if r.head.predicate == "p"]
        assert len(p_rules) == 2

    def test_builtin_literals_are_eliminated(self):
        program = parse_program("p(X) :- q(X), X != a.\nq(a).\nq(b).")
        g = ground(program)
        (p_rule,) = [r for r in g.rules if r.head.predicate == "p"]
        assert str(p_rule) == "p(b) :- q(b)."

    def test_pruning_keeps_stable_models_on_derivable_atoms(self, fixtures_dir):
        for name in ("zoo_choice_nofact", "zoo_join", "zoo_chain"):
            program = parse_program((fixtures_dir / f"{name}.adl").read_text())
            full = enumerate_pstable(product_ground(program))
            pruned = enumerate_pstable(ground(program))
            kept = ground(program).universe
            full_restricted = sorted(
                frozenset((a, v) for a, v in m.literal_set() if a in kept)
                | frozenset((a, "?") for a in m.undefined_atoms() if a in kept)
                for m in full.models())
            pruned_view = sorted(
                frozenset(m.literal_set())
                | frozenset((a, "?") for a in m.undefined_atoms())
                for m in pruned.models())
            assert full_restricted == pruned_view, name

    def test_unused_constant_changes_nothing_after_pruning(self):
        up, _ = load_update_program("new_hire_worker")
        base = ground(embed_database(rewrite_st(up), Database()))
        extended = ground(embed_database(rewrite_st(up), PAD))
        base_family = enumerate_pstable(base)
        extended_family = enumerate_pstable(extended)
        original = base.universe
        restricted = sorted(
            frozenset((a, v) for a, v in m.literal_set() if a in original)
            for m in extended_family.models())
        assert restricted == sorted(frozenset(m.literal_set())
                                    for m in base_family.models())

    @pytest.mark.parametrize("rewriting", [rewrite_st, rewrite_bm])
    def test_grounding_builds_no_rule(self, rewriting, monkeypatch):
        up, db = load_update_program("project_cascade", db=True)
        program = embed_database(rewriting(up), db)
        built = [0]
        init = Rule.__init__

        def counting_init(rule, *args, **kwargs):
            built[0] += 1
            init(rule, *args, **kwargs)

        monkeypatch.setattr(Rule, "__init__", counting_init)
        g = ground(program)
        assert built == [0]
        # The rules are built on first read, one per kept rule, and kept.
        rules = g.rules
        assert built == [len(rules)] and len(rules) > 0
        assert g.rules is rules and built == [len(rules)]

    def test_reading_atoms_builds_no_atom(self, monkeypatch):
        """The atoms of variable-free rules are reused, by `ground` and the constructor."""
        program = parse_program("a(n0) :- not a(n1).\nb(n0) :- b(n1), not a(n0).\n"
                                "b(n1).\na(n1) :- b(n0).\nc('x y') :- b(n1), 'x y' != z.")
        tables = [ground(program), GroundProgram(ground(program).rules)]
        built = [0]
        init = Atom.__init__

        def counting_init(atom, *args, **kwargs):
            built[0] += 1
            init(atom, *args, **kwargs)

        monkeypatch.setattr(Atom, "__init__", counting_init)
        assert [len(table.atoms) for table in tables] == [5, 5]
        assert built == [0]
        monkeypatch.undo()
        assert tables[0].atoms == tables[1].atoms
        assert sorted(map(str, tables[0].atoms)) == ["a(n0)", "a(n1)", "b(n0)", "b(n1)",
                                                     "c('x y')"]

    def test_ground_program_has_no_variables_or_builtins(self):
        up, _ = load_update_program("project_cascade", db=True)
        g = ground(embed_database(rewrite_st(up),
                                  parse_database("proj(p). mgr(x,p,d).")))
        for rule in g.rules:
            assert not rule.variables()


class TestGroundProgram:
    def test_atoms_are_numbered_by_first_appearance(self):
        g = GroundProgram(parse_program("p :- q, not r.\nq.\nr :- not p.").rules)
        assert [str(atom) for atom in g.atoms] == ["p", "q", "r"]
        assert g.heads == [0, 1, 2]
        assert g.pos == [[1], [], []] and g.negs == [[2], [], [0]]
        assert g.defs == [[0], [1], [2]]
        assert g.universe == frozenset(g.atoms)

    def test_a_rule_equal_to_an_earlier_one_is_dropped(self):
        text = "p :- q, not r.\nq.\np :- q, not r.\np :- not r, q.\nq.\n"
        g = GroundProgram(parse_program(text, validate=False).rules)
        assert [str(rule) for rule in g.rules] == ["p :- q, not r.", "q.", "p :- not r, q."]
        assert g.heads == [0, 1, 0] and g.defs == [[0, 2], [1], []]

    def test_non_ground_atom_is_rejected(self):
        with pytest.raises(ValidationError, match=r"p\(X\) .* not a ground atom"):
            GroundProgram(parse_program("p(X) :- q(X).").rules)

    def test_update_head_is_rejected(self):
        head = UpdateAtom(Polarity.INSERT, Atom("p", ("a",)))
        with pytest.raises(ValidationError, match=r"\+p\(a\) .* not a ground atom"):
            GroundProgram((Rule(head, ()),))

    def test_builtin_body_literal_is_rejected(self):
        rule = Rule(Atom("p"), (BuiltinLiteral("=", "a", "a"),))
        with pytest.raises(ValidationError, match="not an atom"):
            GroundProgram((rule,))

    def test_update_body_literal_is_rejected(self):
        rule = Rule(Atom("p"), (UpdLiteral(UpdateAtom(Polarity.DELETE, Atom("q"))),))
        with pytest.raises(ValidationError, match="not an atom"):
            GroundProgram((rule,))


# --- relevance grounder against the product-plus-pruning oracle -------------

def _variables(rule: Rule) -> list[Variable]:
    return sorted(rule.variables(), key=lambda v: v.name)


def _instantiate(rule: Rule, binding) -> Rule | None:
    """The instance of `rule` under `binding`, builtins evaluated away, or None if one is false."""
    def sub(term):
        return binding.get(term, term) if isinstance(term, Variable) else term

    def instance(atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(map(sub, atom.args)))

    body: list[StdLiteral] = []
    for lit in rule.body:
        if isinstance(lit, BuiltinLiteral):
            if not BuiltinLiteral(lit.op, sub(lit.left), sub(lit.right)).evaluate():
                return None
            continue
        body.append(StdLiteral(instance(lit.atom), lit.positive))
    return Rule(instance(rule.head), tuple(body), rule.origin)


def _ground_all(rules, constants: list[str]) -> list[Rule]:
    """Every instance over the active domain, in product order."""
    out: list[Rule] = []
    for rule in rules:
        variables = _variables(rule)
        if variables and not constants:
            continue
        for combo in itertools.product(constants, repeat=len(variables)):
            instance = _instantiate(rule, dict(zip(variables, combo)))
            if instance is not None:
                out.append(instance)
    return out


def product_ground(program: Program) -> GroundProgram:
    """Every rule instance over the whole active domain."""
    return GroundProgram(tuple(dict.fromkeys(_ground_all(program.rules,
                                                         sorted(program.constants())))))


def _prune_underivable(rules: list[Rule]) -> list[Rule]:
    derivable: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head in derivable:
                continue
            if all(lit.atom in derivable for lit in rule.body if lit.positive):
                derivable.add(rule.head)
                changed = True
    return [r for r in rules
            if all(lit.atom in derivable for lit in r.body if lit.positive)]


def oracle_ground(program: Program) -> GroundProgram:
    """Every active-domain instance, then the instances with underivable positive atoms dropped."""
    return GroundProgram(tuple(_prune_underivable(list(product_ground(program).rules))))


def assert_same_grounding(program: Program) -> None:
    fast = ground(program)
    slow = oracle_ground(program)
    assert frozenset(fast.rules) == frozenset(slow.rules)
    assert len(fast.rules) == len(slow.rules)
    assert fast.universe == slow.universe
    # The grounder's table numbers the atoms as the constructor does on its rules.
    assert fast.atoms == GroundProgram(fast.rules).atoms


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.adl"))


class TestRelevanceGrounder:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("rewriting", [rewrite_st, rewrite_bm])
    @pytest.mark.parametrize("extra", [Database(), PAD])
    def test_fixture_matches_oracle(self, name, rewriting, extra):
        up, db = load_update_program(name, db=(FIXTURES / f"{name}.adb").exists(),
                                     delta=(FIXTURES / f"{name}.adu").exists())
        assert_same_grounding(embed_database(embed_database(rewriting(up), db), extra))

    def test_random_candidates_match_oracle(self):
        gen = InstanceGenerator(random.Random(2024))
        for _ in range(300):
            up, db = gen._candidate()
            for rewriting in (rewrite_st, rewrite_bm):
                assert_same_grounding(embed_database(rewriting(up), db))

    @pytest.mark.parametrize("text", [
        "q(X) :- p(X,X).\np(a,a).\np(a,b).",                   # repeated variable
        "q(X) :- p(X,b).\np(a,b).\np(c,d).",                   # constant in a body atom
        "q(X,Y) :- p(X).\np(a).\nr(b).",                      # head-only variable
        "q(X) :- p(X), Y != X.\np(a).\np(b).\nr(c).",          # builtin-only variable
        "q(X) :- not p(X).\nr :- not s.\np(a).",              # no positive literal
        "q(X) :- p(X).\na :- b.\nb.",                        # empty constant set
        "t(X,Z) :- e(X,Y), t(Y,Z).\nt(X,Y) :- e(X,Y).\n"
        "s(X,Z) :- e(X,Y), e(Y,Z), X != Z.\ne(a,b).\ne(b,c).\ne(c,a).",  # recursion, self-join
        "p :- a = b.\nq :- a = a.\nr :- a != b.\ns :- a != a.\nt :- p.",  # variable-free builtins
    ])
    def test_edge_case_matches_oracle(self, text):
        program = parse_program(text, validate=False)
        assert_same_grounding(program)
        assert_same_grounding(embed_database(program, PAD))

    def test_update_atoms_are_rejected(self):
        program = parse_program("+p(X) :- q(X).\nq(a).")
        with pytest.raises(ValidationError):
            ground(program)

    def test_rule_order_does_not_depend_on_hash_seed(self):
        script = (
            "from pathlib import Path\n"
            "from adlog import (DeltaSet, UpdateProgram, embed_database, ground,\n"
            "                   parse_database, parse_delta, parse_program, rewrite_st)\n"
            f"base = Path({str(FIXTURES / 'project_cascade')!r})\n"
            "up = UpdateProgram(parse_delta(base.with_suffix('.adu').read_text()),\n"
            "                   parse_program(base.with_suffix('.adl').read_text()))\n"
            "db = parse_database(base.with_suffix('.adb').read_text())\n"
            "for rule in ground(embed_database(rewrite_st(up), db)).rules:\n"
            "    print(rule)\n")
        src = str(FIXTURES.parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

        def rules(hash_seed: str) -> list[str]:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            return subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, check=True, env=env).stdout.splitlines()

        first = rules("1")
        assert first and first == rules("2")
