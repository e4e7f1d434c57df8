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
                   parse_database, parse_delta, parse_program, render, rewrite_bm,
                   rewrite_st)
from adlog.parse import _program_of
import adlog.rewrite
from adlog.rewrite import (_maker, _prepare, _Waiting, bridge_predicate,
                           delta_marker_predicate, guard_predicate, renamed_update_predicate)
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
        db_rules = _program_of("mgr(x,p,d).", "<string>")
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
        assert list(g._rules) == [(0, 1, ~2), (1,), (2, ~0)]
        assert list(g._index) == [("p", ()), ("q", ()), ("r", ())]
        assert g.universe == frozenset(g.atoms)

    def test_a_rule_equal_to_an_earlier_one_is_dropped(self):
        text = "p :- q, not r.\nq.\np :- q, not r.\np :- not r, q.\nq.\n"
        g = GroundProgram(_program_of(text, "<string>").rules)
        assert [str(rule) for rule in g.rules] == ["p :- q, not r.", "q.", "p :- not r, q."]
        assert list(g._rules) == [(0, 1, ~2), (1,), (0, ~2, 1)]

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


# --- compiled plans against the interpretive grounder -----------------------
#
# `ground` runs each plan and each trigger as compiled code (`rewrite._emitter`,
# `rewrite._joiner`).  The interpreter that it replaced is the oracle here:
# `_match` and `_join` walk a trigger's join steps, `emit` a plan's free
# slots, tests and atoms, numbered through `GroundProgram._add`.

def _match(step, args: tuple, binding) -> list | None:
    """Extend `binding` so that the step's literal equals `args`, or None."""
    out = list(binding)
    for i, slot in step.unbound:
        if out[slot] is None:
            out[slot] = args[i]
        elif out[slot] != args[i]:
            return None
    return out


def _join(steps, binding: list, index: tuple, pivot: tuple):
    if not steps:
        yield binding
        return
    step, (facts, lookups) = steps[0], index
    key = tuple([binding[k] for k in step.key])
    if not step.unbound:
        candidates = (key,) if key in facts[step.predicate] else ()
    else:
        candidates = lookups[step.predicate][step.positions].get(key, ()) \
            if step.positions else facts[step.predicate]
    for args in candidates:
        if step.exclude_pivot and args == pivot:
            continue
        extended = _match(step, args, binding)
        if extended is not None:
            yield from _join(steps[1:], extended, index, pivot)


def interpreted_instantiate(out: GroundProgram, runs, given=(), record=None) -> tuple:
    """`rewrite._instantiate` with every plan and trigger interpreted, not compiled."""
    for run in runs:
        out._known.update(run.atoms)
    # An atom fires the prepared run's triggers, then the insertion runs', per predicate
    # and then per key.
    prepared, insertions = runs[0].triggers, [run.triggers for run in runs[1:] if run.triggers]
    fired = lambda key: [t for run in [prepared, *insertions] for t in run.get(key, ())]
    missing, derived, queue, constants = {}, set(), list(given), []

    def add(head: tuple, body, origin) -> None:
        h = out._add(head, body, origin)
        if h not in derived:
            derived.add(h)
            queue.append(head)

    def emit(plan, binding: list) -> None:
        if plan.free and not constants:
            constants.extend(sorted(frozenset().union(*[run.constants for run in runs])))
        for values in itertools.product(constants, repeat=len(plan.free)):
            for slot, value in zip(plan.free, values):
                binding[slot] = value
            for left, right, equal in plan.tests:
                if (binding[left] == binding[right]) != equal:
                    break
            else:
                add((plan.head[0], tuple([binding[i] for i in plan.head[1]])),
                    [((p, tuple([binding[i] for i in args])), positive)
                     for p, args, positive in plan.body], plan.origin)

    if record is not None:
        add = lambda *instance: record.append(_Waiting(*instance, 0))
        emit = lambda plan, binding: record.append((plan, tuple(binding[:plan.size])))
    static = runs[0].static
    for seed in itertools.chain(*[run.seeds for run in runs], static.replay if static else ()):
        if isinstance(seed, _Waiting):
            add(seed.head, seed.body, seed.origin)
        else:
            plan, row = seed
            emit(plan, list(row) + list(plan.row[plan.size:]))
    facts, lookups = {}, {}
    for predicate, positions in itertools.chain(*[run.lookups for run in runs]):
        facts.setdefault(predicate, {})
        if positions:
            lookups.setdefault(predicate, {}).setdefault(positions, {})
    if static:
        facts.update(static.facts)
        lookups.update(static.lookups)
    for key in queue:
        predicate, args = key
        if predicate in facts:
            facts[predicate][args] = None
            for positions, table in lookups.get(predicate, {}).items():
                table.setdefault(tuple(args[i] for i in positions), []).append(args)
        for trigger in fired(predicate) + fired(key):
            if isinstance(trigger, _Waiting):
                left = missing[id(trigger)] = missing.get(id(trigger), trigger.count) - 1
                if not left:
                    add(trigger.head, trigger.body, trigger.origin)
                continue
            pivot, row = trigger.pivot, trigger.plan.row
            if any(args[i] != row[k] for i, k in zip(pivot.positions, pivot.key)):
                continue
            start = _match(pivot, args, row)
            if start is None:
                continue
            for binding in _join(trigger.others, start, (facts, lookups), args):
                emit(trigger.plan, binding)
    return queue, missing, (facts, lookups)


class Tries(dict):
    """A table's `_rules` that counts each rule that tries to enter, a copy included."""

    tries = 0

    def setdefault(self, numbers: tuple, origin):
        self.tries += 1
        return super().setdefault(numbers, origin)


def grounded(program_of, instantiate) -> GroundProgram:
    """`ground(program_of())` through `instantiate`, each table's `_rules` a `Tries`."""
    init = GroundProgram.__init__

    def counting_init(table, rules=()):
        init(table, rules)
        table._rules = Tries(table._rules)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GroundProgram, "__init__", counting_init)
        patch.setattr(adlog.rewrite, "_instantiate", instantiate)
        return ground(program_of())


def assert_same_order(program_of) -> None:
    """`program_of()` builds a fresh program: ground, it gives the interpreter's table.  Every
    rule comes with its origin and in the same order, as often, and every atom with the same
    number, in the table and in its kept prefix (phase 1, and each plan it replays) alike."""
    compiled = grounded(program_of, adlog.rewrite._instantiate)
    interpreted = grounded(program_of, interpreted_instantiate)
    assert (compiled.prefix is None) == (interpreted.prefix is None)
    for mine, theirs in ((compiled, interpreted), (compiled.prefix, interpreted.prefix)):
        if mine is not None:
            assert list(mine._rules.items()) == list(theirs._rules.items())
            assert mine._rules.tries == theirs._rules.tries
            assert list(mine._index.items()) == list(theirs._index.items())


def cold(up: UpdateProgram) -> UpdateProgram:
    return UpdateProgram(up.delta, Program(up.program.rules))


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.adl"))

EDGE_CASES = [
    "q(X) :- p(X,X).\np(a,a).\np(a,b).",                   # repeated variable
    "q(X) :- p(X,b).\np(a,b).\np(c,d).",                   # constant in a body atom
    "q(X,Y) :- p(X).\np(a).\nr(b).",                      # head-only variable
    "q(X,c) :- p(a).\np(a).\nr(b).",                      # head-only variable beside a constant
    "q(X) :- p(X), Y != X.\np(a).\np(b).\nr(c).",          # builtin-only variable
    "q(X,Y) :- p(X), X = Y.\np(a).\np(b).\nr(c).",         # an `=` test binds a free variable
    "q(X,Y,Z) :- p(X), not r(Z,Y), Y != X.\np(a).\nr(b,c).",  # two free variables
    "q(X) :- not p(X).\nr :- not s.\np(a).",              # no positive literal
    "q(X) :- p(X).\na :- b.\nb.",                        # empty constant set
    "t(X,Z) :- e(X,Y), t(Y,Z).\nt(X,Y) :- e(X,Y).\n"
    "s(X,Z) :- e(X,Y), e(Y,Z), X != Z.\ne(a,b).\ne(b,c).\ne(c,a).",  # recursion, self-join
    "r(X,Y) :- e(X,Y), e(Y,X).\ne(a,b).\ne(b,a).\ne(c,c).",  # a self-join skips its pivot
    "r(X,Y) :- e(X), e(Y).\ne(a).\ne(b).",                  # in a scan too
    "p :- a = b.\nq :- a = a.\nr :- a != b.\ns :- a != a.\nt :- p.",  # variable-free builtins
    # Phase 1 grounds `a` and `b`; what `a` completes alone is a plan, replayed per call.
    "b(n0) :- b(n1).\nb(n1).\na(X) :- b(X).\nq(X,Y) :- a(X), not s(Y).\ns(c).",
]


class TestRelevanceGrounder:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("rewriting", [rewrite_st, rewrite_bm])
    @pytest.mark.parametrize("extra", [Database(), PAD])
    def test_fixture_matches_oracle(self, name, rewriting, extra):
        up, db = load_update_program(name, db=(FIXTURES / f"{name}.adb").exists(),
                                     delta=(FIXTURES / f"{name}.adu").exists())
        assert_same_grounding(embed_database(embed_database(rewriting(up), db), extra))
        assert_same_order(lambda: embed_database(embed_database(rewriting(cold(up)), db), extra))

    def test_random_candidates_match_oracle(self):
        gen = InstanceGenerator(random.Random(2024))
        for _ in range(300):
            up, db = gen._candidate()
            for rewriting in (rewrite_st, rewrite_bm):
                assert_same_grounding(embed_database(rewriting(up), db))
                assert_same_order(lambda: embed_database(rewriting(cold(up)), db))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_case_matches_oracle(self, text):
        program = _program_of(text, "<string>")
        assert_same_grounding(program)
        assert_same_grounding(embed_database(program, PAD))
        assert_same_order(lambda: Program(program.rules))
        assert_same_order(lambda: embed_database(Program(program.rules), PAD))

    # Python nests at most 20 blocks in one function; these rules need more loops than that.
    @pytest.mark.parametrize("text, size", [
        ("c(a).\np.\nq(%s) :- p." % ",".join(f"X{i}" for i in range(1, 22)), 3),   # 21 free
        ("e(a,b).\ne(b,a).\nr(X0,X22) :- %s." % ", ".join(      # 21 join steps bind a variable
            f"e(X{i},X{i + 1})" for i in range(22)), 4)], ids=["free", "joins"])
    def test_long_rule_matches_interpreter(self, text, size):
        program = _program_of(text, "<string>")
        assert len(ground(program).rules) == size
        assert_same_order(lambda: Program(program.rules))
        assert_same_order(lambda: rewrite_bm(UpdateProgram(DeltaSet.of([]), Program(program.rules))))

    def test_phase_1_replays_a_plan(self):
        static = _prepare(_program_of(EDGE_CASES[-1], "<string>").rules).static
        assert static.predicates == {"a", "b"}
        assert [type(seed) for seed in static.replay] == [tuple, tuple]    # a(n0), a(n1)

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


# Quotes, a bracket, a newline, a backslash, a comment and a call: none may become code.
HOSTILE = ["it's", 'say "x"', "a)b", "two\nlines", "back\\slash", "x#y", "__import__('os')"]


class TestCompiledPlans:
    def test_a_second_insertable_set_or_origin_compiles_nothing(self):
        text = "+out(X) :- a(X), b(X,Y), not c(Y), +ev(X).\na(X) :- b(X,Y), Y != X.\nb(n1,n2).\n"
        program = parse_program(text, origin="first.adl")
        db = parse_database("c(n3).")
        for rewriting in (rewrite_st, rewrite_bm):
            ground(embed_database(rewriting(UpdateProgram(parse_delta("+ev(n1)."), program)), db))
        compiled = _maker.cache_info().misses
        # A second insertable set: `zz`'s insertion run joins the program's one `bm` run.
        second = rewrite_bm(UpdateProgram(parse_delta("+zz(n1)."), program))
        ground(embed_database(second, db))
        assert [key for key in program.cache if "rewrite bm" in key] == ["rewrite bm"]
        other = parse_program(text, origin="second.adl")
        for rewriting in (rewrite_st, rewrite_bm):
            ground(embed_database(rewriting(UpdateProgram(parse_delta("+ev(n2)."), other)), db))
        assert _maker.cache_info().misses == compiled
        # Equal shapes share one code object; each plan keeps its own origin.
        runs = [rewrite_bm(UpdateProgram(parse_delta("+ev(n1)."), p)).cache["runs"][:-1]
                for p in (program, other)] + [second.cache["runs"][:-1]]
        plans = [[trigger.plan for run in planned for entries in run.triggers.values()
                  for trigger in entries if not isinstance(trigger, _Waiting)] for planned in runs]
        assert {plan.origin for plan in plans[1]} == {"second.adl:1", "second.adl:2", None}
        assert [plan.origin for plan in plans[1]] == \
            [plan.origin and plan.origin.replace("first", "second") for plan in plans[0]]
        assert [plan.emit.__code__ for plan in plans[0]] == \
            [plan.emit.__code__ for plan in plans[1]]
        # The second set reads the program's run, kept once, and `ev`'s insertion plan's code.
        assert runs[2][0] is runs[0][0] and runs[0][1] is runs[1][1]
        assert plans[2][:-1] == plans[0][:-1] and plans[2][-1] != plans[0][-1]
        assert plans[2][-1].emit.__code__ is plans[0][-1].emit.__code__

    def test_hostile_symbols_never_become_code(self, monkeypatch):
        sources = []
        maker = adlog.rewrite._maker
        monkeypatch.setattr(adlog.rewrite, "_maker",
                            lambda source: sources.append(source) or maker(source))
        p = [f"p{i}{symbol}" for i, symbol in enumerate(HOSTILE)]
        c = [f"c{i}{symbol}" for i, symbol in enumerate(HOSTILE)]
        origin = "o" + "".join(HOSTILE)
        X, Y = Variable("X"), Variable("Y")
        atom = lambda k, *args: Atom(p[k], args)
        rules = (
            Rule(atom(0, c[0], c[1])), Rule(atom(0, c[1], c[2])),
            Rule(atom(0, c[3], c[4]), (StdLiteral(atom(0, c[1], c[2])),), origin),
            Rule(atom(1, X, c[5]), (StdLiteral(atom(0, X, Y)), StdLiteral(atom(2, Y), False),
                                    BuiltinLiteral("!=", X, c[6])), origin),
            Rule(atom(3, X), (StdLiteral(atom(1, X, c[5])), StdLiteral(atom(0, Y, X))), origin),
            Rule(atom(4, X, Y), (StdLiteral(atom(3, X)), BuiltinLiteral("=", Y, c[2])), origin),
            Rule(atom(5, Y), (StdLiteral(atom(4, X, c[2])), StdLiteral(atom(5, X), False)),
                 origin),
            Rule(UpdateAtom(Polarity.INSERT, atom(6, X)),
                 (StdLiteral(atom(5, X)), UpdLiteral(UpdateAtom(Polarity.INSERT, atom(2, X)))),
                 origin))
        up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, atom(2, c[0]))]),
                           Program(rules))
        assert_same_grounding(Program(rules[:-1]))
        assert_same_order(lambda: Program(rules[:-1]))
        for rewriting in (rewrite_st, rewrite_bm):
            assert_same_grounding(rewriting(up))
            assert_same_order(lambda: rewriting(cold(up)))
        assert len(ground(Program(rules[:-1])).rules) > 10 and sources
        for symbol in p + c + [origin] + HOSTILE:
            assert not any(symbol in source for source in sources), symbol
