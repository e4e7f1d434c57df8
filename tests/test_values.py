"""Value semantics of the public data classes, and what a cold `import adlog` loads.

Each class is built by keyword, compared and hashed against a second, equal
instance built from fresh arguments, refuses assignment, and survives copy
and pickle.  Equality is
per class, `Rule.origin` takes no part in it, the six term and literal
classes order by their fields, and the constructors validate.
"""

import copy
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

from adlog import (Atom, BuiltinLiteral, CompareResult, ConsistencyError, Database, DeltaSet,
                   EngineError, GroundProgram, Interpretation, ModelFamily, ModelRecord,
                   Polarity, Program, Rule, RunReport, Semantics, StdLiteral, UniverseError,
                   UpdateAtom, UpdateOutcome, UpdateProgram, UpdLiteral, ValidationError,
                   Variable, compare, enumerate_pstable, parse_database, parse_delta,
                   parse_program, run, well_founded)
from adlog.model import _FALSE
from adlog.rewrite import embed_database, rewrite_bm, rewrite_st
from adlog.update import CompareRow, _Session

from test_static import CHAIN_AB

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def cases():
    """Per public value class: required keyword arguments, optional ones given values
    other than their defaults, and the defaults; every call builds new arguments."""
    a, b, x = Atom("p", ("a",)), Atom("q", ("a", "b")), Variable("X")
    db = Database(frozenset({a}), frozenset({b}))
    wf = Interpretation(frozenset({a, b}), frozenset({a}))
    no = frozenset()
    return [
        (Variable, {"name": "X"}, {}, {}),
        (Atom, {"predicate": "p"}, {"args": ("a", x)}, {"args": ()}),
        (UpdateAtom, {"polarity": Polarity.DELETE, "atom": a}, {}, {}),
        (StdLiteral, {"atom": a}, {"positive": False}, {"positive": True}),
        (UpdLiteral, {"uatom": UpdateAtom(Polarity.INSERT, b)}, {"positive": False},
         {"positive": True}),
        (BuiltinLiteral, {"op": "!=", "left": x, "right": "a"}, {}, {}),
        (Rule, {"head": a}, {"body": (StdLiteral(b, False),), "origin": "f.adl:3"},
         {"body": (), "origin": None}),
        (Program, {}, {"rules": (Rule(a), Rule(b, (StdLiteral(a),)))}, {"rules": ()}),
        (Database, {}, {"true_facts": frozenset({a}), "unknown_facts": frozenset({b})},
         {"true_facts": no, "unknown_facts": no}),
        (DeltaSet, {}, {"updates": frozenset({UpdateAtom(Polarity.INSERT, a)})},
         {"updates": no}),
        (UpdateProgram, {"delta": DeltaSet(), "program": Program((Rule(a),))}, {}, {}),
        (Interpretation, {"universe": frozenset({a, b})},
         {"true_atoms": frozenset({a}), "false_atoms": frozenset({b})},
         {"true_atoms": no, "false_atoms": no}),
        (UpdateOutcome, {}, {"certain_insert": frozenset({a}), "undef_delete": frozenset({b})},
         {"certain_insert": no, "certain_delete": no, "undef_insert": no, "undef_delete": no}),
        (RunReport, {"semantics": Semantics.WS, "input_db": db, "output_db": Database(),
                     "status": "applied", "chosen_model": wf, "family_stats": None,
                     "policy": "lex", "seed": None}, {}, {}),
        (CompareRow, {"semantics": Semantics.MS, "report": None, "error": "no model"}, {}, {}),
        (CompareResult, {"rows": (CompareRow(Semantics.MS, None, "no model"),)}, {}, {}),
        (ModelRecord, {"model": wf}, {"flags": frozenset({"t-stable"})}, {"flags": no}),
        (ModelFamily, {"wf": wf, "components": ((ModelRecord(wf),),)}, {}, {}),
    ]


NAMES = [case[0].__name__ for case in cases()]


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
class TestEveryClass:
    def test_keyword_construction_and_defaults(self, index):
        cls, required, optional, defaults = cases()[index]
        plain, full = cls(**required), cls(**required, **optional)
        for name, default in defaults.items():
            assert getattr(plain, name) == default
        for name, given in {**required, **optional}.items():
            assert getattr(full, name) is given

    def test_equal_instances_hash_alike(self, index):
        (cls, required, optional, _), (_, required2, optional2, _) = cases()[index], cases()[index]
        first, second = cls(**required, **optional), cls(**required2, **optional2)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert repr(first) == repr(second)
        fields = tuple({**required, **optional}.values())
        assert first != fields and fields != first
        if optional:
            assert cls(**required) != first

    def test_assignment_raises(self, index):
        cls, required, optional, _ = cases()[index]
        value = cls(**required, **optional)
        for name in {**required, **optional}:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before

    def test_copy_and_pickle_round_trip(self, index):
        cls, required, optional, _ = cases()[index]
        value = cls(**required, **optional)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == repr(value)


def test_rule_equality_ignores_origin():
    body = (StdLiteral(Atom("q", ("a",))), StdLiteral(Atom("r"), False))
    first = Rule(Atom("p", ("a",)), body, "f.adl:1")
    second = Rule(Atom("p", ("a",)), body, "g.adl:9")
    assert first == second and hash(first) == hash(second)
    assert first != Rule(Atom("p", ("a",)), body[:1], "f.adl:1")


def test_program_equality_is_its_rule_set_and_skips_the_cache():
    r1, r2 = Rule(Atom("p")), Rule(Atom("q"), (StdLiteral(Atom("p")),))
    first, second = Program((r1, r2)), Program((r2, r1, r1))
    first.cache["seen"] = True
    assert first == second and hash(first) == hash(second)
    assert second.cache == {}
    assert repr(Program((r1,))) == f"Program(rules=({r1!r},))"


def test_atoms_sort_by_predicate_then_arguments():
    rng = random.Random(22)
    atoms = [Atom(rng.choice("pqr"), tuple(rng.choice("abc") for _ in range(rng.randint(0, 2))))
             for _ in range(300)]
    assert sorted(atoms) == sorted(atoms, key=lambda a: (a.predicate, a.args))
    for first, second in zip(atoms, atoms[1:]):
        left, right = (first.predicate, first.args), (second.predicate, second.args)
        assert (first < second, first <= second, first > second, first >= second) == \
            (left < right, left <= right, left > right, left >= right)
    with pytest.raises(TypeError):
        Atom("p") < ("p", ())
    with pytest.raises(TypeError):
        Rule(Atom("p")) < Rule(Atom("q"))


def test_terms_and_literals_order_by_fields():
    a, b = Atom("p", ("a",)), Atom("p", ("b",))
    assert Variable("X") < Variable("Y")
    assert UpdateAtom(Polarity.INSERT, a) < UpdateAtom(Polarity.INSERT, b)
    assert StdLiteral(a, False) < StdLiteral(a) < StdLiteral(b, False)
    plus = UpdateAtom(Polarity.INSERT, a)
    assert UpdLiteral(plus, False) <= UpdLiteral(plus) >= UpdLiteral(plus)
    assert BuiltinLiteral("!=", "a", "b") < BuiltinLiteral("=", "a", "a")


def test_pinned_repr():
    x = Variable("X")
    assert repr(Atom("p", ("a", x))) == "Atom(predicate='p', args=('a', Variable(name='X')))"
    assert repr(Rule(Atom("p"), (StdLiteral(Atom("q", ("a",)), False),), "f.adl:2")) == (
        "Rule(head=Atom(predicate='p', args=()), body=(StdLiteral(atom=Atom(predicate='q', "
        "args=('a',)), positive=False),), origin='f.adl:2')")
    assert repr(Database(frozenset({Atom("p", ("a",))}))) == (
        "Database(true_facts=frozenset({Atom(predicate='p', args=('a',))}), "
        "unknown_facts=frozenset())")


def _outcome(*fields):
    """An `UpdateOutcome` builder with the atom p in each of `fields`."""
    return lambda: UpdateOutcome(**dict.fromkeys(fields, frozenset({Atom("p")})))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Database(frozenset({Atom("p", ("a",))}), frozenset({Atom("p", ("a",))})),
     ValidationError, "fact p(a) is both true and unknown"),
    (lambda: Database(frozenset({Atom("p", (Variable("X"),))})),
     ValidationError, "database fact p(X) is not ground"),
    (lambda: Database(frozenset({Atom("p", ("a",)), Atom("p", ("a", "b"))})),
     ValidationError, "predicate p used with arity 1 and 2"),
    (lambda: DeltaSet(frozenset({UpdateAtom(Polarity.INSERT, Atom("p", (Variable("X"),)))})),
     ValidationError, "update +p(X) is not ground"),
    (lambda: DeltaSet(frozenset({UpdateAtom(Polarity.INSERT, Atom("p")),
                                 UpdateAtom(Polarity.DELETE, Atom("p"))})),
     ValidationError, "conflicting updates +p and -p"),
    (lambda: Interpretation(*[frozenset({Atom("p")})] * 3),
     EngineError, "interpretation assigns an atom both true and false"),
    (lambda: Interpretation(frozenset(), frozenset({Atom("p")})),
     UniverseError, "literal set mentions atoms outside the universe"),
    (_outcome("certain_insert", "certain_delete"),
     ConsistencyError, "update set requests both +A and -A"),
    (_outcome("certain_insert", "undef_delete"),
     ConsistencyError, "certain insertion with undefined deletion"),
    (_outcome("certain_delete", "undef_insert"),
     ConsistencyError, "certain deletion with undefined insertion"),
    (_outcome("certain_insert", "undef_insert"),
     ConsistencyError, "an update cannot be both certain and undefined"),
])
def test_constructors_validate(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_lazy_model_equals_interpretation_both_ways():
    a, b = Atom("p", ("a",)), Atom("q")
    model = Interpretation._of(Interpretation(frozenset({a}), frozenset({a})), [b], [_FALSE])
    same = Interpretation(frozenset({a, b}), frozenset({a}), frozenset({b}))
    other = Interpretation(frozenset({a, b}), frozenset({a}))
    assert model == same and same == model
    assert not model != same and not same != model
    assert hash(model) == hash(same)
    assert model != other and other != model
    assert model != (same.universe, same.true_atoms, same.false_atoms)


def returned_values():
    """Each value the engine returns that a lazy class may build, with its public class."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    pair = (Rule(a, (StdLiteral(b, False),)), Rule(b, (StdLiteral(a, False),)), Rule(c))
    family = enumerate_pstable(GroundProgram(pair))
    up = UpdateProgram(parse_delta("+ev(n2).\n+ev(n5)."), parse_program(CHAIN_AB))
    db = parse_database("out(n3).")
    session = _Session(up, db)
    assert session.ground("st").prefix is not None
    return [
        ("well_founded", Interpretation, well_founded(GroundProgram(pair))),
        ("wf over a prefix", Interpretation, session.wf("st")),
        ("family", ModelFamily, family),
        ("family wf", Interpretation, family.wf),
        ("part", Interpretation, family.components[0][1].model),
        ("ws run", RunReport, run(up, db, Semantics.WS)),
        ("rewrite_st", Program, rewrite_st(up)),
        ("rewrite_bm", Program, rewrite_bm(up)),
        ("embed_database", Program, embed_database(rewrite_bm(up), db)),
    ]


def test_returned_values_copy_pickle_and_print_as_their_public_class():
    for name, cls, value in returned_values():
        shown = repr(value)
        assert shown.startswith(cls.__name__ + "("), name
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls, name
            assert twin == value and value == twin, name
            assert repr(twin) == shown, name


def test_a_compare_on_a_chain_builds_no_model_set():
    """A compare reads no model's sets, and a key rendered builds them on its model alone:
    none on the kept prefix's model, which every call's model extends."""
    program, db = parse_program(CHAIN_AB), parse_database("")
    for delta in ("+ev(n2).", "+ev(n4).\n+ev(n7)."):       # a cold and a warm compare
        result = compare(UpdateProgram(parse_delta(delta), program), db)
        assert all(row.report.applied for row in result.rows)
        models = [row.report.chosen_model for row in result.rows]
        assert not [m for m in models if {"universe", "true_atoms", "false_atoms"} & set(vars(m))]
        for model in models:
            model.render_key()
            while (model := model._over) is not None:       # each model it extends
                assert not {"universe", "true_atoms", "false_atoms"} & set(vars(model))


@pytest.mark.parametrize("module", ["adlog", "adlog.cli"])
def test_cold_import_loads_neither_dataclasses_nor_selftest(module):
    # A fresh, isolated interpreter that reads this tree's sources first.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
            "print(sorted(m for m in ('dataclasses', 'adlog.selftest') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"
