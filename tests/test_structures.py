"""The memo's table entries: well-founded values kept by a table's numbered rules, across programs."""

import random
import sys
import threading

import pytest

import adlog.stable
from adlog import (Atom, GroundProgram, Rule, Semantics, StdLiteral, UpdateProgram,
                   enumerate_pstable, parse_database, parse_delta, parse_program,
                   rename_constants, run, well_founded)
from adlog.selftest import random_ground_program
from adlog.stable import _well_founded
from adlog.update import _Session

CASCADE = ("-mgr(X,P,D) :- -proj(P), mgr(X,P,D).\n"
           "+mgr(X,P,D) :- -mgr(X,P,D), not diff_mgr(X,D).\n"
           "-mgr(X,P,D) :- +mgr(X,P,D), not proj(P).\n"
           "diff_mgr(X,D) :- mgr(Y,P,D), Y != X.\n")

CHAIN = "".join([f"a(n{i}) :- not a(n{i + 1}).\nb(n{i}) :- b(n{i + 1}).\n" for i in range(8)]
                + ["b(n8).\n"] + [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i}).\n"
                                  for i in range(9)])


def renamed(g: GroundProgram, suffix: str) -> GroundProgram:
    """`g`'s rules with every atom renamed: another table of the same structure."""
    def atom(a: Atom) -> Atom:
        return Atom(a.predicate + suffix, a.args)
    return GroundProgram(tuple(Rule(atom(rule.head), tuple(
        StdLiteral(atom(lit.atom), lit.positive) for lit in rule.body)) for rule in g.rules))


def count_solves(monkeypatch) -> list:
    """Wrap `_sccs` and `_psi`, the well-founded fixpoint's two steps; each call is noted."""
    calls: list = []
    sccs, psi = adlog.stable._sccs, adlog.stable._psi
    monkeypatch.setattr(adlog.stable, "_sccs", lambda table: calls.append("sccs") or sccs(table))
    monkeypatch.setattr(adlog.stable, "_psi",
                        lambda rules, vals: calls.append("psi") or psi(rules, vals))
    return calls


def spans(memo: dict) -> list:
    return [entry[-1] for entry in memo.values()]


class TestSharedMemo:
    def test_random_programs_and_renamed_copies_read_what_is_computed(self, monkeypatch):
        calls = count_solves(monkeypatch)
        memo: dict = {}
        for seed in range(600):
            for suffix in ("", "_copy"):
                g = renamed(random_ground_program(random.Random(seed)), suffix)
                before = len(calls)
                vals, model = _well_founded(g, memo)
                solved = len(calls) > before
                fresh_vals, fresh = _well_founded(GroundProgram(g.rules))
                assert vals == fresh_vals, seed
                assert model == fresh and model.universe == fresh.universe, seed
                assert [model.value(atom) for atom in g.atoms] == \
                    [fresh.value(atom) for atom in g.atoms], seed
                assert model.undefined_count == fresh.undefined_count, seed
                # A copy's structure is its original's, so the copy is never solved.
                assert not (suffix and solved), seed
        assert spans(memo)[-1].stop - spans(memo)[0].start <= adlog.stable._MEMO_BOUND

    def test_public_well_founded_takes_the_memo(self):
        memo: dict = {}
        g = random_ground_program(random.Random(7))
        assert well_founded(g, memo) == well_founded(GroundProgram(g.rules))
        assert list(memo) == [tuple(g._rules)]
        (values, span), = memo.values()
        assert values == tuple(_well_founded(g)[0])
        assert span == range(0, sum(map(len, g._rules)) + len(g.atoms))

    def test_enumeration_reads_the_model_through_the_memo(self, monkeypatch):
        # A stratified table: its family is its well-founded model, searched nowhere.
        g = GroundProgram(parse_program("a :- not b.\nb :- c.\nc :- not d.\nd :- e.\n").rules)
        memo: dict = {}
        well_founded(g, memo)
        calls = count_solves(monkeypatch)
        family = enumerate_pstable(GroundProgram(g.rules), memo=memo)
        assert calls == []
        assert family == enumerate_pstable(GroundProgram(g.rules))
        # A table with a residue: one enumeration keeps its values and its components.
        g = random_ground_program(random.Random(8))
        expected = enumerate_pstable(g, cap=64, memo=memo)
        assert expected.components
        calls.clear()
        assert enumerate_pstable(GroundProgram(g.rules), cap=64, memo=memo) == expected
        assert calls == []


class TestSessions:
    @pytest.mark.parametrize("semantics", [Semantics.WS, Semantics.MD, Semantics.WS_BM])
    def test_renamed_cascade_solves_nothing(self, semantics, monkeypatch):
        # A fresh program per case, so that no earlier transaction warmed its memo.
        program = parse_program(f"% structures, {semantics.value}\n" + CASCADE)
        db = parse_database("proj(p1). proj(p2). mgr(x1,p1,d1). mgr(x2,p2,d1).")
        delta = parse_delta("-proj(p1).")
        first = run(UpdateProgram(delta, program), db, semantics)
        assert program.cache["memo"]
        # The renaming keeps the constants' order, so the grounding numbers alike.
        rho = {"p1": "q1", "p2": "q2", "x1": "y1", "x2": "y2", "d1": "e1"}
        calls = count_solves(monkeypatch)
        second = run(UpdateProgram(rename_constants(delta, rho), program),
                     rename_constants(db, rho), semantics)
        assert calls == []
        assert second.output_db == rename_constants(first.output_db, rho)
        assert second.status == first.status

    def test_chain_transaction_stores_no_entry(self):
        program = parse_program("% structures, chain\n" + CHAIN)
        for events in ("+ev(n2).", "+ev(n3).\n+ev(n6)."):
            session = _Session(UpdateProgram(parse_delta(events), program), parse_database(""))
            for mode in ("st", "bm"):
                session.wf(mode)
                assert session.ground(mode).prefix is not None
        assert program.cache["memo"] == {}


class TestBound:
    TEXTS = ("a :- not b.\nb :- not a.\n",         # 4 numbers and 2 values
             "a :- not a.\n",                       # 2 and 1
             "a :- b.\nb :- a.\n",                  # 4 and 2
             "a.\nb :- a.\nc :- not b.\n",          # 5 and 3
             "".join(f"a{i} :- not a{(i + 1) % 8}.\n" for i in range(8)),  # 16 and 8
             "p :- not q.\nq :- not p.\n")          # the first structure again

    def test_oldest_entries_leave_first(self, monkeypatch):
        monkeypatch.setattr(adlog.stable, "_MEMO_BOUND", 20)
        memo: dict = {}
        kept = []
        for text in self.TEXTS:
            _well_founded(GroundProgram(parse_program(text).rules), memo)
            kept.append(spans(memo))
        # The fourth entry pushes out the first; the ring of 24 is never kept;
        # the first structure comes back at the end and pushes out the second.
        assert kept == [[range(0, 6)], [range(0, 6), range(6, 9)],
                        [range(0, 6), range(6, 9), range(9, 15)],
                        [range(6, 9), range(9, 15), range(15, 23)],
                        [range(6, 9), range(9, 15), range(15, 23)],
                        [range(9, 15), range(15, 23), range(23, 29)]]

    def test_memo_keeps_no_more_than_its_bound(self, monkeypatch):
        monkeypatch.setattr(adlog.stable, "_MEMO_BOUND", 50)
        memo: dict = {}
        for seed in range(300):
            _well_founded(random_ground_program(random.Random(seed)), memo)
            held = spans(memo)
            assert all(a.stop == b.start for a, b in zip(held, held[1:])), seed
            assert held[-1].stop - held[0].start <= 50, seed
        assert adlog.stable._MEMO_BOUND == 50


def test_threads_sharing_one_memo(monkeypatch):
    # A small bound makes every thread push entries out while others keep and read.
    monkeypatch.setattr(adlog.stable, "_MEMO_BOUND", 60)
    programs = [random_ground_program(random.Random(seed)) for seed in range(100)]
    expected = [_well_founded(g) for g in programs]
    memo: dict = {}
    failures: list = []
    start = threading.Barrier(4)

    def work(t: int) -> None:
        start.wait()
        order = list(range(len(programs))) * 10
        random.Random(t).shuffle(order)
        for i in order:
            try:
                vals, model = _well_founded(GroundProgram(programs[i].rules), memo)
                if (vals, model) != expected[i]:
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
    held = spans(memo)
    assert all(a.stop == b.start for a, b in zip(held, held[1:]))
    assert held and held[-1].stop - held[0].start <= 60
