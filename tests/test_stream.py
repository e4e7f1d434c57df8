"""A long, mixed stream of warm transactions answers as each one does on a fresh program.

Seven programs are kept and their transactions interleaved: the benchmark's
chain of 12 links, with a rule its static atoms complete alone, `project_cascade`,
the choice program, three `InstanceGenerator` programs, and two choice pairs
that differ in their atoms' token ranks alone (the memo must tell them apart).
Each transaction meets what the earlier ones left in every kept cache: the
parsed program, its rewritings and `bm`'s insertion runs, the shared phase 1
and its replay, each database's embedded run, the last base that facts on
static predicates joined (one per rewriting, so a new one replaces it
mid-stream), and the solver's memo of tables and components, shrunk so that
entries of both kinds are evicted mid-stream.  A
transaction draws a delta of both polarities, at times inserting into a
predicate no rule inserts into (a new `bm` insertable set), and a database
with true and unknown facts, at times a fact on a derived predicate (on the
chain a static one, such as `b(n5).`, which joins a base).  It runs one of the
nine semantics, under the `lex` or the `random` policy, or `compare`.  Its
report (`to_json_dict()`), or its error, must equal the same transaction's on
a fresh `Program` of the same rules and a fresh `Database` of the same facts.
Every 25th transaction must also ground as one phase would, a check that the
fresh program cannot make, as it takes the same path.

`stream(count)` runs one such stream; a longer one is a CI step.  Four
threads also run disjoint streams on the same kept programs at once.  A
renamed stream runs each transaction again with every constant renamed by a
bijection, on renamed programs that share the originals' memos: the
semantics is generic, so each answer must be the original's renamed.
"""

import random
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import adlog.stable
from adlog import (Atom, Database, DeltaSet, Polarity, Program, Semantics, UpdateAtom,
                   UpdateProgram, compare, parse_program, render, run)
from adlog.model import PreconditionError, ResourceLimitError, rename_constants
from adlog.update import PLANS
from adlog.selftest import InstanceGenerator

from conftest import fixture_text
from test_replay import assert_grounds_as_one_phase
from test_static import CHAIN_AB

CHOICE = """\
pick(X) :- cand(X), not skip(X).
skip(X) :- cand(X), not pick(X).
+chosen(X) :- pick(X), +req(X).
+covered(G) :- pick(X), member(X,G), +want(G).
"""

# `not pick(c).` sorts before `pick(c).`, `not drop(c).` after `drop(c).`: equal components
# whose parts sort apart.
RANKED = """\
pick(X) :- cand(X), not skip(X).
skip(X) :- cand(X), not pick(X).
keep(X) :- item(X), not drop(X).
drop(X) :- item(X), not keep(X).
"""

OPERATIONS = (*Semantics, "compare")

# What the chain's static atoms complete alone, replayed by every call (`_Static.replay`).
REPLAYED = "+out(n1) :- a(n1), b(n1).\n"


# A memo entry's kind by its length: a table's (values, span), a component's (parts, flags, span).
KINDS = {2: "table", 3: "component"}


class Memo(dict):
    """A memo that counts its hits, its evictions and its new entries, per kind of entry."""

    def __init__(self):
        super().__init__()
        self.hits, self.evicted, self.stored = Counter(), Counter(), Counter()

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits[KINDS[len(value)]] += 1
        return value

    def setdefault(self, key, value):
        if key not in self:
            self.stored[KINDS[len(value)]] += 1
        return super().setdefault(key, value)

    def __delitem__(self, key):
        self.evicted[KINDS[len(self[key])]] += 1
        super().__delitem__(key)


def programs(rng: random.Random) -> list[tuple[str, tuple[str, ...]]]:
    """Each stream's program text and the constants its facts and updates are drawn from."""
    gen = InstanceGenerator(rng)
    return [(CHAIN_AB + REPLAYED, tuple(f"n{i}" for i in range(13))),
            (fixture_text("project_cascade.adl"), ("x", "y", "p", "q", "d", "e")),
            (CHOICE, ("c1", "c2", "c3", "g0", "g1")), (RANKED, ("c1", "c2", "c3")),
            *[(render(gen.instance().up.program), ("a", "b", "c")) for _ in range(3)]]


def draw(rng: random.Random, program: Program, constants: tuple[str, ...],
         databases: list[Database]) -> tuple[DeltaSet, Database]:
    """A random delta and a database: a new one, or one an earlier transaction used."""
    arities = {atom.predicate: atom.arity
               for rule in program.rules for atom in Program._all_atoms(rule)}
    derived = sorted(program.idb_predicates())
    base = sorted(set(arities) - set(derived)) + ["zz"]     # `zz` no rule reads
    arities["zz"] = 1

    def atoms(count: int, predicates: list[str]) -> list[Atom]:
        return sorted({Atom(p, tuple(rng.choices(constants, k=arities[p])))
                       for p in rng.choices(predicates, k=count)}, key=str)

    delta = DeltaSet.of(UpdateAtom(rng.choice(list(Polarity)), atom)
                        for atom in atoms(rng.randint(0, 3), base))
    if databases and rng.random() < 0.5:
        return delta, rng.choice(databases)
    held = atoms(rng.randint(0, 5), base)
    if derived and rng.random() < 0.15:
        held += atoms(1, derived)
    unknown = {atom for atom in held if rng.random() < 0.3}
    databases.append(Database.of(set(held) - unknown, unknown))
    del databases[:-4]
    return delta, databases[-1]


def outcome(up: UpdateProgram, db: Database, operation, policy: str, seed: int, cap: int):
    """The transaction's report as JSON data, or its error; `compare`'s rows."""
    if operation == "compare":
        return [row.report.to_json_dict() if row.report else row.error
                for row in compare(up, db, cap=cap).rows]
    try:
        return run(up, db, operation, policy=policy, seed=seed, cap=cap).to_json_dict()
    except (PreconditionError, ResourceLimitError) as exc:
        return f"{type(exc).__name__}: {exc}"


def transactions(rng: random.Random, texts: list[tuple[str, tuple[str, ...]]], count: int):
    """`count` transactions drawn by `rng` on the kept programs of `texts`: each an update
    program, its database and the operation, policy, seed and cap `outcome` takes."""
    databases: list[list[Database]] = [[] for _ in texts]
    for _ in range(count):
        p = rng.randrange(len(texts))
        program = parse_program(texts[p][0], "stream")
        delta, db = draw(rng, program, texts[p][1], databases[p])
        yield UpdateProgram(delta, program), db, (
            rng.choice(OPERATIONS), rng.choice(("lex", "random")), rng.randrange(1000),
            rng.choice((20, 20, 3)))


def fresh(up: UpdateProgram, db: Database) -> tuple[UpdateProgram, Database]:
    """A fresh `Program` of the same rules and a fresh `Database` of the same facts."""
    return (UpdateProgram(up.delta, Program(up.program.rules)),
            Database.of(db.true_facts, db.unknown_facts))


def shrunk():
    """The memo bound shrunk, so that entries of both kinds are evicted mid-stream."""
    return mock.patch.object(adlog.stable, "_MEMO_BOUND", 600)


def bases(program: Program) -> list[list]:
    """The base slot of each kept rewriting of `program`: the rules that entered its last base
    and that base (see `rewrite.ground`), or (None, None)."""
    runs = [program.cache.get("rewrite st"), (program.cache.get("rewrite bm") or (None,))[0]]
    slots = [run.static.base for run in runs if run is not None and run.static is not None]
    assert all(len(slot) == 1 for slot in slots)        # one base at most
    return slots


def stream(count: int, seed: int = 1) -> None:
    """Run `count` seeded transactions, warm against fresh, with a small memo bound; every
    25th also grounds as one phase would (`assert_grounds_as_one_phase`)."""
    rng = random.Random(seed)
    texts = programs(rng)
    memos = []
    entered: dict = {}      # per kept rewriting's base slot, every set of rules it held
    for text, _ in texts:
        memos.append(Memo())
        parse_program(text, "stream").cache["memo"] = memos[-1]
    with shrunk():
        for k, (up, db, step) in enumerate(transactions(rng, texts, count)):
            warm, cold = outcome(up, db, *step), outcome(*fresh(up, db), *step)
            assert warm == cold, (k, render(up.delta), render(db), step)
            if not k % 25:
                assert_grounds_as_one_phase(up, db)
            for slot in bases(up.program):
                entered.setdefault(id(slot), set()).add(slot[0][0])
    for kind in KINDS.values():
        assert sum(memo.hits[kind] for memo in memos), f"no {kind} hit"
        assert sum(memo.evicted[kind] for memo in memos), f"no {kind} eviction"
    assert any(len(rules - {None}) > 1 for rules in entered.values()), "no base replaced"


def test_a_warm_stream_answers_as_fresh_programs():
    stream(800)


def test_four_threads_on_shared_programs_answer_as_one_by_one():
    """Four disjoint seeded streams share the kept programs, each in its own thread, and
    switch often; each answers as its transactions do one by one on fresh programs."""
    texts = programs(random.Random(5))
    shared = [parse_program(text, "stream") for text, _ in texts]     # parsed before sharing
    switch = sys.getswitchinterval()

    def warm(seed: int) -> list:
        out = []
        for up, db, step in transactions(random.Random(seed), texts, 100):
            out.append(outcome(up, db, *step))
            bases(up.program)       # one base at most, whatever the other threads keep
        return out

    sys.setswitchinterval(1e-5)
    try:
        with shrunk(), ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(warm, range(4)))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == [[outcome(*fresh(up, db), *step) for up, db, step
                         in transactions(random.Random(seed), texts, 100)] for seed in range(4)]
    assert all(parse_program(text, "stream") is program
               for (text, _), program in zip(texts, shared))


def test_a_replaced_base_is_prepared_again():
    """Databases that alternate their fact on a static predicate replace each other's base, one
    base kept per rewriting; each answer equals a fresh program's."""
    program = parse_program(CHAIN_AB + REPLAYED, "evicted")
    kept = []
    with shrunk():
        for k, static in enumerate(("n5", "n7", "n5")):
            up = UpdateProgram(DeltaSet.of([UpdateAtom(Polarity.INSERT, Atom("ev", (f"n{k}",)))]),
                               program)
            db = Database.of([Atom("b", (static,)), Atom("out", ("n1",))])
            for operation in OPERATIONS:
                step = (operation, "lex", 0, 20)
                assert outcome(up, db, *step) == outcome(*fresh(up, db), *step), (k, operation)
            kept.append([slot[0] for slot in bases(program)])
            assert len(kept[-1]) == 2
    for first, other, again in zip(*kept):      # per rewriting: (entered rules, base)
        assert first[0] == again[0] != other[0]
        assert first[1] is not again[1]


def renaming(rng: random.Random, originals: list[Program], texts, keep_order: bool) -> dict:
    """A bijection from every constant of the programs and their pools onto fresh names of
    one width: in the constants' own order, or shuffled by `rng`.  One width keeps the
    order of any two atoms, as ',' and ')' sort before every character of a name."""
    constants = sorted(set().union(*(program.constants() | set(pool)
                                     for program, (_, pool) in zip(originals, texts))))
    names = [f"k{i:03d}" for i in range(len(constants))]
    if not keep_order:
        rng.shuffle(names)
    return dict(zip(constants, names))


def normal(result, rho: dict, keep_order: bool):
    """An `outcome` with its constants renamed by `rho`, its fact lists sorted and its model's
    tokens in the order of their atoms.  A bijection that does not keep the constants' order
    changes the render order that `lex` and `random` choose by, so then a choosing semantics'
    model and output are left out; what it chooses among is generic."""
    def rename(text: str) -> str:
        return re.sub(r"\(([^()]*)\)", lambda m: "(" + ",".join(
            rho.get(c, c) for c in m[1].split(",")) + ")", text)

    if isinstance(result, list):
        return [normal(row, rho, keep_order) for row in result]
    if isinstance(result, str):             # an error
        return rename(result)
    data = dict(result)
    for side in ("input", "output"):
        data[side] = {k: sorted(map(rename, facts)) for k, facts in data[side].items()}
    if data["model"] is not None:
        data["model"] = sorted(re.findall(r"(?:not )?\S+", rename(data["model"])),
                               key=lambda token: token.removeprefix("not ")[:-1])
    if not keep_order and PLANS[Semantics(data["semantics"])].choose:
        del data["model"], data["output"]
    return data


def test_a_renamed_stream_answers_as_the_original_renamed():
    """Each transaction, with every constant renamed, answers as the original renamed: by a
    bijection that keeps the constants' order, whose transactions read all they solve from
    the memo the original filled, and then by a shuffled one."""
    rng = random.Random(7)
    texts = programs(rng)
    originals = [parse_program(text, "stream") for text, _ in texts]
    for program in originals:
        program.cache["memo"] = Memo()
    for keep_order in (True, False):
        rho = renaming(rng, originals, texts, keep_order)
        renamed = {id(program): Program(rename_constants(program, rho).rules)
                   for program in originals}
        for program in originals:
            renamed[id(program)].cache["memo"] = program.cache["memo"]
        hits = stored = 0
        for k, (up, db, step) in enumerate(transactions(rng, texts, 200)):
            expected = normal(outcome(up, db, *step), rho, keep_order)
            memo = up.program.cache["memo"]
            before = sum(memo.hits.values()), sum(memo.stored.values())
            got = outcome(UpdateProgram(rename_constants(up.delta, rho), renamed[id(up.program)]),
                          rename_constants(db, rho), *step)
            assert normal(got, {}, keep_order) == expected, (k, keep_order, render(up.delta),
                                                            render(db), step)
            hits += sum(memo.hits.values()) - before[0]
            stored += sum(memo.stored.values()) - before[1]
        if keep_order:
            assert hits and not stored
