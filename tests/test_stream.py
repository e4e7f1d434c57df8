"""A long, mixed stream of warm transactions answers as each one does on a fresh program.

Seven programs are kept and their transactions interleaved: the benchmark's
chain of 12 links, with a rule its static atoms complete alone, `project_cascade`,
the choice program, three `InstanceGenerator` programs, and two choice pairs
that differ in their atoms' token ranks alone (`solved` must tell them apart).
Each transaction meets what the earlier ones left in every kept cache: the
parsed program, its rewritings and `bm`'s insertion runs, the shared phase 1
and its replay, each database's embedded run, and the `solved` and
`structures` memos, shrunk so that entries are evicted mid-stream.  A
transaction draws a delta of both polarities, at times inserting into a
predicate no rule inserts into (a new `bm` insertable set), and a database
with true and unknown facts, at times a fact on a derived predicate (on the
chain a static one, such as `b(n5).`).  It runs one of the nine semantics,
under the `lex` or the `random` policy, or `compare`.  Its
report (`to_json_dict()`), or its error, must equal the same transaction's on
a fresh `Program` of the same rules and a fresh `Database` of the same facts.
Every 25th transaction must also ground as one phase would, a check that the
fresh program cannot make, as it takes the same path.

`stream(count)` runs one such stream; a longer one is a CI step.  Four
threads also run disjoint streams on the same kept programs at once.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import adlog.stable
from adlog import (Atom, Database, DeltaSet, Polarity, Program, Semantics, UpdateAtom,
                   UpdateProgram, compare, parse_program, render, run)
from adlog.model import PreconditionError, ResourceLimitError
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


class Memo(dict):
    """A memo that counts its hits and its evictions."""

    hits = evicted = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value

    def __delitem__(self, key):
        self.evicted += 1
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
    """The `solved` and `structures` bounds shrunk, so that entries are evicted mid-stream."""
    return mock.patch.multiple(adlog.stable, _SOLVED_BOUND=24, _STRUCTURE_BOUND=600)


def stream(count: int, seed: int = 1) -> None:
    """Run `count` seeded transactions, warm against fresh, with small memo bounds; every
    25th also grounds as one phase would (`assert_grounds_as_one_phase`)."""
    rng = random.Random(seed)
    texts = programs(rng)
    memos = []
    for text, _ in texts:
        kept = parse_program(text, "stream").cache
        kept["solved"], kept["structures"] = Memo(), Memo()
        memos.append((kept["solved"], kept["structures"]))
    with shrunk():
        for k, (up, db, step) in enumerate(transactions(rng, texts, count)):
            warm, cold = outcome(up, db, *step), outcome(*fresh(up, db), *step)
            assert warm == cold, (k, render(up.delta), render(db), step)
            if not k % 25:
                assert_grounds_as_one_phase(up, db)
    for kind, counted in zip(("solved", "structures"), zip(*memos)):
        assert sum(memo.hits for memo in counted), f"no {kind} hit"
        assert sum(memo.evicted for memo in counted), f"no {kind} eviction"


def test_a_warm_stream_answers_as_fresh_programs():
    stream(800)


def test_four_threads_on_shared_programs_answer_as_one_by_one():
    """Four disjoint seeded streams share the kept programs, each in its own thread, and
    switch often; each answers as its transactions do one by one on fresh programs."""
    texts = programs(random.Random(5))
    shared = [parse_program(text, "stream") for text, _ in texts]     # parsed before sharing
    switch = sys.getswitchinterval()

    def warm(seed: int) -> list:
        return [outcome(up, db, *step)
                for up, db, step in transactions(random.Random(seed), texts, 100)]

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
