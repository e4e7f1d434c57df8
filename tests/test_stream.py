"""A long, mixed stream of warm transactions answers as each one does on a fresh program.

Seven programs are kept and their transactions interleaved: the benchmark's
chain of 12 links, `project_cascade`, the choice program, three
`InstanceGenerator` programs, and two choice pairs that differ in their atoms'
token ranks alone (`solved` must tell them apart).  Each transaction meets what the earlier ones
left in every kept cache: the parsed program, its rewritings and each `bm`
insertable set's run, the shared phase 1 and its replay, each database's
embedded run, and the `solved` and `structures` memos, shrunk so that entries
are evicted mid-stream.  A transaction draws a delta of both polarities, at
times inserting into a predicate no rule inserts into (a new `bm` insertable
set), and a database with true and unknown facts, at times a fact on a derived
predicate (on the chain a static one, such as `b(n5).`).  It runs one of the
nine semantics, under the `lex` or the `random` policy, or `compare`.  Its
report (`to_json_dict()`), or its error, must equal the same transaction's on
a fresh `Program` of the same rules and a fresh `Database` of the same facts.

`stream(transactions)` runs one such stream; a longer one is a CI step.
"""

import random
from unittest import mock

import adlog.stable
from adlog import (Atom, Database, DeltaSet, Polarity, Program, Semantics, UpdateAtom,
                   UpdateProgram, compare, parse_program, render, run)
from adlog.model import PreconditionError, ResourceLimitError
from adlog.selftest import InstanceGenerator

from conftest import fixture_text
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
    return [(CHAIN_AB, tuple(f"n{i}" for i in range(13))),
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


def stream(transactions: int, seed: int = 1) -> None:
    """Run `transactions` seeded transactions, warm against fresh, with small memo bounds."""
    rng = random.Random(seed)
    texts = programs(rng)
    memos = []
    for text, _ in texts:
        kept = parse_program(text, "stream").cache
        kept["solved"], kept["structures"] = Memo(), Memo()
        memos.append((kept["solved"], kept["structures"]))
    databases: list[list[Database]] = [[] for _ in texts]
    with mock.patch.object(adlog.stable, "_SOLVED_BOUND", 24), \
            mock.patch.object(adlog.stable, "_STRUCTURE_BOUND", 600):
        for k in range(transactions):
            p = rng.randrange(len(texts))
            program = parse_program(texts[p][0], "stream")
            delta, db = draw(rng, program, texts[p][1], databases[p])
            step = (rng.choice(OPERATIONS), rng.choice(("lex", "random")),
                    rng.randrange(1000), rng.choice((20, 20, 3)))
            warm = outcome(UpdateProgram(delta, program), db, *step)
            fresh = outcome(UpdateProgram(delta, Program(program.rules)),
                            Database.of(db.true_facts, db.unknown_facts), *step)
            assert warm == fresh, (k, p, render(delta), render(db), step)
    for kind, counted in zip(("solved", "structures"), zip(*memos)):
        assert sum(memo.hits for memo in counted), f"no {kind} hit"
        assert sum(memo.evicted for memo in counted), f"no {kind} eviction"


def test_a_warm_stream_answers_as_fresh_programs():
    stream(800)
