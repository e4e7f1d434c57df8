"""Seeded transaction streams for the adlog benchmark, with closed-form references.

A workload is an endless stream of transactions derived from a seed.  The
stream is cut into cycles of ten slots whose sizes are fixed per workload and
whose order, contents and names are drawn from the seed.  Fixing the mix of
sizes keeps the latency percentiles inside one size class whatever the seed:
the slots are laid out so that the median falls in the middle class and the
90th percentile in the largest one.

Every transaction carries the output its reference rule predicts, computed
here without calling adlog.  `Executor.execute` runs a transaction through
adlog's public API and `Executor.normalize` puts its output in the same
normal form, so a transaction passes when the two are equal.

adlog sees only the generated text.  The module looks up adlog's functions
through their modules at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import adlog.cli
import adlog.model
import adlog.parse
import adlog.update

SEMANTICS_ORDER = ("ws", "md", "twfs", "tmds", "uts", "ts", "ms", "mstt", "ws-bm")
APPLIED = "applied"
REJECTED = "rejected-unchanged"

# The paper's running example, as in src/adlog/fixtures/project_cascade.adl.
CASCADE_PROGRAM = """\
-mgr(X,P,D) :- -proj(P), mgr(X,P,D).
+mgr(X,P,D) :- -mgr(X,P,D), not diff_mgr(X,D).
-mgr(X,P,D) :- +mgr(X,P,D), not proj(P).
diff_mgr(X,D) :- mgr(Y,P,D), Y != X.
"""

CHOICE_PROGRAM = """\
pick(X) :- cand(X), not skip(X).
skip(X) :- cand(X), not pick(X).
+chosen(X) :- pick(X), +req(X).
+covered(G) :- pick(X), member(X,G), +want(G).
"""


@dataclass(frozen=True)
class Transaction:
    """Input texts of one transaction and the output its reference rule predicts.

    `semantics` names one semantics for `adlog.update.run`, or is "compare"
    for a transaction that runs `adlog compare --json` through `adlog.cli.main`.
    """

    index: int
    shape: str
    program: str
    database: str
    delta: str
    semantics: str
    expected: tuple


def _facts(atoms, suffix: str) -> str:
    return "".join(f"{atom}{suffix}\n" for atom in atoms)


def _db_view(status: str, true_atoms, unknown_atoms) -> tuple:
    return (status, tuple(sorted(true_atoms)), tuple(sorted(unknown_atoms)))


def _name(prefix: str, i: int) -> str:
    # Index 0 is the bare prefix, so the smallest cascade instance spells the
    # fixture's own constants p, x and d.
    return prefix if i == 0 else f"{prefix}{i}"


# ---------------------------------------------------------------------------
# cascade: the paper's running example over generated project databases
# ---------------------------------------------------------------------------

def cascade_instance(index: int, mgrs: list[tuple[str, str, str]], deleted: list[str],
                     shape: str = "", rng: random.Random | None = None) -> Transaction:
    """Transaction deleting `deleted` projects from a database of `mgr(X,P,D)` tuples.

    Reference: a deleted project's `proj(p)` becomes false.  Each `mgr(X,p,D)`
    of a deleted project `p` becomes false when the input has another manager
    `Y != X` of `D`, and unknown otherwise.  Every other fact is unchanged.
    """
    projects = sorted({p for _, p, _ in mgrs})
    true_facts = [f"proj({p})" for p in projects] + [f"mgr({x},{p},{d})" for x, p, d in mgrs]
    if rng is not None:
        rng.shuffle(true_facts)
    gone = set(deleted)
    managers_of = {}
    for x, _, d in mgrs:
        managers_of.setdefault(d, set()).add(x)
    out_true = [f"proj({p})" for p in projects if p not in gone]
    out_unknown = []
    for x, p, d in mgrs:
        fact = f"mgr({x},{p},{d})"
        if p not in gone:
            out_true.append(fact)
        elif managers_of[d] == {x}:
            out_unknown.append(fact)
    return Transaction(index, shape, CASCADE_PROGRAM, _facts(true_facts, "."),
                       "".join(f"-proj({p}).\n" for p in deleted), "ws",
                       _db_view(APPLIED, out_true, out_unknown))


# (projects, managers, departments) per slot; constants = their sum, and
# grounding builds about constants^4 rule instances.
CASCADE_SLOTS = ((2, 2, 1),) * 3 + ((2, 2, 2), (3, 2, 1)) * 2 + ((3, 2, 2), (3, 3, 1), (3, 2, 2))


def cascade_txn(rng: random.Random, index: int, slot) -> Transaction:
    n_proj, n_mgr, n_dept = slot
    projects = [_name("p", i) for i in range(n_proj)]
    managers = [_name("x", i) for i in range(n_mgr)]
    depts = [_name("d", i) for i in range(n_dept)]
    # Every manager and department is used; extra projects draw at random, so
    # a department may have one manager or several, and a manager may run
    # several projects of one department.
    manager_of = managers + [rng.choice(managers) for _ in range(n_proj - n_mgr)]
    rng.shuffle(manager_of)
    home = {x: depts[i] if i < n_dept else rng.choice(depts)
            for i, x in enumerate(rng.sample(managers, n_mgr))}
    mgrs = [(manager_of[i], p, home[manager_of[i]]) for i, p in enumerate(projects)]
    deleted = rng.sample(projects, rng.choice((1, 2)))
    shape = f"P{n_proj}M{n_mgr}D{n_dept}-del{len(deleted)}"
    return cascade_instance(index, mgrs, sorted(deleted), shape, rng)


def cascade_family(n: int) -> Transaction:
    """The ROADMAP baseline: n projects each with its own manager over 3 departments, delete one."""
    depts = [_name("d", j) for j in range(min(n, 3))]
    mgrs = [(_name("x", i), _name("p", i), depts[i % len(depts)]) for i in range(n)]
    return cascade_instance(0, mgrs, [_name("p", 0)], f"N{n}")


# ---------------------------------------------------------------------------
# chain: the ROADMAP chain family as ground rules plus active rules
# ---------------------------------------------------------------------------

def chain_instance(index: int, n: int, events: list[int], outs: list[int],
                   semantics: str, shape: str = "") -> Transaction:
    """Chain of n links with `+ev` requested at `events`; `out` facts at `outs`.

    Reference: `a(n_i)` holds iff n-i is odd and every `b(n_i)` holds, so
    `out(n_i)` is inserted iff `ev(n_i)` was requested and n-i is odd.  The
    requested events are inserted and the database facts stay true.
    """
    rules = [f"a(n{i}) :- not a(n{i + 1})." for i in range(n)]
    rules += [f"b(n{i}) :- b(n{i + 1})." for i in range(n)]
    rules.append(f"b(n{n}).")
    rules += [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i})." for i in range(n + 1)]
    out_true = {f"out(n{i})" for i in outs}
    out_true |= {f"ev(n{i})" for i in events}
    out_true |= {f"out(n{i})" for i in events if (n - i) % 2 == 1}
    return Transaction(index, shape, "\n".join(rules) + "\n",
                       _facts((f"out(n{i})" for i in outs), "."),
                       "".join(f"+ev(n{i}).\n" for i in events), semantics,
                       _db_view(APPLIED, out_true, ()))


def chain_family(n: int) -> Transaction:
    """The ROADMAP chain of n links, with one event of each parity."""
    return chain_instance(0, n, [n - 2, n - 1], [], "ws", f"n{n}")


# Each size class has one semantics, so that neither percentile falls on the
# boundary between ws and ws-bm timings within a class.
CHAIN_SLOTS = ((40, "ws-bm"),) * 3 + ((50, "ws"),) * 4 + ((60, "ws-bm"),) * 3


def chain_txn(rng: random.Random, index: int, slot) -> Transaction:
    n, semantics = slot
    links = range(n + 1)
    odd = [i for i in links if (n - i) % 2 == 1]
    even = [i for i in links if (n - i) % 2 == 0]
    events = rng.sample(odd, rng.randint(1, 4)) + rng.sample(even, rng.randint(1, 4))
    outs = rng.sample(list(links), rng.randint(0, 2))
    return chain_instance(index, n, sorted(events), sorted(outs), semantics,
                          f"n{n}-{semantics}")


# ---------------------------------------------------------------------------
# choice: small programs of choice pairs, run through `adlog compare --json`
# ---------------------------------------------------------------------------

def choice_instance(index: int, free: int, groups: list[int], shape: str = "",
                    rng: random.Random | None = None) -> Transaction:
    """`free` independent pairs with `+req`, plus groups of pairs sharing `+covered(g)`.

    Candidate c_i is a choice between `pick(c_i)` and `skip(c_i)`.  A free
    candidate requests `+req(c_i)`, so `chosen(c_i)` follows its pick.  The
    candidates of group g request nothing themselves; `+want(g)` is requested
    and `covered(g)` follows the pick of any member.

    Reference, every row in SEMANTICS_ORDER:
    - ws, md, ws-bm: applied; the requested facts are inserted and every
      `chosen(c_i)` and `covered(g)` is unknown.  Only the well-founded model
      is deterministic, so md agrees with ws.
    - twfs, tmds, uts: rejected-unchanged.  The well-founded model leaves the
      consequences undefined, and there are 2^k total models.
    - ts, ms, mstt under lex: applied with every `chosen(c_i)` and
      `covered(g)` true.  The lexicographically least total model comes first
      because a true atom `a.` sorts before `not a.`.
    """
    count = free + sum(groups)
    numbers = rng.sample(range(100), count) if rng is not None else range(count)
    cands = [f"c{i}" for i in numbers]
    base = [f"cand({c})" for c in cands]
    delta = [f"+req({c})" for c in cands[:free]]
    consequences = [f"chosen({c})" for c in cands[:free]]
    requested = [f"req({c})" for c in cands[:free]]
    members = iter(cands[free:])
    for g, size in enumerate(groups):
        for _ in range(size):
            base.append(f"member({next(members)},g{g})")
        delta.append(f"+want(g{g})")
        requested.append(f"want(g{g})")
        consequences.append(f"covered(g{g})")
    if rng is not None:
        rng.shuffle(base)
        rng.shuffle(delta)
    rows = []
    for sem in SEMANTICS_ORDER:
        if sem in ("ws", "md", "ws-bm"):
            view = _db_view(APPLIED, base + requested, consequences)
        elif sem in ("twfs", "tmds", "uts"):
            view = _db_view(REJECTED, base, ())
        else:
            view = _db_view(APPLIED, base + requested + consequences, ())
        rows.append((sem, None) + view)
    return Transaction(index, shape, CHOICE_PROGRAM, _facts(base, "."),
                       _facts(delta, "."), "compare", (0, tuple(rows)))


# (free pairs, group sizes) per slot.  The residue of the well-founded model
# has 3 atoms per free pair and 2 per grouped pair plus 1 per group; the
# enumeration tries 3^residue candidates.
CHOICE_SMALL = ((1, ()), (2, ()), (0, (2,)))
CHOICE_SLOTS = (None,) * 3 + ((1, (2,)),) * 4 + ((3, ()),) * 3


def choice_txn(rng: random.Random, index: int, slot) -> Transaction:
    free, groups = slot if slot is not None else rng.choice(CHOICE_SMALL)
    shape = f"free{free}" + "".join(f"-group{size}" for size in groups)
    return choice_instance(index, free, list(groups), shape, rng)


def choice_family(k: int) -> Transaction:
    """k independent choice pairs: the residue has 3k atoms."""
    return choice_instance(0, k, [], f"k{k}")


# ---------------------------------------------------------------------------
# Streams and execution
# ---------------------------------------------------------------------------

WORKLOADS = {
    "cascade": (cascade_txn, CASCADE_SLOTS),
    "chain": (chain_txn, CHAIN_SLOTS),
    "choice": (choice_txn, CHOICE_SLOTS),
}
CYCLE = 10
assert all(len(slots) == CYCLE for _, slots in WORKLOADS.values())


def transaction(workload: str, seed: int, index: int) -> Transaction:
    """Transaction `index` of a workload's stream; a pure function of its arguments."""
    make, slots = WORKLOADS[workload]
    cycle, position = divmod(index, CYCLE)
    order = list(range(CYCLE))
    random.Random(f"{workload}:{seed}:cycle:{cycle}").shuffle(order)
    rng = random.Random(f"{workload}:{seed}:txn:{index}")
    return make(rng, index, slots[order[position]])


class Executor:
    """Runs transactions through adlog's public API; `prepare` is not timed."""

    def __init__(self, scratch: str):
        self.files = tuple(os.path.join(scratch, name)
                           for name in ("txn.adl", "txn.adb", "txn.adu"))

    def prepare(self, txn: Transaction) -> None:
        if txn.semantics == "compare":
            os.makedirs(os.path.dirname(self.files[0]), exist_ok=True)
            for path, text in zip(self.files, (txn.program, txn.database, txn.delta)):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)

    def execute(self, txn: Transaction):
        """Run one transaction; returns the raw result for `normalize`."""
        if txn.semantics == "compare":
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = adlog.cli.main(["compare", "-p", self.files[0], "-d", self.files[1],
                                       "-u", self.files[2], "--json"])
            return code, buffer.getvalue()
        parse = adlog.parse
        up = adlog.model.UpdateProgram(parse.parse_delta(txn.delta),
                                       parse.parse_program(txn.program))
        return adlog.update.run(up, parse.parse_database(txn.database),
                                adlog.update.Semantics.parse(txn.semantics))

    def normalize(self, txn: Transaction, raw) -> tuple:
        """The output in the reference's normal form."""
        if txn.semantics == "compare":
            code, text = raw
            doc = json.loads(text)
            rows = []
            for row in doc["rows"]:
                report = row["report"]
                if report is None:
                    rows.append((row["semantics"], row["error"], None, (), ()))
                else:
                    rows.append((row["semantics"], row["error"])
                                + _db_view(report["status"], report["output"]["true"],
                                           report["output"]["unknown"]))
            return (code, tuple(rows))
        output = raw.output_db
        return _db_view(raw.status, (str(a) for a in output.true_facts),
                        (str(a) for a in output.unknown_facts))
