"""Timed checks on warm transactions over one chain of active rules; pytest does not collect them.

The chain of n links is `a(n_i) :- not a(n_i+1).`, `b(n_i) :- b(n_i+1).` and
`+out(n_i) :- a(n_i), b(n_i), +ev(n_i).`, with `b(n_n).` its one fact; `a` and
`b` are static.  Every transaction inserts two events, and must output them and
its database's facts with `out(n_i)` for each event whose `a(n_i)` holds, that
is, for which n - i is odd.  The database is empty, but in `static_fact`, which
compares ones with a true or an unknown fact on a static predicate (`b(n5).`,
`b(n5)?`) against one without (`out(n3).`).  A library `compare` must output the
same in each of its rows.  Run one check as

    python3 tests/chain_checks.py NAME [BOUND]

which exits with a message when the output is wrong or the bound is broken.
"""

import random
import statistics
import sys
import time

from adlog import (Semantics, UpdateProgram, compare, parse_database, parse_delta,
                   parse_program, run)

N = 6400


def chain(n: int):
    return parse_program("".join(
        [f"a(n{i}) :- not a(n{i + 1}).\nb(n{i}) :- b(n{i + 1}).\n" for i in range(n)]
        + [f"b(n{n}).\n"] + [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i}).\n"
                             for i in range(n + 1)]))


def transaction(program, n: int, rng: random.Random, semantics: Semantics | None,
                more: str = "", facts: str = "") -> float:
    """One two-event transaction on the chain of `n` links under `semantics`, or a library
    `compare` if None, its delta with `more` (one insertion or nothing) and its database of
    `facts`: its time, once each report is checked to be applied with the expected output."""
    events = sorted(rng.sample(range(n + 1), 2))
    delta = parse_delta("".join(f"+ev(n{i}).\n" for i in events) + more)
    db = parse_database(facts)
    up = UpdateProgram(delta, program)
    start = time.perf_counter()
    reports = {semantics: run(up, db, semantics)} if semantics else \
        {row.semantics: row.report for row in compare(up, db).rows}
    took = time.perf_counter() - start
    expected = {f"ev(n{i})" for i in events} | {f"out(n{i})" for i in events if (n - i) % 2} \
        | {more[1:-2]} - {""} | {str(atom) for atom in db.true_facts}
    for name, report in reports.items():
        if report is None or not report.applied \
                or {str(atom) for atom in report.output_db.true_facts} != expected:
            sys.exit(f"n = {n}, {name.value}: wrong output for events {events} and {more!r}")
    return took


def hundred() -> None:
    """A hundred warm ws transactions on one chain of 6,400 links; the caller bounds the time."""
    program, rng = chain(N), random.Random(1)
    start = time.perf_counter()
    for _ in range(100):
        transaction(program, N, rng, Semantics.WS)
    print(f"100 transactions in {time.perf_counter() - start:.1f} s")


def growth(bound: str = "4") -> None:
    """A warm transaction on 6,400 links takes at most `bound` times one on 400 links."""
    def medians(n: int) -> dict:
        """Median time of 60 warm two-event transactions on one chain, per semantics."""
        program, rng = chain(n), random.Random(1)
        out = {}
        for semantics in (Semantics.WS, Semantics.WS_BM):
            # The first two warm the program.
            times = [transaction(program, n, rng, semantics) for _ in range(62)]
            out[semantics.value] = statistics.median(times[2:])
        return out

    small, large = medians(400), medians(N)
    for semantics, base in small.items():
        ratio = large[semantics] / base
        print(f"{semantics}: {base * 1e3:.3f} ms at n = 400, "
              f"{large[semantics] * 1e3:.3f} ms at n = 6,400, ratio {ratio:.2f}")
        if ratio > float(bound):
            sys.exit(f"{semantics}: a warm transaction grows with the chain")


def new_set(bound: str = "5") -> None:
    """A ws-bm transaction with a new insertable set takes at most `bound` times one with a
    known set, on a warm chain of 6,400 links."""
    program, rng = chain(N), random.Random(1)
    for _ in range(2):        # warm the program
        transaction(program, N, rng, Semantics.WS_BM)
    known = statistics.median([transaction(program, N, rng, Semantics.WS_BM)
                               for _ in range(40)])
    new = statistics.median([transaction(program, N, rng, Semantics.WS_BM, f"+zz{k}(q).\n")
                             for k in range(40)])
    print(f"known set {known * 1e3:.3f} ms, new set {new * 1e3:.3f} ms, ratio {new / known:.2f}")
    if new > float(bound) * known:
        sys.exit("a new insertable set prepares the program again")


def static_fact(bound: str = "3") -> None:
    """A warm ws or ws-bm transaction on a chain of 6,400 links with the database `b(n5).` or
    `b(n5)?`, a true or an unknown fact on a static predicate, takes at most `bound` times one
    with `out(n3).`."""
    program = chain(N)
    for semantics in (Semantics.WS, Semantics.WS_BM):
        times = {}
        for facts in ("out(n3).", "b(n5).", "b(n5)?"):
            rng = random.Random(1)
            # The first two warm the program and, with `b(n5)`, prepare its base.
            took = [transaction(program, N, rng, semantics, facts=facts) for _ in range(42)]
            times[facts] = statistics.median(took[2:])
        for facts in ("b(n5).", "b(n5)?"):
            ratio = times[facts] / times["out(n3)."]
            print(f"{semantics.value}: {times['out(n3).'] * 1e3:.3f} ms with out(n3), "
                  f"{times[facts] * 1e3:.3f} ms with {facts}, ratio {ratio:.2f}")
            if ratio > float(bound):
                sys.exit(f"{semantics.value}: a fact on a static predicate grounds the program "
                         "again")


def compare_rows(bound: str = "2") -> None:
    """A warm library compare on 6,400 links, each row applied with the output `ws` gives,
    takes at most `bound` times one on 400 links (the median of twenty)."""
    medians = {}
    for n in (400, N):
        program, rng = chain(n), random.Random(1)
        # The first two warm the program.
        times = [transaction(program, n, rng, None) for _ in range(22)]
        medians[n] = statistics.median(times[2:])
    ratio = medians[N] / medians[400]
    print(f"compare: {medians[400] * 1e3:.3f} ms at n = 400, {medians[N] * 1e3:.3f} ms at "
          f"n = 6,400, ratio {ratio:.2f}")
    if ratio > float(bound):
        sys.exit("compare: a warm compare grows with the chain")


if __name__ == "__main__":
    {"hundred": hundred, "growth": growth, "new_set": new_set, "static_fact": static_fact,
     "compare": compare_rows}[sys.argv[1]](*sys.argv[2:])
