"""Timed checks on warm transactions over one chain of active rules; pytest does not collect them.

The chain of n links is `a(n_i) :- not a(n_i+1).`, `b(n_i) :- b(n_i+1).` and
`+out(n_i) :- a(n_i), b(n_i), +ev(n_i).`, with `b(n_n).` its one fact.  Every
transaction inserts two events, and must output them with `out(n_i)` for each
event whose `a(n_i)` holds, that is, for which n - i is odd.  Run one check as

    python3 tests/chain_checks.py NAME [BOUND]

which exits with a message when the output is wrong or the bound is broken.
"""

import random
import statistics
import sys
import time

from adlog import Semantics, UpdateProgram, parse_database, parse_delta, parse_program, run

N = 6400


def chain(n: int):
    return parse_program("".join(
        [f"a(n{i}) :- not a(n{i + 1}).\nb(n{i}) :- b(n{i + 1}).\n" for i in range(n)]
        + [f"b(n{n}).\n"] + [f"+out(n{i}) :- a(n{i}), b(n{i}), +ev(n{i}).\n"
                             for i in range(n + 1)]))


def transaction(program, n: int, rng: random.Random, semantics: Semantics,
                more: str = "") -> float:
    """One two-event transaction on the chain of `n` links, its delta with `more`
    (one insertion or nothing): its time, once its output is checked."""
    events = sorted(rng.sample(range(n + 1), 2))
    delta = parse_delta("".join(f"+ev(n{i}).\n" for i in events) + more)
    start = time.perf_counter()
    report = run(UpdateProgram(delta, program), parse_database(""), semantics)
    took = time.perf_counter() - start
    expected = {f"ev(n{i})" for i in events} | {f"out(n{i})" for i in events if (n - i) % 2} \
        | {more[1:-2]} - {""}
    if {str(atom) for atom in report.output_db.true_facts} != expected:
        sys.exit(f"n = {n}, {semantics.value}: wrong output for events {events} and {more!r}")
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


if __name__ == "__main__":
    {"hundred": hundred, "growth": growth, "new_set": new_set}[sys.argv[1]](*sys.argv[2:])
