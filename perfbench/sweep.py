"""Scaling sweep over the ROADMAP baseline families, outside the gated comparison.

Each point is one traced transaction in a fresh process, killed when it
exceeds the wall-time budget; a family stops at its first point over budget.
The families are cascade N (N projects with their own managers over three
departments, deleting one), chain n (n links, ws) and choice k (k independent
choice pairs, `adlog compare --json`).
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
MEMORY_LIMIT_BYTES = 4 << 30

FAMILIES = {
    "cascade": ((2, 4, 6, 8, 10), workloads.cascade_family),
    "chain": ((50, 100, 200, 400), workloads.chain_family),
    "choice": ((1, 2, 3, 4, 5), workloads.choice_family),
}

# column, span name, field of the span totals
COLUMNS = (("ground_s", "rewrite.ground", "self_s"),
           ("gc_s", spans.GC, "self_s"),
           ("wf_s", "stable.well_founded", "self_s"),
           ("enum_s", "stable.enumerate", "self_s"),
           ("constants", "rewrite.ground", "constants"),
           ("instances", "rewrite.ground", "naive_instances"),
           ("kept", "rewrite.ground", "rules_kept"),
           ("candidates", "stable.enumerate", "candidates"),
           ("models", "stable.enumerate", "models"))


def point(family: str, size: int) -> int:
    """Run one point traced and print its record as JSON."""
    import bench
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    txn = FAMILIES[family][1](size)
    executor = workloads.Executor(str(bench.OUT / "sweep"))
    executor.prepare(txn)
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        raw = tracer.transaction(0, executor.execute, txn)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    row = {"family": family, "size": size, "wall_s": wall,
           "correct": executor.normalize(txn, raw) == txn.expected}
    for column, span, key in COLUMNS:
        row[column] = totals.get(span, {}).get(key, 0)
    print(json.dumps(row))
    return 0


def sweep(budget: float) -> int:
    header = ["family", "size", "wall_s"] + [c for c, _, _ in COLUMNS] + ["correct"]
    print(" ".join(f"{h:>10s}" for h in header))
    ok = True
    for family, (sizes, _) in FAMILIES.items():
        for size in sizes:
            argv = [sys.executable, str(HERE / "run.py"), "--sweep-point", family, str(size)]
            try:
                done = subprocess.run(argv, capture_output=True, text=True, timeout=budget)
            except subprocess.TimeoutExpired:
                print(f"{family:>10s} {size:>10d}  over the {budget:g} s budget; "
                      f"{family} stops here")
                break
            if done.returncode != 0:
                print(f"{family:>10s} {size:>10d}  failed: {done.stderr.strip()[-300:]}")
                ok = False
                break
            row = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and row["correct"]
            cells = [f"{row['family']:>10s}", f"{size:>10d}"]
            for h in header[2:]:
                value = row[h]
                cells.append(f"{value:>10.4f}" if isinstance(value, float) else f"{value!s:>10s}")
            print(" ".join(cells), flush=True)
    return 0 if ok else 1
