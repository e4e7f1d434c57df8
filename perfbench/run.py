#!/usr/bin/env python3
"""adlog benchmark: seeded streams of update transactions, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # every end-to-end metric, every workload
    python3 perfbench/run.py --selftest                     # anchors, references, determinism
    python3 perfbench/run.py --sweep --budget 30            # scaling sweep, not gated

A single-workload run prints its metadata record as a JSON line and, as the
last line, {"correct", "attempted", "failed", "metrics"}.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
loop.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cascade", "chain", "choice")
CHILD_TIMEOUT_S = 170


def _child(args: list[str], env: dict | None = None) -> tuple[dict, dict]:
    """Run this script on one workload in a fresh process; returns (record, result)."""
    done = subprocess.run([sys.executable, str(HERE / "run.py")] + args, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, env=env)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py {' '.join(args)} failed:\n{done.stderr}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def all_workloads(seed: int, seconds: int) -> int:
    """Print every end-to-end metric by name and unit for every workload."""
    import bench
    results = {w: _child(["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"]) for w in WORKLOADS}
    print(f"{'metric':16s} {'unit':5s} " + " ".join(f"{w:>12s}" for w in WORKLOADS))
    for name, unit in bench.END_TO_END:
        cells = " ".join(f"{results[w][1]['metrics'][name]['value']:12.4f}" for w in WORKLOADS)
        print(f"{name:16s} {unit:5s} {cells}")
    print(f"{'fail_rate':16s} {'ratio':5s} "
          + " ".join(f"{results[w][0]['fail_rate']:12.4f}" for w in WORKLOADS))
    print(f"{'samples':16s} {'count':5s} "
          + " ".join(f"{results[w][0]['samples']['latency_p90_ms']:12d}" for w in WORKLOADS))
    return 0 if all(results[w][1]["correct"] for w in WORKLOADS) else 1


def selftest(seeds: tuple[int, int] = (1, 2)) -> int:
    """Anchors, references on two seeds, and identical digests from two processes."""
    import bench
    import workloads
    problems = bench.anchor_problems()
    executor = workloads.Executor(str(bench.OUT / "txn"))
    bench.OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in seeds:
            for index in range(20):
                txn = workloads.transaction(workload, seed, index)
                executor.prepare(txn)
                got = executor.normalize(txn, executor.execute(txn))
                if got != txn.expected:
                    problems.append(f"{workload} seed {seed} transaction {index}: {got!r} "
                                    f"!= {txn.expected!r}")
        print(f"{workload}: references hold on seeds {seeds[0]} and {seeds[1]}, 20 transactions each")
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            record, result = _child(["--workload", workload, "--seed", str(seeds[0]),
                                     "--seconds", "2", "--trace", "0"], env)
            if not result["correct"]:
                problems.append(f"{workload}: run failed: {record['failures']}")
            digests.append(record["transaction_digests"])
        common = min(len(d) for d in digests)
        if common < 3 or digests[0][:common] != digests[1][:common]:
            problems.append(f"{workload}: output digests differ between two runs of seed "
                            f"{seeds[0]}")
        print(f"{workload}: {common} transaction digests identical in two processes")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="sweep: wall-time budget per point, in seconds")
    parser.add_argument("--sweep-point", nargs=2, metavar=("FAMILY", "SIZE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "adlog" / "__init__.py").is_file():
        print(f"error: adlog sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.sweep_point:
        import sweep
        return sweep.point(args.sweep_point[0], int(args.sweep_point[1]))
    if args.sweep:
        import sweep
        return sweep.sweep(args.budget)
    if args.selftest:
        return selftest()
    if args.workload == "all":
        return all_workloads(args.seed, args.seconds)

    import bench
    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record.pop("layer_shares", []):
        print(line)
    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
