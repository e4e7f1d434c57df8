"""One benchmark run: set-up probes, the closed loop, and the traced loop.

The closed loop has one client: a transaction starts only when the previous
one has returned.  A transaction is timed from its input text to its output
database.  Generating it, writing its input files and checking its output
against the reference happen between transactions and are not timed.
End-to-end metrics always come from an untraced loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import adlog
import adlog.parse
import adlog.update
import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
WARMUP_TRANSACTIONS = 2
# The traced loop runs a fixed prefix of the stream (five whole cycles), so
# its counters repeat exactly for a seed and its times compare across versions.
TRACED_TRANSACTIONS = 5 * workloads.CYCLE
PINNED_CASCADE_OUTPUT = "mgr(x,p,d)?\n"

END_TO_END = (("txn_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# metric, unit, span name, field of the span totals
PER_LAYER = (
    ("rewrite.ground.time_s", "s", "rewrite.ground", "self_s"),
    ("rewrite.ground.calls", "count", "rewrite.ground", "calls"),
    ("rewrite.ground.constants", "count", "rewrite.ground", "constants"),
    ("rewrite.ground.rules_kept", "count", "rewrite.ground", "rules_kept"),
    ("rewrite.ground.universe", "count", "rewrite.ground", "universe"),
    ("rewrite.ground.naive_instances", "count", "rewrite.ground", "naive_instances"),
    ("runtime.gc.time_s", "s", spans.GC, "self_s"),
    ("runtime.gc.collections", "count", spans.GC, "calls"),
    ("stable.well_founded.time_s", "s", "stable.well_founded", "self_s"),
    ("stable.well_founded.calls", "count", "stable.well_founded", "calls"),
    ("stable.residue_atoms", "count", "stable.well_founded", "residue_atoms"),
    ("stable.enumerate.time_s", "s", "stable.enumerate", "self_s"),
    ("stable.enumerate.candidates", "count", "stable.enumerate", "candidates"),
    ("stable.enumerate.models", "count", "stable.enumerate", "models"),
    ("stable.enumerate.refused", "count", "stable.enumerate", "refused"),
    ("stable.classify.time_s", "s", "stable.classify", "self_s"),
    ("parse.time_s", "s", "parse", "self_s"),
    ("parse.calls", "count", "parse", "calls"),
    ("model.validate.time_s", "s", "model.validate", "self_s"),
    ("rewrite.rewrite.time_s", "s", "rewrite.rewrite", "self_s"),
    ("rewrite.rules", "count", "rewrite.rewrite", "rules"),
    ("rewrite.embed.time_s", "s", "rewrite.embed", "self_s"),
    ("update.apply.time_s", "s", "update.apply", "self_s"),
    ("update.session.self_s", "s", "update.session", "self_s"),
    ("update.rejected", "count", "update.session", "rejected"),
    ("cli.self_s", "s", "cli", "self_s"),
)
# metric, span name, numerator field, denominator field
YIELDS = (("rewrite.ground.yield", "rewrite.ground", "rules_kept", "naive_instances"),
          ("stable.enumerate.yield", "stable.enumerate", "models", "candidates"))


@dataclass
class Loop:
    """What one closed loop saw, one entry per attempted transaction.

    `kernel_times` has one calibration time before each transaction and one
    after the last; `scaled` is `elapsed` scaled by them.
    """

    elapsed: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    shapes: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.elapsed)

    @property
    def scaled(self) -> list[float]:
        return calibrate.scale(self.elapsed, self.kernel_times)

    @staticmethod
    def rate(times: list[float], ok: list[bool]) -> float:
        """Passing transactions per second of transaction time."""
        return sum(ok) / sum(times) if times else 0.0


def digest(output) -> str:
    return hashlib.sha256(json.dumps(output).encode()).hexdigest()[:16]


def closed_loop(workload: str, seed: int, executor: workloads.Executor, *,
                seconds: float = 0.0, count: int = 0,
                tracer: spans.Tracer | None = None) -> Loop:
    """Replay the stream from transaction 0 for `count` transactions, or for `seconds`.

    A timed loop ends at the first cycle boundary after `seconds`, so every
    run has the workload's mix of sizes exactly.
    """
    loop = Loop()
    deadline = perf_counter() + seconds
    index = 0
    while index < count if count else (index % workloads.CYCLE or perf_counter() < deadline):
        txn = workloads.transaction(workload, seed, index)
        executor.prepare(txn)
        loop.kernel_times.append(calibrate.kernel())
        start = perf_counter()
        try:
            if tracer is None:
                raw = executor.execute(txn)
            else:
                raw = tracer.transaction(index, executor.execute, txn)
            elapsed = perf_counter() - start
            got = executor.normalize(txn, raw)
        except Exception:  # a failed transaction is counted, the run goes on
            loop.elapsed.append(perf_counter() - start)
            loop.ok.append(False)
            loop.digests.append("raised")
            loop.failures.append(f"transaction {index} ({txn.shape}) raised:\n"
                                 + traceback.format_exc())
        else:
            loop.elapsed.append(elapsed)
            loop.ok.append(got == txn.expected)
            loop.digests.append(digest(got))
            if not loop.ok[-1]:
                loop.failures.append(f"transaction {index} ({txn.shape}) output {got!r} "
                                     f"differs from reference {txn.expected!r}")
        loop.shapes[txn.shape] += 1
        index += 1
    loop.kernel_times.append(calibrate.kernel())
    return loop


def warm_up(workload: str, seed: int, executor: workloads.Executor) -> None:
    for index in range(WARMUP_TRANSACTIONS):
        txn = workloads.transaction(workload, seed, index)
        executor.prepare(txn)
        executor.execute(txn)


def setup_times(txn: workloads.Transaction, probes: int = SETUP_PROBES) -> list[dict]:
    """Set-up probes of `probes` fresh interpreters, after one untimed probe."""
    job = json.dumps({"src": str(SRC), "bench": str(HERE), "program": txn.program,
                      "database": txn.database, "delta": txn.delta})
    probes_seen = []
    for probe in range(probes + 1):
        done = subprocess.run([sys.executable, "-I", str(HERE / "setup_probe.py")],
                              input=job, capture_output=True, text=True, timeout=120,
                              check=True)
        if probe:
            probes_seen.append(json.loads(done.stdout))
    return probes_seen


def anchor_problems() -> list[str]:
    """The smallest cascade instance must be the fixture, with its pinned ws output."""
    fixtures = SRC / "adlog" / "fixtures"
    parse = adlog.parse
    txn = workloads.cascade_family(1)
    problems = []
    pairs = ((parse.parse_program, txn.program, "project_cascade.adl"),
             (parse.parse_database, txn.database, "project_cascade.adb"),
             (parse.parse_delta, txn.delta, "project_cascade.adu"))
    for parse_fn, text, name in pairs:
        if parse_fn(text) != parse_fn((fixtures / name).read_text(encoding="utf-8")):
            problems.append(f"smallest cascade instance differs from fixtures/{name}")
    up = adlog.UpdateProgram(parse.parse_delta(txn.delta), parse.parse_program(txn.program))
    report = adlog.update.run(up, parse.parse_database(txn.database), adlog.Semantics.WS)
    rendered = adlog.render(report.output_db)
    if rendered != PINNED_CASCADE_OUTPUT:
        problems.append(f"fixture ws output {rendered!r} is not {PINNED_CASCADE_OUTPUT!r}")
    if workloads.Executor(str(OUT)).normalize(txn, report) != txn.expected:
        problems.append("cascade reference disagrees with the pinned fixture output")
    return problems


def percentile_90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def timings(times: list[float], ok: list[bool], setup: list[float]) -> dict[str, float]:
    passed = [t for t, good in zip(times, ok) if good] or [0.0]
    return {"txn_per_s": Loop.rate(times, ok),
            "latency_p50_ms": statistics.median(passed) * 1e3,
            "latency_p90_ms": percentile_90(passed) * 1e3,
            "setup_s": statistics.median(setup)}


def per_layer(totals: dict, traced: Loop, untraced: Loop) -> dict[str, tuple[float, str]]:
    def get(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    out = {metric: (get(span, key), unit) for metric, unit, span, key in PER_LAYER}
    for metric, span, num, den in YIELDS:
        out[metric] = (get(span, num) / get(span, den) if get(span, den) else 0.0, "ratio")
    # Throughput ratio over the transactions both loops ran, so the mix is the same.
    common = min(traced.attempted, untraced.attempted)
    traced_s = sum(traced.scaled[:common])
    out["trace.overhead_ratio"] = (sum(untraced.scaled[:common]) / traced_s
                                   if traced_s else 0.0, "ratio")
    return out


def layer_shares(totals: dict) -> list[str]:
    """Human-readable table of self time per span name, largest first."""
    whole = sum(entry["self_s"] for entry in totals.values()) or 1.0
    rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])
    return [f"  {name:22s} {entry['self_s']:9.4f} s {100 * entry['self_s'] / whole:6.1f} %"
            f"  calls {entry['calls']}" for name, entry in rows]


def git_head(root: Path) -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adlog").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, metadata record)."""
    OUT.mkdir(exist_ok=True)
    executor = workloads.Executor(str(OUT / "txn"))
    problems = anchor_problems()
    setup = [] if trace else setup_times(workloads.transaction(workload, seed, 0))
    warm_up(workload, seed, executor)
    untraced = closed_loop(workload, seed, executor, seconds=seconds)
    loops = [untraced]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "python": platform.python_version(), "nproc": nproc(),
              "adlog_commit": git_head(ROOT), "adlog_source_sha256": source_digest(),
              "client": "closed loop, one client, one thread",
              "reference_kernel_ms": calibrate.REFERENCE_S * 1e3,
              "samples": {"transactions": untraced.attempted,
                          "latency_p50_ms": sum(untraced.ok),
                          "latency_p90_ms": sum(untraced.ok)}}
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, seed, executor, count=TRACED_TRANSACTIONS,
                                 tracer=tracer)
        finally:
            tracer.uninstall()
        loops.append(traced)
        totals = tracer.totals(calibrate.factors(traced.kernel_times, traced.attempted))
        metrics = per_layer(totals, traced, untraced)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        record.update(spans_file=str(spans_path.relative_to(ROOT)),
                      traced_transactions=traced.attempted,
                      unwrapped=tracer.missing, layer_shares=layer_shares(totals))
    else:
        values = timings(untraced.scaled, untraced.ok, [p["scaled_s"] for p in setup])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        metrics = {name: (value, units[name]) for name, value in values.items()}
        p90 = values["latency_p90_ms"] / 1e3
        record["samples"]["beyond_p90"] = sum(
            1 for t, good in zip(untraced.scaled, untraced.ok) if good and t > p90)
        record["samples"]["setup_probes"] = len(setup)
        record["unscaled"] = timings(untraced.elapsed, untraced.ok, [p["seconds"] for p in setup])
        record["kernel_median_ms"] = statistics.median(untraced.kernel_times) * 1e3
    failures = problems + [f for loop in loops for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.attempted - sum(loop.ok) for loop in loops)
    record.update(shapes=dict(sorted(untraced.shapes.items())),
                  fail_rate=failed / attempted if attempted else 1.0,
                  failures=failures[:5],
                  stream_sha256=hashlib.sha256("".join(untraced.digests).encode()).hexdigest(),
                  transaction_digests=untraced.digests)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"record": record, "result": result}) + "\n")
    return result, record
