"""Spans around adlog's public functions, recorded from outside the package.

`Tracer.install` replaces each function named in LAYERS, in every loaded
`adlog` module namespace that binds it, by a wrapper that records a span:
name, start, end, parent span and transaction id.  Modules such as
`adlog.update` import names directly, so each binding gets its own wrapper.
Garbage collections are recorded as `runtime.gc` spans through
`gc.callbacks`.  Spans stay in memory until `write`.

A span's self time is its duration minus the time its child spans cover.
Counting done after a call (sizes of its input and result) counts as covered
by the call's span, so it is left out of every span's self time.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from time import perf_counter

# (module, function) -> span name.  Span names are the layers of the report.
LAYERS = {
    ("adlog.parse", "parse_program"): "parse",
    ("adlog.parse", "parse_database"): "parse",
    ("adlog.parse", "parse_delta"): "parse",
    ("adlog.model", "validate_update_program"): "model.validate",
    ("adlog.rewrite", "rewrite_st"): "rewrite.rewrite",
    ("adlog.rewrite", "rewrite_bm"): "rewrite.rewrite",
    ("adlog.rewrite", "embed_database"): "rewrite.embed",
    ("adlog.rewrite", "ground"): "rewrite.ground",
    ("adlog.stable", "well_founded"): "stable.well_founded",
    ("adlog.stable", "enumerate_pstable"): "stable.enumerate",
    ("adlog.stable", "classify"): "stable.classify",
    ("adlog.update", "run"): "update.session",
    ("adlog.update", "compare"): "update.session",
    ("adlog.update", "extract_updates"): "update.apply",
    ("adlog.update", "apply_updates"): "update.apply",
    ("adlog.cli", "main"): "cli",
}

TXN = "bench.txn"
GC = "runtime.gc"

# Span fields, kept as lists for low overhead.
NAME, START, END, COVERED, PARENT, TXN_ID, COUNTS = range(7)


def _ground_counts(tracer, index, args, kwargs, result):
    program = args[0]
    constants = len(program.constants() | set(kwargs.get("extra_constants", ())))
    naive = sum(constants ** len(rule.variables()) for rule in program.rules)
    return {"constants": constants, "naive_instances": naive,
            "rules_kept": len(result.rules), "universe": len(result.universe)}


def _rewrite_counts(tracer, index, args, kwargs, result):
    return {"rules": len(result.rules)}


def _wf_counts(tracer, index, args, kwargs, result):
    return {"residue_atoms": result.undefined_count}


def _enumerate_counts(tracer, index, args, kwargs, result):
    # The residue is that of the well-founded model enumerate computes first;
    # compute it here if enumerate no longer calls well_founded.
    residue = next((span[COUNTS]["residue_atoms"] for span in tracer.spans[index + 1:]
                    if span[NAME] == "stable.well_founded" and span[PARENT] == index), None)
    if residue is None:
        residue = tracer.originals[("adlog.stable", "well_founded")](args[0]).undefined_count
    return {"candidates": 3 ** residue, "models": len(result.records)}


def _run_counts(tracer, index, args, kwargs, result):
    return {"rejected": int(not result.applied)}


def _compare_counts(tracer, index, args, kwargs, result):
    return {"rejected": sum(1 for row in result.rows
                            if row.report is not None and not row.report.applied)}


COUNTERS = {
    ("adlog.rewrite", "ground"): _ground_counts,
    ("adlog.rewrite", "rewrite_st"): _rewrite_counts,
    ("adlog.rewrite", "rewrite_bm"): _rewrite_counts,
    ("adlog.stable", "well_founded"): _wf_counts,
    ("adlog.stable", "enumerate_pstable"): _enumerate_counts,
    ("adlog.update", "run"): _run_counts,
    ("adlog.update", "compare"): _compare_counts,
}


class Tracer:
    """In-memory span recorder; install, run transactions, uninstall, then report."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.originals: dict[tuple[str, str], object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._txn: int | None = None
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, 0.0, parent, self._txn, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, end: float, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[END] = end
        span[COUNTS] = counts
        span[COVERED] = perf_counter()
        self._stack.pop()

    def transaction(self, txn_id: int, call, *args):
        """Run `call(*args)` as the root span of transaction `txn_id`."""
        self._txn = txn_id
        index = self.open(TXN)
        try:
            return call(*args)
        finally:
            self.close(index, perf_counter())
            self._txn = None

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                refused = type(exc).__name__ == "ResourceLimitError"
                tracer.close(index, perf_counter(), {"refused": 1} if refused else None)
                raise
            end = perf_counter()
            counts = counter(tracer, index, args, kwargs, result) if counter else None
            tracer.close(index, end, counts)
            return result

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append([GC, self._gc_start, now, now, parent, self._txn, None])

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each LAYERS function in the loaded adlog modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "adlog" or n.startswith("adlog."))]
        for (module_name, attr), name in LAYERS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.originals[(module_name, attr)] = fn
            wrapper = self._wrap(fn, name, COUNTERS.get((module_name, attr)))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, binding, fn))
                        setattr(module, binding, wrapper)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for module, binding, fn in reversed(self._patches):
            setattr(module, binding, fn)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[COVERED] - span[START]
        return [span[END] - span[START] - c for span, c in zip(self.spans, covered)]

    def totals(self, scale: list[float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and the sum of each counter.

        With `scale`, the self time of a span in transaction i is multiplied
        by scale[i].
        """
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            if scale is not None and span[TXN_ID] is not None:
                self_s *= scale[span[TXN_ID]]
            entry["self_s"] += self_s
            for key, value in (span[COUNTS] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "txn": span[TXN_ID],
                    "parent": span[PARENT], "start": span[START] - origin,
                    "end": span[END] - origin, "self": self_s,
                    "counts": span[COUNTS]}) + "\n")
