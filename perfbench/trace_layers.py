"""Per-layer tracing of cpseq, installed from outside the package.

Each traced function is replaced where callers look it up at call time: on
its class for methods, and on every ``cpseq`` module that holds the function
object for module-level functions (``rl.py`` and ``harness.py`` bind the
names they import, so wrapping only the defining module would miss them).
Nothing under ``src/`` is edited, and the originals are restored on exit.

A span records a name, start and end (``perf_counter_ns``), the index of the
enclosing span, an operation id, and the rows or tokens the call handled.
Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    op: str
    work: int  # rows or tokens handled; 0 where the layer counts none


def _rows_first(args, result) -> int:
    return len(args[0])


def _rows_second(args, result) -> int:  # methods: args[0] is self
    return len(args[1])


def _sampled_tokens(args, result) -> int:
    return len(result.tokens)


def _tally_step(tally: Counter, args, result) -> None:
    metrics, _ = result
    tally["rl.sampled"] += metrics.n_sampled
    tally["rl.valid"] += metrics.n_valid


def _tally_run(tally: Counter, args, result) -> None:
    tally["rl.run_unique_valid"] += len(result.unique_valid)


def _tally_cells(tally: Counter, args, result) -> None:
    tally["harness.cells"] += len(result.rows)
    tally["harness.cells_failed"] += sum(1 for row in result.rows if row.status != "ok")


# (span name, "module:qualified name", work counter, outcome tally)
TRACED = (
    ("domain.fingerprints", "cpseq.domain:fingerprints", _rows_first, None),
    ("boosting.fit", "cpseq.boosting:BoostedTreeClassifier.fit", _rows_second, None),
    ("boosting.predict", "cpseq.boosting:BoostedTreeClassifier.predict_margin", _rows_second, None),
    ("boosting.load", "cpseq.boosting:BoostedTreeClassifier.load", None, None),
    ("conformal.p_values", "cpseq.conformal:Acp.p_values_batch", _rows_second, None),
    ("conformal.calibrate", "cpseq.conformal:calibrate_icp", None, None),
    ("conformal.build_acp", "cpseq.conformal:build_acp", None, None),
    ("conformal.load", "cpseq.conformal:load_acp", None, None),
    ("scoring.score", "cpseq.scoring:score", None, None),
    ("policy.sample", "cpseq.policy:Policy.sample", _sampled_tokens, None),
    ("policy.nll", "cpseq.policy:Policy.nll", None, None),
    ("policy.nll_and_grad", "cpseq.policy:Policy.nll_and_grad", None, None),
    ("policy.sgd_step", "cpseq.policy:Policy.sgd_step", None, None),
    ("policy.load", "cpseq.policy:Policy.load", None, None),
    ("policy.pretrain", "cpseq.policy:pretrain_prior", None, None),
    ("policy.fill_validity", "cpseq.policy:fill_validity", None, None),
    ("rl.scorer", "cpseq.rl:SequenceScorer.evaluate", _rows_second, None),
    ("rl.step", "cpseq.rl:rl_step", None, _tally_step),
    ("rl.run", "cpseq.rl:run_rl", None, _tally_run),
    ("harness.run_campaign", "cpseq.harness:run_campaign", None, _tally_cells),
    ("harness.write", "cpseq.rl:RunRecord.write_csv", None, None),
    ("harness.write", "cpseq.harness:write_summary_csv", None, None),
    ("harness.write", "cpseq.harness:write_wilcoxon_csv", None, None),
    ("harness.write", "cpseq.harness:write_length_summary_csv", None, None),
    ("harness.wilcoxon", "cpseq.harness:wilcoxon_vs_baseline", None, None),
    ("harness.report", "cpseq.harness:regenerate_report", None, None),
)


class Tracer:
    """Collects spans from the wrapped functions while installed (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tally: Counter = Counter()
        self.op = ""
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work, tally):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, open_spans[-1] if open_spans else -1, self.op, 0)
            open_spans.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                open_spans.pop()
            if work is not None:
                span.work = work(args, result)
            if tally is not None:
                tally(self.tally, args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "cpseq" or n.startswith("cpseq.")]
        for name, target, work, tally in TRACED:
            module_name, _, qualname = target.partition(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if path:  # a method, looked up on its class
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, work, tally))
                else:
                    wrapped = self._wrap(name, original, work, tally)
                self._replace(owner, attr, wrapped)
            else:  # a function, looked up in each module that imported it
                wrapped = self._wrap(name, original, work, tally)
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, alias, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start and end (ns from the first span), parent, op, work."""
        origin = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start_ns - origin, s.end_ns - origin, s.parent, s.op, s.work]))
                f.write("\n")


def self_times_ns(spans: list[Span]) -> tuple[list[int], list[int]]:
    """Per span: total duration and self time (duration minus the children's durations).

    Calls are single-threaded, so children never overlap and their durations sum.
    """
    durations = [s.end_ns - s.start_ns for s in spans]
    child_total = [0] * len(spans)
    for s, d in zip(spans, durations):
        if s.parent >= 0:
            child_total[s.parent] += d
    return durations, [d - c for d, c in zip(durations, child_total)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced unit, as name -> (value, unit)."""
    spans = tracer.spans
    durations, self_ns = self_times_ns(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    work: Counter = Counter()
    step_ms = []
    misses = 0
    for s, d, own_ns in zip(spans, durations, self_ns):
        calls[s.name] += 1
        total[s.name] += d
        own[s.name] += own_ns
        work[s.name] += s.work
        if s.name == "rl.step":
            step_ms.append(d / 1e6)
        elif s.name == "domain.fingerprints" and s.parent >= 0 and spans[s.parent].name == "rl.scorer":
            misses += s.work  # rows fingerprinted inside evaluate are cache misses
    tally = tracer.tally
    lookups = work["rl.scorer"]

    def secs(counter: Counter, name: str) -> float:
        return counter[name] / 1e9

    def percentile(values: list[float], q: int) -> float:
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    out = {}
    for layer in ("boosting.predict", "conformal.p_values"):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.rows"] = (work[layer], "count")
        out[f"{layer}.self_s"] = (secs(own, layer), "s")
    out.update({
        "boosting.fit.calls": (calls["boosting.fit"], "count"),
        "boosting.fit.s": (secs(total, "boosting.fit"), "s"),
        "conformal.calibrate.s": (secs(total, "conformal.calibrate"), "s"),
        "conformal.build_acp.s": (secs(total, "conformal.build_acp"), "s"),
        "conformal.build_acp.self_s": (secs(own, "conformal.build_acp"), "s"),
        "boosting.load.s": (secs(total, "boosting.load"), "s"),
        "conformal.load.s": (secs(total, "conformal.load"), "s"),
        "policy.load.s": (secs(total, "policy.load"), "s"),
        "rl.scorer.calls": (calls["rl.scorer"], "count"),
        "rl.scorer.lookups": (lookups, "count"),
        "rl.scorer.misses": (misses, "count"),
        "rl.scorer.hit_ratio": (_ratio(lookups - misses, lookups), "ratio"),
        "rl.scorer.self_s": (secs(own, "rl.scorer"), "s"),
        "policy.sample.calls": (calls["policy.sample"], "count"),
        "policy.sample.self_s": (secs(own, "policy.sample"), "s"),
        "policy.tokens": (work["policy.sample"], "count"),
    })
    for layer in ("policy.nll", "policy.nll_and_grad"):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (secs(own, layer), "s")
    out.update({
        "policy.sgd_step.self_s": (secs(own, "policy.sgd_step"), "s"),
        "policy.pretrain.s": (secs(total, "policy.pretrain"), "s"),
        "policy.fill_validity.s": (secs(total, "policy.fill_validity"), "s"),
        "rl.step.calls": (calls["rl.step"], "count"),
        "rl.step.self_s": (secs(own, "rl.step"), "s"),
        "rl.step_ms.p50": (percentile(step_ms, 50), "ms"),
        "rl.step_ms.p95": (percentile(step_ms, 95), "ms"),
        "rl.run.self_s": (secs(own, "rl.run"), "s"),
        "rl.valid_ratio": (_ratio(tally["rl.valid"], tally["rl.sampled"]), "ratio"),
        "rl.unique_ratio": (_ratio(tally["rl.run_unique_valid"], tally["rl.valid"]), "ratio"),
        "domain.fingerprints.rows": (work["domain.fingerprints"], "count"),
        "domain.fingerprints.self_s": (secs(own, "domain.fingerprints"), "s"),
        "scoring.score.calls": (calls["scoring.score"], "count"),
        "scoring.score.self_s": (secs(own, "scoring.score"), "s"),
        "harness.cells": (tally["harness.cells"], "count"),
        "harness.cells_failed": (tally["harness.cells_failed"], "count"),
        "harness.run_campaign.self_s": (secs(own, "harness.run_campaign"), "s"),
        "harness.write.s": (secs(total, "harness.write"), "s"),
        "harness.wilcoxon.s": (secs(total, "harness.wilcoxon"), "s"),
        "harness.report.s": (secs(total, "harness.report"), "s"),
        "trace.spans": (len(spans), "count"),
    })
    return out
