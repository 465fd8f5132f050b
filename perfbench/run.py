#!/usr/bin/env python3
"""Benchmark for cpseq: the explore, campaign and artifacts workloads.

Run from the repository root:

    python3 perfbench/run.py --workload explore --seed 0 --seconds 35 --trace 0

It builds nothing: cpseq is imported from ``src/`` next to this directory.
A run times its set-up several times, then runs the workload's samples once
each and again in turn while the next one fits in ``--seconds``. With
``--trace 0`` the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, where the
metrics are the end-to-end ones named in ``BENCHMARK.json``. With
``--trace 1`` each sample runs untraced and then traced, and the metrics are
the per-layer ones. The line before it is a JSON stamp: machine, versions,
seed, output digests and per-build timings. Results, spans and working files
go under ``perfbench/out/`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("explore", "campaign", "artifacts")
BLAS_THREADS = "1"  # the workloads are single-process; one BLAS thread keeps timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    p.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    p.add_argument("--build-cache", type=Path, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and args.build_cache is None:
        p.error("--workload is required")
    return args


def _rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
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
    return None


def stamp(args, source_digest: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _commit(),
        "source_sha256": source_digest,
    }


def run_samples(samples, seconds: float, trace_with=None):
    """Run every sample once, then cycle through them again while the next one fits in seconds.

    With trace_with, each sample runs untraced and then traced under
    trace_with(first_pass): the first pass goes to the tracer whose spans are
    kept, later passes to throwaway ones. Returns (first pass, every untraced
    run, every traced run); a run is a (sample index, Sample) pair.
    """
    first, runs, traced = [], [], []
    cost = 2 if trace_with else 1
    start = time.perf_counter()
    for i in itertools.count():
        j = i % len(samples)
        if i >= len(samples) and time.perf_counter() - start + cost * first[j].seconds > seconds:
            break
        runs.append((j, samples[j]()))
        if i < len(samples):
            first.append(runs[-1][1])
        if trace_with is not None:
            with trace_with(i < len(samples)) as tracer:
                tracer.op = f"sample{i}"
                traced.append((j, samples[j]()))
    return first, runs, traced


def measure(args) -> tuple[dict, dict]:
    """Run one workload; return (result line, stamp line)."""
    import trace_layers
    import workloads as w

    scale = w.SCALES[args.scale]
    work = w.fresh_dir(args.out / "work" / f"{args.workload}-s{args.seed}-t{args.trace}")
    load = w.workload(args.workload, scale, args.scale, args.seed, SRC, args.out, work)

    if args.trace:
        tracer = trace_layers.Tracer()
        with tracer:
            tracer.op = "setup"
            state = load.setup()
        setups = 1
        rss_setup = _rss_mb()
        first, runs, traced = run_samples(
            load.samples(state), args.seconds, lambda keep: tracer if keep else trace_layers.Tracer()
        )
        tracer.write(work / "spans.jsonl")
        layers = trace_layers.layer_metrics(tracer)
        untraced_s = statistics.median(r.seconds for _, r in runs)
        traced_s = statistics.median(r.seconds for _, r in traced)
        layers["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        layers["conformal.artifact_bytes"] = (load.acp_file.stat().st_size, "bytes")
        layers["mem.rss_growth_mb"] = (_peak_rss_mb() - rss_setup, "MB")
        metrics = {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in layers.items()}
        runs += traced
    else:
        setup_s, setups, state = w.median_time(load.setup, scale.setup_repeats, scale.setup_seconds)
        first, runs, _ = run_samples(load.samples(state), args.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "work_s": {"value": statistics.median(r.seconds for _, r in runs), "unit": "s"},
            "conf_hits": {"value": sum(r.conf_hits for r in first), "unit": "count"},
            "unique_valid": {"value": sum(r.unique_valid for r in first), "unit": "count"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }

    failures = [f for _, r in runs for f in r.failures]
    for j, r in runs:  # the same inputs must give the same outputs, traced or not
        if (r.digest, r.conf_hits, r.unique_valid) != (first[j].digest, first[j].conf_hits, first[j].unique_valid):
            failures.append(f"sample {j} gave different outputs when repeated")
    attempted = sum(r.operations for _, r in runs)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }

    digest = hashlib.sha256("".join(r.digest for r in first).encode()).hexdigest()
    golden = json.loads((BENCH_DIR / "baseline.json").read_text())["digests"]
    expected = golden.get(args.workload, {}).get(str(args.seed)) if args.scale == "full" else None
    info = stamp(args, w.source_digest(SRC))
    info.update(
        samples=len(runs),
        sample_seconds=[r.seconds for _, r in runs],
        setups=setups,
        cache_build_s=load.cache_build_s,
        details={k: statistics.median(r.details[k] for _, r in runs) for k in first[0].details},
        digest=digest,
        behaviour_changed=None if expected is None else digest != expected,
        failures=failures,
    )
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpseq" / "__init__.py").is_file():
        print(f"error: cpseq sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import workloads

    if args.build_cache is not None:
        workloads.build_cache(args.build_cache, workloads.SCALES[args.scale])
        return 0
    result, info = measure(args)
    results = args.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps({"stamp": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
