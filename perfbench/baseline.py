#!/usr/bin/env python3
"""Write baseline.json from the untraced full-scale results under out/results/.

    python3 perfbench/baseline.py [--results perfbench/out/results]

For each workload it records the median and quartiles of every end-to-end
metric and of every part in the stamp's ``details`` over the seeds found,
the machine stamp, and the output digest of each seed, which later runs
compare against to report ``behaviour_changed``. All results of one workload
must come from one source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MACHINE_KEYS = ("nproc", "python", "numpy", "blas_threads", "commit", "source_sha256", "seconds")


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--results", type=Path, default=BENCH_DIR / "out" / "results")
    args = p.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for path in sorted(args.results.glob("*-t0.json")):
        run = json.loads(path.read_text())
        if run["stamp"]["scale"] == "full":
            runs.setdefault(run["stamp"]["workload"], []).append(run)
    baseline = {"machine": None, "results": {}, "digests": {}}
    for workload, rows in sorted(runs.items()):
        stamps = [r["stamp"] for r in rows]
        if len({s["source_sha256"] for s in stamps}) != 1:
            raise SystemExit(f"{workload}: results from more than one source tree")
        baseline["machine"] = {k: stamps[0][k] for k in MACHINE_KEYS}
        results = {"seeds": sorted(s["seed"] for s in stamps)}
        for name, metric in rows[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            results[name] = {**_summary(values), "unit": metric["unit"]}
        for name in stamps[0]["details"]:
            results[f"details.{name}"] = _summary([s["details"][name] for s in stamps])
        baseline["results"][workload] = results
        baseline["digests"][workload] = {str(s["seed"]): s["digest"] for s in sorted(stamps, key=lambda s: s["seed"])}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
