"""Smoke test of the benchmark at the test suite's tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced at tiny scale. The test checks that
each metric named in BENCHMARK.json is printed with its unit, that self
times are not negative, and that no span's children add up to more than it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(out: Path, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_spans(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if m["unit"] == "s":
            assert got["value"] >= 0, m["name"]

    if trace:
        (spans_file,) = (tmp_path / "work").glob("*/spans.jsonl")
        spans = [json.loads(line) for line in spans_file.open()]
        assert spans
        children = [0] * len(spans)
        for name, start, end, parent, op, work in spans:
            assert end >= start
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2], name
                children[parent] += end - start
        for (name, start, end, *_), child_ns in zip(spans, children):
            assert child_ns <= end - start, name


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "out", "explore", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
