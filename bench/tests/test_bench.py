"""Self-test of the benchmark: python3 -m pytest bench/tests -q (from the repository root).

Runs each workload briefly in both modes and checks that every metric in
BENCHMARK.json is reported, that a wrong answer is counted as a failure,
and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if name != "trace.overhead_frac":
            # never 0: the layer probes in every round reach every traced function
            assert metric["value"] > 0, name


def test_wrong_answer_is_counted():
    expected = workloads.load_expected()
    wrong = json.loads(json.dumps(expected))
    wrong["counts"]["classes/3/4"] += 1
    rng = random.Random(0)
    a = workloads.random_grid(rng, 3, 6)
    b, _, _ = workloads.partner(rng, a, 3, "none")
    inputs = workloads.Inputs(ROOT / ".bench_out" / "selftest")
    requests = [
        workloads.count_request("count", expected, "classes", 3, 4),
        workloads.count_request("count", wrong, "classes", 3, 4),
        # a no-pair presented as switching equivalent: the program's correct "no" is a wrong answer here
        workloads.equiv_request("equiv", inputs, 3, a, b, "switch"),
    ]
    result = worker.end_to_end(worker.serve(iter([requests]), 0.0))
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["failed_frac"] > 0
    assert all(kind in ("count", "equiv") for kind, _ in result["first_failures"])
    shutil.rmtree(inputs.directory)


def test_facet_oracles_agree():
    rng = random.Random(1)
    for l, n in ((2, 7), (3, 8), (5, 9)):
        e = workloads.random_grid(rng, l, n)
        facets = oracle.facets_exhaustive(e, l)
        assert oracle.facets_problem(e, l, facets) is None
        assert oracle.facets_problem(e, l, facets[1:]) is not None


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
