"""Tests of the benchmark itself, at tiny inputs.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracer import self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def _run(*args):
    return subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def plain():
    return _result(_run("--seed", "5", "--trace", "0"))


@pytest.fixture(scope="module")
def traced_twice():
    return [_result(_run("--seed", "5", "--trace", "1")) for _ in range(2)]


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.child", 1, 2.0, 3.0),
        ("b", 0, 3.0, 6.0),      # overlaps a: the union [1, 6] counts once
        ("c", 0, 8.0, 12.0),     # runs past the parent: clipped to [8, 10]
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_workload_names_match_benchmark_json(spec):
    import run

    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert spec["command"] == ["python3", "bench/run.py"]


def test_every_workload_passes_its_gates_and_prints_end_to_end_metrics(spec, plain):
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(plain) == {w["name"] for w in spec["workloads"]}
    for name, result in plain.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == expected, name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_run_prints_per_layer_metrics(spec, traced_twice):
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, result in traced_twice[0].items():
        assert result["correct"], name
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == expected, name


def test_per_layer_counts_repeat_exactly_at_one_seed(traced_twice):
    first, second = traced_twice
    for name in first:
        counts = {
            k for k, m in first[name]["metrics"].items()
            if m["unit"] in ("count", "B")
        }
        assert counts, name
        for key in counts:
            assert (first[name]["metrics"][key]["value"]
                    == second[name]["metrics"][key]["value"]), (name, key)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rate_surface",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
