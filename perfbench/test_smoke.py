"""Smoke test of the benchmark at tiny sizes.

A broken generator, gate or result line fails here in seconds rather than
in a full benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common

common.bootstrap()

import gate as gates  # noqa: E402  (needs the import path bootstrap() sets)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
TINY_FRAMES = 300


def _bench(workload: str, trace: int, script: Path = HERE / "run.py", cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--frames", str(TINY_FRAMES)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "workload,trace", [("lockstep", 0), ("freerun", 1), ("detscore", 0), ("detscore", 1)]
)
def test_tiny_run_passes_the_gate_and_reports_every_metric(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_in_benchmark_json_match_the_generator():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.FRAMES)


@pytest.mark.parametrize("workload", sorted(workloads.FRAMES))
def test_generator_is_deterministic_in_the_seed(tmp_path, workload):
    def files(seed, name):
        out = tmp_path / name
        workloads.generate(workload, seed, 60, out, common.Timings())
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_gate_fails_a_stage_error_and_changed_bytes():
    ok = {"kind": "timed", "codes": {"reconstruct": 0}, "hashes": {"reconstruct": {"t": "1"}}}
    changed = {"kind": "timed", "codes": {"reconstruct": 0}, "hashes": {"reconstruct": {"t": "2"}}}
    crashed = {"kind": "timed", "codes": {"reconstruct": 1}, "hashes": {"reconstruct": {"t": "1"}}}
    gate = gates.Gate()
    gate.invocations([ok, ok, changed, crashed])
    assert (gate.attempted, gate.failed) == (4, 2)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("lockstep", 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
