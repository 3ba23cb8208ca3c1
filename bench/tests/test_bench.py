"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench/tests -q

Run from the repository root.  Each workload runs at a tiny size through the
real CLI; the gate is fed corrupted outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402

TINY = {
    "sweep": run.sweep(steps=30, grid=("1", "1000000")),
    "spectral": run.spectral(seeds=1, swaps=1, n=40, d=8, degenerate_n=6, degenerate_rank=4),
    "online": run.online(horizons=("10", "100")),
}


def test_metric_definitions_match_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_emits_every_metric(workload, trace):
    outcome, lines = run.run(workload, 5, 0.1, trace, spec=TINY[workload], root=REPO)
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in outcome["metrics"].items()} == expected
    for name in expected:
        assert any(line.startswith(name + " ") and "n=" in line for line in lines)
    assert any(line.startswith("error_rate") for line in lines)
    env = json.loads(lines[0].split(" ", 1)[1])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "workers", "seed",
            "commit"} <= set(env)
    if trace:
        m = {k: v["value"] for k, v in outcome["metrics"].items()}
        if workload == "spectral":
            assert m["linalg.jacobi_eigh.calls"] > 0
            assert m["experiments.run_trajectory.calls"] == 0
        else:
            assert m["linalg.jacobi_eigh.calls"] == 0
        if workload == "sweep":
            assert m["experiments.run_trajectory.steps"] == m["optim.step.calls"]
        if workload == "online":
            assert m["optim.step.calls"] == TINY["online"].units


def _copy_reference(workload, tmp_path):
    spec = run.WORKLOADS[workload]
    out = tmp_path / workload
    shutil.copytree(os.path.join(run.REFERENCE_DIR, spec.reference), out)
    return spec, str(out)


def _gate(spec, out, exit_code=0):
    result = gate.GateResult()
    gate.check_run(out, spec.outputs, exit_code, result=result,
                   reference_dir=os.path.join(run.REFERENCE_DIR, spec.reference),
                   degenerate_zeros=spec.degenerate_zeros)
    return result


def _corrupt(path, row, column, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_accepts_reference(workload, tmp_path):
    spec, out = _copy_reference(workload, tmp_path)
    result = _gate(spec, out)
    assert result.failed == 0 and result.attempted == sum(spec.outputs.values())


@pytest.mark.parametrize("workload,file,column,value", [
    ("sweep", "heatmap.csv", "log10_loss", "nan"),          # not finite and not 50
    ("sweep", "heatmap.csv", "log10_loss", "-3.0"),         # disagrees with the reference
    ("online", "regret.csv", "ok", "false"),
    ("online", "regret.csv", "horizon", "ten"),              # schema
    ("spectral", "stability.csv", "mean_abs_change", "1e-300"),  # zero direction moved
])
def test_gate_flags_corrupted_row(workload, file, column, value, tmp_path):
    spec, out = _copy_reference(workload, tmp_path)
    path = os.path.join(out, file)
    row = len(open(path, encoding="utf-8").read().splitlines()) - 1  # last row
    _corrupt(path, row, column, value)
    result = _gate(spec, out)
    assert result.failed >= 1 and result.error_rate > 0


def test_gate_checks_structural_zero_count(tmp_path):
    spec, out = _copy_reference("spectral", tmp_path)
    _corrupt(os.path.join(out, "stability.csv"), 200, "eigenvalue", "1e-17")
    assert _gate(spec, out).failed == spec.outputs["stability.csv"] // 4  # one seed's rows


def test_gate_fails_every_row_of_a_failed_call(tmp_path):
    spec, out = _copy_reference("online", tmp_path)
    result = _gate(spec, out, exit_code=1)
    assert result.failed == result.attempted == spec.outputs["regret.csv"]


def test_gate_flags_rows_that_differ_between_repetitions(tmp_path):
    spec, out = _copy_reference("sweep", tmp_path)
    first = gate.check_run(out, spec.outputs, 0, result=gate.GateResult())
    _corrupt(os.path.join(out, "heatmap.csv"), 1, "log10_loss", "49.0")
    result = gate.GateResult()
    gate.check_run(out, spec.outputs, 0, result=result, first=first)
    assert result.failed == 1


def test_self_time_subtracts_direct_children(tmp_path):
    path = str(tmp_path / "spans.npz")
    np.savez(path, names=np.array(["a", "b"]), name=np.array([0, 1, 1], dtype=np.int32),
             start=np.array([0.0, 2.0, 6.0]), end=np.array([10.0, 5.0, 7.0]),
             parent=np.array([-1, 0, 0], dtype=np.int32))
    totals = run.layer_totals(path)
    assert totals["a"] == {"calls": 1, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "self_s": 4.0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "online", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
