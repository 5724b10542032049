"""Smoke test of the benchmark: every workload at tiny size, gates on, no timing asserts."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("preset-maps", "fine-grid", "cross-check", "trajectories")


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_declared_metric(capsys, workload, trace):
    code, result, lines = bench(capsys, workload, trace)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == wanted
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def _skew_lambda(original):
    def skewed(M):
        spectrum = original(M)
        return type(spectrum)(spectrum.eigenvalues, spectrum.lambda_max * (1.0 + 1e-6),
                              spectrum.residual_bound)
    return skewed


def _leaky_partitioned(original):
    def leaky(scheme, p, n_minus, n_plus, state):
        new = original(scheme, p, n_minus, n_plus, state)
        return type(new)(new.t_minus * (1.0 + 1e-8), new.t_plus, new.shared_node, new.step_index)
    return leaky


@pytest.mark.parametrize("workload, module, attr, fault", [
    ("fine-grid", "spectral", "eigen_spectrum", _skew_lambda),
    ("trajectories", "stepper", "step_partitioned", _leaky_partitioned),
])
def test_wrong_output_fails_the_run(capsys, monkeypatch, workload, module, attr, fault):
    import cplstab

    target = getattr(cplstab, module)
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    code, result, _ = bench(capsys, workload, 1)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
