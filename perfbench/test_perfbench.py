"""Tests of the benchmark itself, at tiny size: one round of the cheapest
kinds per workload, so they run in about a second."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

_traced: dict = {}


def traced(workload: str) -> dict:
    if workload not in _traced:
        _traced[workload] = bench.run(workload, 3, 0, True, tiny=True, setup_repeats=1)
    return _traced[workload]


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload):
    res = bench.run(workload, 3, 0, False, tiny=True, setup_repeats=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    res = traced(workload)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_same_seed_same_instances_and_iterations(tmp_path):
    name = "near-boundary"
    first = [i.fingerprint for r in workloads.build_pool(name, 5, str(tmp_path), tiny=True) for i in r]
    again = [i.fingerprint for r in workloads.build_pool(name, 5, str(tmp_path), tiny=True) for i in r]
    other = [i.fingerprint for r in workloads.build_pool(name, 6, str(tmp_path), tiny=True) for i in r]
    assert first == again and first != other
    iterations = [
        bench.run(name, seed, 0, True, tiny=True, setup_repeats=1)["tracer"].counts["feasibility.iterations"]
        for seed in (5, 5, 6)
    ]
    # Another seed dresses the same base instance with other unitaries, which
    # leaves the solver's iteration count as it is.
    assert iterations[0] == iterations[1] == iterations[2] > 1


def test_seed_defects_probe_is_not_a_workload(tmp_path):
    assert "seed-defects" not in {w["name"] for w in SPEC["workloads"]}
    pool = workloads.build_pool("seed-defects", 3, str(tmp_path), tiny=True)
    assert [i.kind for i in pool[0]] == ["noisy-thm1-0.0001"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_trace_consistency(workload):
    res = traced(workload)
    tracer = res["tracer"]
    # One PSD projection per solver iteration, counted in two independent places.
    assert tracer.counts["linalg.project_psd.calls"] == tracer.counts["feasibility.iterations"]
    checks = [s for s in tracer.spans if s.name == "check"]
    assert len(checks) == res["traced_checks"] == len({s.check for s in checks})
    assert all(s.end is not None and s.self_s >= -1e-9 for s in tracer.spans)
    io_cli = sum(tracer.totals()[n][1] for n in ("io.load", "cli.main") if n in tracer.totals())
    assert (io_cli > 0) == (workload == "cli-reports")


def test_tracer_restores_the_library():
    from chancompat import analysis, feasibility

    before = (analysis.solve, feasibility.project_psd, analysis.hermitian_basis)
    traced("exact-feasible")
    assert (analysis.solve, feasibility.project_psd, analysis.hermitian_basis) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-feasible", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
