"""Tests of the benchmark itself: the reference check, the seed, the
tracing wrappers and the agreement of BENCHMARK.json with the code.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def modules():
    if "infinigb" not in sys.modules:
        return run.import_infinigb()
    return {name: importlib.import_module(f"infinigb.{name}") for name in tracing.LAYERS}


def _job(jobs, prefix):
    (job,) = [j for j in jobs if j.name.startswith(prefix)]
    return job


def test_reference_check_catches_one_wrong_basis_element(modules):
    job = _job(workloads.build("gb-dense", 0, modules), "cyclic5h hrevlex")
    references = workloads.load_references("gb-dense")
    basis, verified = job.run()
    assert workloads.check(job, (basis, verified), references) is None

    elements = list(basis.elements)
    elements[3] = elements[3].scale(2)
    corrupted = dataclasses.replace(basis, elements=tuple(elements))
    reason = workloads.check(job, (corrupted, verified), references)
    assert reason is not None and "digest" in reason


def test_reference_check_catches_one_wrong_series_coefficient(modules):
    job = _job(workloads.build("hilbert-windows", 0, modules), "hilbert --preset schur-p3")
    references = workloads.load_references("hilbert-windows")
    code, stdout = job.run()
    payload = json.loads(stdout)
    assert workloads.check(job, (code, json.dumps(payload, indent=2) + "\n"), references) is None

    payload["coefficients"][17] += 1
    reason = workloads.check(job, (code, json.dumps(payload, indent=2) + "\n"), references)
    assert reason is not None and "stdout_sha256" in reason


def test_failures_are_recorded_not_raised():
    def boom():
        raise ZeroDivisionError("boom")

    job = workloads.Job("boom", boom, lambda value: {})
    _, _, outcomes = run.run_pass([job])
    assert isinstance(outcomes[0], ZeroDivisionError)
    tally = run.Tally([job], {})
    tally.check(outcomes)
    assert tally.attempted == 1 and "ZeroDivisionError" in tally.failures[0]


def test_speed_probe_samples_inside_the_pass_and_leaves_its_time_out():
    def busy():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        return "done"

    job = workloads.Job("busy", busy, lambda value: {})
    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    wall, _, outcomes = run.run_pass([job], probe=probe)
    assert outcomes == ["done"]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # two samples of each kernel around the pass, about 6 ticks inside it
    inside = sum(map(len, probe.samples.values())) - 2 * len(speed.KERNELS)
    assert inside >= 3 and all(len(t) >= 2 for t in probe.samples.values())
    assert 0 < probe.wall_s < 0.3 and wall == pytest.approx(0.3 - probe.wall_s, abs=0.05)
    assert probe.rate() > 0


def test_wall_norm_is_wall_time_times_the_probe_rate():
    probe = speed.SpeedProbe()
    probe.samples = {"arith": [0.001, 0.002], "alloc": [0.004]}
    # geomean(mean(1000, 500), 250) = sqrt(750 * 250)
    assert probe.rate() == pytest.approx((750 * 250) ** 0.5)


@pytest.mark.parametrize("workload", ["partitions", "hilbert-windows"])
def test_seeds_reorder_the_cli_jobs(modules, workload):
    orders = {
        tuple(job.name for job in workloads.build(workload, seed, modules))
        for seed in range(4)
    }
    assert len(orders) > 1


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_references_hold_for_other_seeds(modules, workload, seed):
    jobs = workloads.build(workload, seed, modules)
    references = workloads.load_references(workload)
    assert sorted(job.name for job in jobs) == sorted(references)
    for job in jobs:
        assert workloads.check(job, job.run(), references) is None


def test_wrappers_replace_every_binding_and_come_off(modules):
    originals = {name: getattr(modules[name], "compare", None)
                 for name in ("monomials", "polynomials", "groebner", "cli")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {getattr(modules[name], "compare") for name in originals}
        assert len(wrapped) == 1 and wrapped.isdisjoint(originals.values())
        assert set(originals) <= {
            b.split(".")[-1] for b in tracer.bindings["monomials.compare"]
        }
    finally:
        tracer.uninstall()
    assert all(getattr(modules[name], "compare") is f for name, f in originals.items())


def test_missing_target_fails_and_leaves_nothing_patched(modules, monkeypatch):
    divide = modules["division"].divide
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("division", None, "no_such_function", tracing.SPAN, "division.divide"),
    ))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TracingError, match="no_such_function"):
        tracer.install()
    assert modules["division"].divide is divide and not tracer.patched


def test_counts_repeat_between_traced_passes(modules):
    job = _job(workloads.build("gb-dense", 1, modules), "cyclic5h hrevlex")
    specs = json.loads(run.PER_LAYER.read_text(encoding="utf-8"))
    exact = {s["name"] for s in specs if s["unit"] in run.EXACT_UNITS}
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            run.run_pass([job], tracer)
        finally:
            tracer.uninstall()
        passes.append(tracer.metrics())
    merged = tracing.median_metrics(passes, exact)
    assert merged["division.divide.calls"] > 0
    assert merged["monomials.compare.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    per_layer = json.loads(run.PER_LAYER.read_text(encoding="utf-8"))
    assert spec["per_layer"] == [
        {k: row[k] for k in ("name", "unit", "better")} for row in per_layer
    ]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert set(tracing.Tracer().metrics()) | {
        "trace.untraced_wall_s", "trace.wall_s", "trace.overhead_s"
    } == {row["name"] for row in per_layer}


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gb-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "no infinigb source" in done.stderr


def test_two_traced_runs_at_one_seed_repeat_every_count():
    specs = json.loads(run.PER_LAYER.read_text(encoding="utf-8"))
    exact = [s["name"] for s in specs if s["unit"] in run.EXACT_UNITS]
    results = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hilbert-windows",
             "--seed", "6", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    first, second = ({name: r["metrics"][name]["value"] for name in exact} for r in results)
    assert first == second and all(r["correct"] for r in results)
