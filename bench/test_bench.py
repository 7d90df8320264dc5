"""Tests of the benchmark itself (not part of the package's suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import demflow  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_counts(workload, seed, workdir):
    """Count metrics of one traced job on freshly made inputs."""
    inputs = workload.inputs(seed)
    with tracer.Tracer() as tr:
        setup = workload.setup(demflow, inputs)
        job = workload.job(demflow, setup, workdir)
    assert job.failures == []
    sample = run.layer_sample(tr, job)
    return {name: sample[name] for name in run.COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_the_same_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = traced_counts(workload, 7, tmp_path)
    second = traced_counts(workload, 7, tmp_path)
    assert first == second
    assert first["scheme.steps"] > 0
    assert first["snapshots.bytes_written"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_sets_the_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.inputs(3) == workload.inputs(3)
    assert workload.inputs(3) != workload.inputs(4)
    first = workload.setup(demflow, workload.inputs(3)).configs
    other = workload.setup(demflow, workload.inputs(4)).configs
    assert first != other


def test_sweep_starts_at_r_zero():
    for seed in range(5):
        r_values = workloads.WORKLOADS["sweep_small"].inputs(seed)["r_values"]
        assert r_values[0] == 0.0
        assert len(r_values) == workloads.SWEEP_MEMBERS
        assert all(workloads.SWEEP_R_MIN <= r <= 1.0 for r in r_values[1:])


def test_absent_hooks_are_reported_and_the_run_goes_on(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.HOOKS, "scheme.gone", ("scheme", "gone"))
    monkeypatch.setitem(tracer.HOOKS, "relaxation.gone", ("scheme", "_RELAXERS", "gone"))
    monkeypatch.setitem(tracer.HOOKS, "nomodule.gone", ("nomodule", "gone"))
    workload = workloads.WORKLOADS["sweep_small"]
    setup = workload.setup(demflow, workload.inputs(1))
    with tracer.Tracer() as tr:
        job = workload.job(demflow, setup, tmp_path)
    assert job.failures == []
    assert sorted(tr.absent) == ["nomodule.gone", "relaxation.gone", "scheme.gone"]
    assert tr.calls[tracer.STEP_HOOK] > 0


def test_a_missing_step_hook_is_null_and_steps_are_counted_by_cfl(
        monkeypatch, capsys, tmp_path):
    workload = workloads.WORKLOADS["sweep_small"]
    plain = run.Run(demflow, workload, 1, tmp_path)
    plain.untraced(0)
    monkeypatch.setitem(tracer.HOOKS, tracer.STEP_HOOK, ("scheme", "gone"))
    assert run.main(["--workload", "sweep_small", "--seed", "1", "--seconds", "1",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert f"steps per job {plain.steps}," in out
    step_metrics = [name for name, (hooks, _) in run.LAYER_SAMPLE.items()
                    if tracer.STEP_HOOK in hooks] + ["scheme.step_alloc_peak_mb"]
    assert "scheme.steps" in step_metrics and "eos.calls_per_step" in step_metrics
    for name, metric in metrics.items():
        assert (metric["value"] is None) == (name in step_metrics), name
    assert metrics["riemann.hllc_s"]["value"] > 0.0


def test_the_precheck_fails_a_relaxer_that_loses_momentum(monkeypatch):
    workload = workloads.WORKLOADS["cavitation_relaxed"]
    setup = workload.setup(demflow, workload.inputs(1))
    assert workload.check(demflow, setup).failures == []
    relax = demflow.relax_continuous

    def leaky(cells, eos1, eos2):
        out = relax(cells, eos1, eos2)
        cons = replace(out.phase1.cons, momentum=out.phase1.cons.momentum * 1.001)
        return replace(out, phase1=replace(out.phase1, cons=cons))

    monkeypatch.setattr(demflow, "relax_continuous", leaky)
    check = workload.check(demflow, setup)
    assert check.runs == 1
    assert len(check.failures) == 1 and "changed the momentum" in check.failures[0]


def test_tracer_wraps_and_restores_every_hooked_function():
    before = {name: tracer._resolve(spec) for name, spec in tracer.HOOKS.items()}
    with tracer.Tracer() as tr:
        for name, spec in tracer.HOOKS.items():
            if name not in tr.absent:
                assert tracer._resolve(spec).__wrapped__ is before[name]
    assert {name: tracer._resolve(spec) for name, spec in tracer.HOOKS.items()} == before


def test_relaxation_is_traced_through_the_relaxer_table(tmp_path):
    workload = workloads.WORKLOADS["cavitation_relaxed"]
    cfg = workload.setup(demflow, workload.inputs(1)).configs[0]
    short = replace(cfg, t_end=2e-5)
    assert short.relaxation == "continuous"
    with tracer.Tracer() as tr:
        demflow.run(short)
    assert tr.calls["relaxation.continuous"] == tr.calls[tracer.STEP_HOOK] > 0
    assert tr.self_s["relaxation.continuous"] > 0.0


def test_a_failed_check_counts_as_a_failed_run(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "L1_REL_TOL", 0.0)
    workload = workloads.WORKLOADS["sweep_small"]
    setup = workload.setup(demflow, workload.inputs(1))
    job = workload.job(demflow, setup, tmp_path)
    assert job.runs == workloads.SWEEP_MEMBERS
    assert len(job.failures) == 1 and "relative L1 error" in job.failures[0]


def test_step_alloc_probe_stops_after_its_steps():
    workload = workloads.WORKLOADS["cavitation_relaxed"]
    cfg = workload.setup(demflow, workload.inputs(1)).configs[0]
    with pytest.raises(tracer.StepLimitReached):
        with tracer.StepAllocProbe(3) as probe:
            demflow.run(cfg)
    assert probe.steps == 3
    assert probe.peak_bytes > 0


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_result_line_names_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for group, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert all(units[m["name"]] == m["unit"] for m in spec[group])
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
