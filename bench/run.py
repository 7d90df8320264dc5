"""demflow benchmark: a single-process, single-thread, closed-loop runner.

Run from the repository root:

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another, each in its
own process.

One caller runs a workload's job (every run of it, its snapshot writes and
reads, its oracle comparison) and waits for it before starting the next,
for --seconds. The seed makes the inputs (see workloads.py); the same seed
gives the same inputs, so every job of a run does the same work. Every run
is checked; a run that raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics, with tracing off, as medians
over the run's jobs:
  wall_s            job time after set-up: solve, snapshot I/O, oracle
  us_per_cell_step  solve time / sum of cells x steps
  setup_s           median over fresh processes of the time from before
                    `import demflow` until the first step is ready
  peak_rss_mb       peak resident memory of this process through set-up
                    and its first job
failed_share and, for sweep_small, l1_rel_err are printed too. The only hook
in untraced jobs counts steps (scheme.hyperbolic_step, or scheme.cfl_dt once
that is gone).

--trace 1 alternates untraced and traced jobs and reports per-layer metrics,
medians over the traced jobs (see tracer.py). Every `*_s` layer metric is
self time per job: span time minus the time of hooked calls made inside it.
trace.overhead_s is the traced minus the untraced median job time. A metric
made from a hook that no longer exists is null in the JSON line.

Human-readable lines come first; the last line is one JSON object with keys
correct, attempted, failed and metrics. A details file with the per-job
samples, environment, snapshot hashes and (traced) spans goes to bench/out/.
Exit status: 0 when every run passed, 1 when any failed, 2 when demflow's
sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import (HOOKS, STEP_COUNT_HOOKS, STEP_HOOK, StepAllocProbe, StepCounter,
                    StepLimitReached, Tracer)
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# tracemalloc slows Python-heavy steps several-fold, and a step's allocation
# peak depends on the grid, not on the time, so a few steps suffice
ALLOC_PROBE_STEPS = 20

END_TO_END = {"wall_s": "s", "us_per_cell_step": "us", "setup_s": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "scheme.step_self_s": "s", "scheme.cfl_s": "s", "scheme.assembly_s": "s",
    "scheme.steps": "count", "scheme.step_alloc_peak_mb": "MiB",
    "riemann.hllc_s": "s", "riemann.hllc_calls_per_step": "calls/step",
    "state.cons_to_prim_calls_per_step": "calls/step", "state.cons_to_prim_s": "s",
    "state.validate_calls_per_step": "calls/step", "state.validate_s": "s",
    "eos.calls_per_step": "calls/step", "eos.s": "s",
    "relaxation.continuous_s": "s", "relaxation.newton_iters_per_step": "iters/step",
    "relaxation.projection_s": "s",
    "probability.convex_quad_s": "s", "regime.update_s": "s", "config.parse_s": "s",
    "snapshots.write_s": "s", "snapshots.read_s": "s", "snapshots.bytes_written": "B",
    "snapshots.compare_s": "s", "trace.overhead_s": "s",
}
COUNT_METRICS = ("scheme.steps", "riemann.hllc_calls_per_step",
                 "state.cons_to_prim_calls_per_step", "state.validate_calls_per_step",
                 "eos.calls_per_step", "relaxation.newton_iters_per_step",
                 "snapshots.bytes_written")
EOS_HOOKS = [name for name in HOOKS if name.startswith("eos.")]


def _self_s(*hooks):
    return hooks, lambda tr, job: sum(tr.self_s[name] for name in hooks)


def _per_step(*hooks, per_call=1.0):
    return (*hooks, STEP_HOOK), lambda tr, job: (
        per_call * sum(tr.calls[name] for name in hooks) / tr.calls[STEP_HOOK])


# layer metric -> (hooks it is made from, its value from a tracer and a job)
LAYER_SAMPLE = {
    "scheme.step_self_s": _self_s(STEP_HOOK),
    "scheme.cfl_s": _self_s("scheme.cfl_dt"),
    "scheme.assembly_s": _self_s("scheme.ensemble_flux", "scheme.boundary_lagrangian",
                                 "scheme.volume_fraction_rhs"),
    "scheme.steps": ((STEP_HOOK,), lambda tr, job: tr.calls[STEP_HOOK]),
    "riemann.hllc_s": _self_s("riemann.hllc"),
    "riemann.hllc_calls_per_step": _per_step("riemann.hllc"),
    "state.cons_to_prim_calls_per_step": _per_step("state.cons_to_prim"),
    "state.cons_to_prim_s": _self_s("state.cons_to_prim"),
    "state.validate_calls_per_step": _per_step("state.validate_mixture"),
    "state.validate_s": _self_s("state.validate_mixture"),
    "eos.calls_per_step": _per_step(*EOS_HOOKS),
    "eos.s": _self_s(*EOS_HOOKS),
    "relaxation.continuous_s": _self_s("relaxation.continuous"),
    # the Newton iteration evaluates de_drho once per phase
    "relaxation.newton_iters_per_step": _per_step("eos.de_drho", per_call=0.5),
    "relaxation.projection_s": _self_s("relaxation.projection"),
    "probability.convex_quad_s": _self_s("probability.convex_quad"),
    "regime.update_s": _self_s("regime.stochastic_update"),
    "config.parse_s": _self_s("config.parse_config"),
    "snapshots.write_s": _self_s("snapshots.write_snapshot"),
    "snapshots.read_s": _self_s("snapshots.read_snapshot"),
    "snapshots.bytes_written": ((), lambda tr, job: job.bytes_written),
    "snapshots.compare_s": _self_s("snapshots.compare_oracle"),
}


def layer_sample(tracer, job):
    """Per-layer metrics of one traced job (set-up included for config);
    None for a metric made from an absent hook."""
    absent = set(tracer.absent)
    return {name: None if absent.intersection(hooks) else value(tracer, job)
            for name, (hooks, value) in LAYER_SAMPLE.items()}


def measure_setup(workload, seed):
    """Median-ready list of fresh-process set-up times. One discarded probe
    first, so that compiled bytecode exists as it would for an installed
    package."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        if probe:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _llc_bytes():
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or level < best[0]:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        best = (level, int(size.rstrip("KMG")) * scale)
    return best[1]


def environment(n_cells):
    import numpy
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_bytes": _llc_bytes(),
        # computed from array sizes, not measured traffic
        "field_array_bytes_computed": n_cells * 8,
        "grid_state_bytes_computed": n_cells * 8 * 8,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Run:
    """One benchmark invocation: set-up, then the measured loop. Every job
    runs under the step counter."""

    def __init__(self, dm, workload, seed, workdir):
        self.dm = dm
        self.workload = workload
        self.workdir = workdir
        self.inputs = workload.inputs(seed)
        self.setup = workload.setup(dm, self.inputs)
        self.counter = StepCounter()
        # every job run and the precheck, for attempted / failed
        self.jobs = [workload.check(dm, self.setup)]
        self.steps = None
        self.peak_rss_kib = None

    def job(self, setup=None):
        before = self.counter.steps
        result = self.workload.job(self.dm, setup or self.setup, self.workdir)
        if self.steps is None:
            self.steps = self.counter.steps - before
            # Later jobs can only add allocator fragmentation on top, and how
            # much varies from process to process (149 or 201 MiB for the
            # same large_grid_io inputs), so the peak is taken here.
            self.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.jobs.append(result)
        return result

    def untraced(self, seconds):
        with self.counter:
            self._require_counter()
            start = time.perf_counter()
            jobs = [self.job()]
            while time.perf_counter() - start < seconds:
                jobs.append(self.job())
        return jobs

    def traced(self, seconds):
        """Alternate untraced and traced jobs; the traced job's set-up is
        traced too (config parsing)."""
        tracer = Tracer()
        pairs = []
        with self.counter:
            self._require_counter()
            start = time.perf_counter()
            while not pairs or time.perf_counter() - start < seconds:
                plain = self.job()
                tracer.reset()
                with tracer:
                    traced = self.job(self.workload.setup(self.dm, self.inputs))
                pairs.append((plain, traced, layer_sample(tracer, traced)))
        self.absent = tracer.absent
        self.spans = list(tracer.spans)
        if STEP_HOOK in self.absent:  # the probe could not stop the run
            return pairs, None
        try:
            with StepAllocProbe(ALLOC_PROBE_STEPS) as probe:
                self.dm.run(self.setup.configs[0])
        except StepLimitReached:
            pass
        return pairs, probe.peak_bytes

    def _require_counter(self):
        if self.counter.hook is None:
            raise RuntimeError("cannot count steps: none of "
                               f"{', '.join(STEP_COUNT_HOOKS)} found")

    @property
    def attempted(self):
        return sum(job.runs for job in self.jobs)

    @property
    def failures(self):
        return [msg for job in self.jobs for msg in job.failures]


def _row(name, value, unit, note=""):
    shown = "absent" if value is None else f"{value:.6g}"
    return f"  {name:<36} {shown:>14} {unit:<10} {note}".rstrip()


def main(argv=None):
    parser = argparse.ArgumentParser(description="demflow benchmark")
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "demflow" / "__init__.py").is_file():
        print(f"error: demflow sources not found at {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import demflow as dm

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(dm, workload, args.seed, workdir)
        n_cells = run.setup.configs[0].n_cells  # shared by every run of a workload
        details = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "inputs": run.inputs,
                   "environment": environment(n_cells)}
        if args.trace:
            pairs, alloc_peak = run.traced(args.seconds)
            metrics, lines = _traced_metrics(run, pairs, alloc_peak, details)
            origin = run.spans[0][1] if run.spans else 0.0
            details["spans"] = [(name, start - origin, end - origin, parent)
                                for name, start, end, parent in run.spans]
        else:
            jobs = run.untraced(args.seconds)
            setup_times = measure_setup(workload.name, args.seed)
            metrics, lines = _untraced_metrics(jobs, setup_times, run.steps * n_cells,
                                               run.peak_rss_kib, details)
        cell_steps = run.steps * n_cells
        details.update(steps=run.steps, cell_steps=cell_steps)
        last = run.jobs[-1]
        details["sha256"] = last.sha256
        details["failures"] = run.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = run.attempted, len(run.failures)
    env = details["environment"]
    print(f"demflow benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(f"  inputs: {json.dumps(run.inputs)}")
    print(f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"llc_bytes={env['llc_bytes']} python={env['python']} numpy={env['numpy']}")
    print(f"  array bytes (computed): one field {env['field_array_bytes_computed']}, "
          f"grid state {env['grid_state_bytes_computed']}, for {n_cells} cells")
    print(f"  steps per job {run.steps}, cells x steps {cell_steps}")
    for line in lines:
        print(line)
    print(_row("failed_share", failed / attempted, "share",
               f"{failed} of {attempted} runs failed"))
    for message in run.failures:
        print(f"  FAILED {message}")
    for name, digest in sorted(details["sha256"].items()):
        print(f"  sha256 {name} {digest}")
    details_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details) + "\n", encoding="utf-8")
    print(f"  details: {details_path.relative_to(ROOT)}")

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Run every workload, each in a process of its own so that peak memory
    is per workload, and end with one JSON line over all of them (metrics
    named workload.metric). Exits 1 if any run failed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        *report, last = done.stdout.strip().splitlines() or [""]
        print("\n".join(report), flush=True)
        sys.stderr.write(done.stderr)
        result = json.loads(last) if last.startswith("{") else None
        if result is None:
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{metric}": value
                                 for metric, value in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def _untraced_metrics(jobs, setup_times, cell_steps, peak_rss_kib, details):
    walls = [job.wall_s for job in jobs]
    solves = [job.solve_s for job in jobs]
    metrics = {
        "wall_s": statistics.median(walls),
        "us_per_cell_step": statistics.median(solves) / cell_steps * 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    details.update(wall_s_samples=walls, solve_s_samples=solves,
                   setup_s_samples=setup_times, metrics=metrics)
    q1, q3 = quartiles(walls)
    s1, s3 = quartiles(setup_times)
    lines = [
        _row("wall_s", metrics["wall_s"], "s",
             f"median of {len(jobs)} jobs, quartiles {q1:.4g}..{q3:.4g}, "
             f"max {max(walls):.4g}"),
        _row("us_per_cell_step", metrics["us_per_cell_step"], "us",
             f"median solve {statistics.median(solves):.4g} s over {cell_steps} "
             "cell-steps"),
        _row("setup_s", metrics["setup_s"], "s",
             f"median of {len(setup_times)} fresh processes, quartiles "
             f"{s1:.4g}..{s3:.4g}"),
        _row("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
             "through set-up and the first job"),
    ]
    errs = [job.l1_rel_err for job in jobs if job.l1_rel_err is not None]
    if errs:
        details["l1_rel_err"] = errs[-1]
        lines.append(_row("l1_rel_err", errs[-1], "rel",
                          "worst field of the r=0 run vs phases:t1_uniform_vf"))
    return metrics, lines


def _traced_metrics(run, pairs, alloc_peak, details):
    samples = [sample for _, _, sample in pairs]
    # a metric is None in every sample or in none: absent hooks stay absent
    metrics = {name: None if samples[0][name] is None
               else statistics.median(s[name] for s in samples)
               for name in samples[0]}
    metrics["scheme.step_alloc_peak_mb"] = (None if alloc_peak is None
                                            else alloc_peak / 1024.0**2)
    plain = statistics.median(p.wall_s for p, _, _ in pairs)
    traced = statistics.median(t.wall_s for _, t, _ in pairs)
    metrics["trace.overhead_s"] = traced - plain
    repeat = all(s[name] == samples[0][name] for s in samples for name in COUNT_METRICS)
    details.update(layer_samples=samples, absent_hooks=run.absent,
                   counts_repeat=repeat, metrics=metrics,
                   untraced_wall_s=[p.wall_s for p, _, _ in pairs],
                   traced_wall_s=[t.wall_s for _, t, _ in pairs])
    lines = [f"  {len(pairs)} traced jobs, each after an untraced one; median job "
             f"time untraced {plain:.4g} s, traced {traced:.4g} s",
             f"  count metrics repeat across traced jobs: {repeat}"]
    if run.absent:
        lines.append(f"  absent hooks (their metrics are null): {', '.join(run.absent)}")
    lines += [_row(name, metrics[name], unit) for name, unit in PER_LAYER.items()]
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
