"""Benchmark of infinigb: four workloads, each checked against pinned
references, with a separate traced run for per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gb-binomial --seed 0 --seconds 25 --trace 0

With `--trace 0` the run reports the end-to-end metrics, with tracing off:

    wall_norm    probe  median over passes of one pass's wall time in units
                        of the speed probe sampled during it (`speed.py`)
    setup_s      s      median, over fresh processes, of the time from process
                        start to the first timed job (import, inputs, references)
    peak_rss_mb  MB     peak resident memory of the measuring process

and prints beside them, not in the result, the raw medians `wall_s` and
`cpu_s` of one pass, which drift with the load of a shared host.

With `--trace 1` it alternates untraced passes with passes under the
wrappers of `tracing.py`, and reports the per-layer metrics listed, with
what each should move, in `per_layer.json`, plus the tracing overhead.
The failed share of jobs (`fail_frac`) is printed in the summary and
carried by the result's `attempted` and `failed` fields; it is not an
end-to-end metric because it is 0 whenever the program is correct.

The last line of standard output is the JSON result; details, the
environment and the spans go to `.perfbench_out/`.  A run re-executes
itself once with PYTHONHASHSEED and address randomization fixed, so
that counts repeat exactly at one seed (see `pin_process`).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PER_LAYER = Path(__file__).with_name("per_layer.json")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
READY = "perfbench: set-up done"
EXACT_UNITS = ("count", "ratio")  # must repeat exactly at one seed
QUERY_PERSONA = 0xFFFFFFFF
ADDR_NO_RANDOMIZE = 0x0040000
END_TO_END = {"wall_norm": "probe", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_infinigb():
    """Import every layer of infinigb from this checkout's src/, and fail
    when the package would come from anywhere else."""
    package = SRC / "infinigb"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no infinigb source under {SRC}")
    if "infinigb" in sys.modules:
        raise BenchError("infinigb was imported before the checkout's src/ was put first")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"infinigb.{name}") for name in tracing.LAYERS}
    for name, module in [("infinigb", sys.modules["infinigb"]), *modules.items()]:
        origin = Path(module.__file__).resolve()
        if origin.parent != package.resolve():
            raise BenchError(f"{name} resolved to {origin}, not to {package}")
    return modules


def setup(workload, seed):
    modules = import_infinigb()
    jobs = workloads.build(workload, seed, modules)
    return jobs, workloads.load_references(workload)


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its first timed
    job being ready, over SETUP_PROBES processes."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            ready, _, _ = select.select([probe.stdout], [], [], PROBE_TIMEOUT_S)
            line = probe.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            try:
                probe.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
                raise BenchError("a set-up probe did not exit") from None
        if line.strip() != READY or probe.returncode != 0:
            raise BenchError(f"a set-up probe failed with exit status {probe.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(jobs, tracer=None, probe=None):
    """One closed-loop pass; returns wall and CPU seconds and each job's
    return value or the exception it raised.  Under a speed probe the
    time its samples took is left out."""
    outcomes = []
    gc.collect()
    with probe if probe is not None else contextlib.nullcontext():
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            try:
                outcomes.append(job.run())
            except (Exception, SystemExit) as error:
                outcomes.append(error)
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if probe is not None:
        wall, cpu = wall - probe.wall_s, cpu - probe.cpu_s
    return wall, cpu, outcomes


class Tally:
    """Jobs attempted and the reasons of the failed ones, over all passes."""

    def __init__(self, jobs, references):
        self.jobs, self.references = jobs, references
        self.attempted, self.failures = 0, []

    def check(self, outcomes):
        for job, outcome in zip(self.jobs, outcomes):
            self.attempted += 1
            reason = workloads.check(job, outcome, self.references)
            if reason is not None:
                self.failures.append(reason)


def checked_pass(jobs, tally, tracer=None, probe=None):
    """One pass, traced when a tracer is given, then the reference check
    with the wrappers off; returns wall and CPU seconds."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        wall, cpu, outcomes = run_pass(jobs, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally.check(outcomes)
    return wall, cpu


def timed_passes(jobs, tally, seconds):
    """Untraced passes under the speed probe until another one would end
    after `seconds`; returns each pass's wall and CPU seconds and its
    wall time in probe units, and the probe's kernel times of the last."""
    walls, cpus, norms = [], [], []
    start = time.perf_counter()
    while True:
        probe = speed.SpeedProbe()
        wall, cpu = checked_pass(jobs, tally, probe=probe)
        walls.append(wall)
        cpus.append(cpu)
        norms.append(wall * probe.rate())
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls, cpus, norms, probe.median_ms()


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as error:
        return f"unknown: {error}"
    return done.stdout.strip() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "infinigb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed, load_start):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def _spread(values):
    return f"median of {len(values)} passes, min {min(values):.4f}, max {max(values):.4f}"


def untraced_run(args, jobs, tally):
    """The end-to-end metrics, and the raw pass times shown beside them."""
    setup_s = measure_setup(args.workload, args.seed)
    walls, cpus, norms, probe_ms = timed_passes(jobs, tally, args.seconds)
    kernels = ", ".join(f"{name} {ms:.3f} ms" for name, ms in probe_ms.items())
    metrics = {
        "wall_norm": (statistics.median(norms), "probe",
                      f"{_spread(norms)}; last pass's probe medians: {kernels}"),
        "setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of the measuring process"),
    }
    shown = {
        "wall_s": (statistics.median(walls), "s", _spread(walls)),
        "cpu_s": (statistics.median(cpus), "s", _spread(cpus)),
    }
    return metrics, shown, {"wall_norm": norms, "wall_s": walls, "cpu_s": cpus,
                            "probe_ms": probe_ms}


def traced_run(args, jobs, tally):
    specs = json.loads(PER_LAYER.read_text(encoding="utf-8"))
    exact = {s["name"] for s in specs if s["unit"] in EXACT_UNITS}
    tracer = tracing.Tracer()
    untraced, traced, layer_passes = [], [], []
    start = time.perf_counter()
    # Untraced and traced passes alternate, so that a drift in machine
    # speed moves both sides of the overhead alike.
    while True:
        untraced.append(checked_pass(jobs, tally)[0])
        traced.append(checked_pass(jobs, tally, tracer)[0])
        layer_passes.append(tracer.metrics())
        elapsed = time.perf_counter() - start
        step = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= MIN_TRACED_PASSES and elapsed + step > args.seconds:
            break
    merged = tracing.median_metrics(layer_passes, exact)
    merged["trace.untraced_wall_s"] = statistics.median(untraced)
    merged["trace.wall_s"] = statistics.median(traced)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - merged["trace.untraced_wall_s"]
    if set(merged) != {s["name"] for s in specs}:
        raise tracing.TracingError(
            f"metrics and per_layer.json disagree: {sorted(set(merged) ^ {s['name'] for s in specs})}"
        )
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
    tracer.write_spans(spans, [job.name for job in jobs])
    note = f"spans of the last traced pass: {spans.relative_to(ROOT)}"
    metrics = {s["name"]: (merged[s["name"]], s["unit"], "") for s in specs}
    return metrics, {}, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "bindings": tracer.bindings, "spans": note,
                     "waiting": tracing.WAITING_NOTE}


def pin_process(seed):
    """Re-execute this interpreter (same PID and command line) with string
    hashing seeded by the workload seed and address-space randomization off
    for this process and its children.

    infinigb puts polynomials in sets and sorts them; their hashes involve
    strings (enum names) and, on Python 3.11, the address of None.  Under
    per-process randomization of either, the order fed to a sort, and with
    it the number of comparisons, changes from run to run at one seed."""
    wanted = str(seed % 2**32)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(QUERY_PERSONA)
    fixed = persona == -1 or persona & ADDR_NO_RANDOMIZE
    if fixed and os.environ.get("PYTHONHASHSEED") == wanted:
        return
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
    sys.stdout.flush()
    os.execve(sys.executable, sys.orig_argv, {**os.environ, "PYTHONHASHSEED": wanted})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_process(args.seed)

    load_start = os.getloadavg()[0]
    try:
        jobs, references = setup(args.workload, args.seed)
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        tally = Tally(jobs, references)
        OUT.mkdir(exist_ok=True)
        run = traced_run if args.trace else untraced_run
        metrics, shown, details = run(args, jobs, tally)
    except (BenchError, tracing.TracingError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    failed = len(tally.failures)
    env = environment(args.seed, load_start)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs per pass, closed loop, one client")
    for name, (value, unit, note) in {**metrics, **shown}.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'fail_frac':<42} {failed / tally.attempted:>14.6g} {'ratio':<6} "
          f"{failed} failed of {tally.attempted} jobs attempted")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    if args.trace:
        print(f"  {details['waiting']}")
    print("env: " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        **result, "env": env, "workload": args.workload,
        "why": workloads.WHY[args.workload], "jobs": [job.name for job in jobs],
        "failures": tally.failures, "details": details,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
