#!/usr/bin/env python3
"""The repository's one benchmark.  See bench/README.md.

One run, as the driver makes it (last line of stdout is the result)::

    python3 bench/run.py --workload hier_serial --seed 3 --seconds 10 --trace 0

Every workload, untraced then traced, with every metric printed by name::

    python3 bench/run.py [--seed N] [--seconds S] [--workloads a,b] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
# run as a script, sys.path[0] is bench/ itself, whose module names
# would shadow others; the package is imported from the root instead
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import spec  # noqa: E402

OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 3


def parse_args(argv=None):
    names = [n for n, _ in spec.WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run this one workload and print one result line")
    ap.add_argument("--workloads", default=",".join(names),
                    help="comma-separated subset for the all-workloads mode")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one op, no references, in-process")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-contract", action="store_true",
                    help="rewrite BENCHMARK.json from bench/spec.py")
    return ap.parse_args(argv)


# -- hygiene -----------------------------------------------------------------


def census() -> tuple[set, set]:
    """(/dev/shm entries, live child pids) — compared before and after
    a workload; anything new afterwards is a leak."""
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    children = set()
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        # python's own shared-memory tracker lives until interpreter exit
        if ppid == me and state != "Z" and b"resource_tracker" not in cmdline:
            children.add(int(entry))
    return shm, children


def make_workdir(tag: str) -> Path:
    """A fresh directory inside the checkout for everything a run
    writes (store, cache, archives, daemon logs, temporary files)."""
    workdir = OUT / "tmp" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None  # re-read TMPDIR
    return workdir


def environment() -> dict:
    """Where the numbers were taken (all-workloads mode only)."""
    import numpy
    import scipy

    def guarded(fn):
        try:
            return fn()
        except Exception as exc:
            return f"unavailable ({type(exc).__name__})"

    def commit():
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    def cpu_model():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
        return platform.processor()

    def kernels():
        from repro.perturbations import available_kernels
        return list(available_kernels())

    load = os.getloadavg()[0]
    return {
        "commit": guarded(commit), "nproc": os.cpu_count(),
        "cpu_model": guarded(cpu_model),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "available_kernels": guarded(kernels),
        "load_1min_at_start": load,
        "load_above_nproc": load > (os.cpu_count() or 1),
    }


# -- set-up ------------------------------------------------------------------


def set_up(workload: str, seed: int, smoke: bool, workdir: Path,
           ready=None):
    """Everything before the first timed op may begin: ``import repro``,
    build the inputs, then a warm-up op through the same route on the
    workload's smoke-sized twin (so lazy compiles and caches are paid
    here) or, for the serve workloads, daemon spawn -> ready file ->
    first ping.  ``ready()`` is called at that moment."""
    from bench import workloads

    problem = workloads.build_problem(workload, seed, smoke)
    if problem.serves:
        if ready is not None:  # the measured run spawns its own daemon
            daemon = workloads.Daemon(workdir, workdir / "setup-store",
                                      "setup")
            try:
                daemon.connect()
                ready()
            finally:
                daemon.stop()
        return problem
    if not smoke:
        workloads.solve(workloads.build_problem(workload, seed, smoke=True))
    if ready is not None:
        ready()
    return problem


def setup_child_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Process start -> ready, timed from outside on a fresh process;
    returns (seconds, the machine's mean slowness as the process itself
    sampled it while it set up)."""
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        for line in child.stdout:
            if line.startswith("READY "):
                ready = (time.perf_counter() - t0, float(line.split()[1]))
        if child.wait() != 0 or ready is None:
            raise RuntimeError("set-up probe process failed")
        return ready
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


# -- one run -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """Set up, measure, check, clean up; returns the full report."""
    from bench import measure
    from bench.tracing import Tracer

    before = census()
    workdir = make_workdir(f"{workload}-seed{seed}-trace{trace}")
    tally = measure.Tally()
    report: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "seconds": seconds, "smoke": smoke}
    try:
        t0 = time.perf_counter()
        problem = set_up(workload, seed, smoke, workdir)
        own_setup = time.perf_counter() - t0
        report["variant"] = problem.variant
        untraced, traced = measure.MEASURE[workload]
        if trace:
            tracer = Tracer()
            try:
                layers, extras, missing = traced(problem, seconds, tally,
                                                 workdir, tracer)
            finally:
                OUT.mkdir(exist_ok=True)
                tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
            metrics = {name: layers.get(name, 0.0)
                       for name, _, _ in spec.PER_LAYER}
            missing = sorted(set(missing) | (set(metrics) - set(layers)))
            report.update(extras=extras, probes_missing=missing)
            units = {n: u for n, u, _ in spec.PER_LAYER}
        else:
            metrics, raw = untraced(problem, seconds, tally, workdir)
            if smoke:  # no fresh processes: in-process set-up, no import
                metrics["setup_s"] = raw["setup_s"] = own_setup
            else:
                samples = [setup_child_seconds(workload, seed)
                           for _ in range(SETUP_SAMPLES)]
                metrics["setup_s"] = median(t / f for t, f in samples)
                raw["setup_s"] = median(t for t, _ in samples)
            report["raw_seconds"] = raw
            units = {n: u for n, u, _, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = census()
    leaked = [sorted(map(str, new - old)) for new, old in zip(after, before)]
    tally.op(not any(leaked),
             f"left behind /dev/shm {leaked[0]}, child pids {leaked[1]}")
    report.update(
        attempted=tally.attempted, failed=tally.failed,
        failures=tally.notes[:20],
        metrics={name: {"value": metrics[name], "unit": units[name]}
                 for name in units})
    return report


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def print_report(report: dict) -> None:
    kind = "per-layer (traced)" if report["trace"] else "end-to-end"
    print(f"== {report['workload']}  seed {report['seed']} "
          f"(variant {report['variant']})  {kind}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:<22.10g} {m['unit']}")
    for name, value in report.get("extras", {}).items():
        print(f"  {name:32s} {value}")
    if report.get("probes_missing"):
        print(f"  probes_missing (reported as 0): "
              f"{', '.join(report['probes_missing'])}")
    print(f"  ops_attempted {report['attempted']}  "
          f"ops_failed {report['failed']}")
    for note in report["failures"]:
        print(f"  FAILED: {note}")


def save_report(report: dict) -> None:
    OUT.mkdir(exist_ok=True)
    name = (f"run-{report['workload']}-seed{report['seed']}"
            f"-trace{report['trace']}.json")
    (OUT / name).write_text(json.dumps(report, indent=1, default=str))


def run_in_child(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """A full-size run gets a process of its own (clean peak RSS)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited "
                           f"{done.returncode}")
    name = f"run-{workload}-seed{seed}-trace{trace}.json"
    return json.loads((OUT / name).read_text())


def run_all(args) -> int:
    """Every workload untraced, then traced; every metric by name."""
    env = environment()
    print("environment: " + json.dumps(env))
    if env["load_above_nproc"]:
        print("WARNING: 1-min load average above nproc; timings are suspect")
    OUT.mkdir(exist_ok=True)
    (OUT / "environment.json").write_text(json.dumps(env, indent=1))
    failed = 0
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            if args.smoke:
                report = run_workload(workload, args.seed, 0.0, trace,
                                      smoke=True)
                save_report(report)
            else:
                report = run_in_child(workload, args.seed, args.seconds,
                                      trace)
            print_report(report)
            failed += report["failed"]
    print(f"ops_failed = {failed}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_contract:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.contract(), indent=2) + "\n")
        return 0
    if args.setup_only:
        from bench.measure import Calibration

        workdir = make_workdir(f"{args.workload}-setup")
        try:
            with Calibration() as calibration:
                set_up(args.workload, args.seed, args.smoke, workdir,
                       ready=lambda: print("READY", calibration.take(),
                                           flush=True))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload is None:
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.smoke)
    save_report(report)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
