"""What one run measures: ops for ``--seconds`` seconds, untraced for
the end-to-end metrics or staged and traced for the per-layer ones.

An *op* is one ``Params`` -> arrays solve (solver workloads), one
cold+warm request pair (serve_miss) or one store hit (serve_hit).  An
op fails when it raises, returns a non-finite or wrong-grid result, is
over its accuracy budget against the committed reference, is answered
from the wrong tier or with the wrong digest, or (traced runs) when the
PLINGER or served result is not bitwise what the in-process serial run
of the same inputs returns.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import fmean, median

import numpy as np

from repro.linger import load_run, save_run

from . import probes, spec
from .make_reference import load_reference, result_err
from .tracing import Tracer
from .workloads import (
    HIT_COSMOLOGIES,
    Daemon,
    Problem,
    ask,
    burst_of_two,
    child_env,
    solve,
    solve_staged,
)

#: store hits come in blocks, each normalized by the slowness sampled
#: while it ran: this many untimed warm-up blocks, then timed blocks for
#: ``--seconds``
HIT_BLOCK = 500

#: serve_miss reads the daemon's peak RSS when this many pairs are done
RSS_AFTER_PAIRS = 4
WARM_BLOCKS = 4
SMOKE_HITS = 50


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(why)


class Checker:
    """Checks an op's arrays against a reference: the committed one for
    the solver workloads, the in-process serial run of the same request
    for the serve workloads.  Without one (smoke runs) only the grid
    and finiteness are checked."""

    def __init__(self, problem: Problem, twin=None) -> None:
        self.budget = spec.ERR_BUDGET[problem.workload]
        if twin is not None:
            self.reference = (twin.x, twin.y)
        elif problem.smoke or problem.serves:
            self.reference = None
        else:
            self.reference = load_reference(problem)
        self.worst = 0.0

    def __call__(self, x, y) -> tuple[bool, str]:
        if self.reference is None:
            return bool(np.all(np.isfinite(y))), "non-finite result"
        err = result_err(x, y, self.reference)
        self.worst = max(self.worst, err)
        return err <= self.budget, f"result_err {err:.3e} over budget"


def cpu_seconds() -> float:
    """CPU of this process and of every child it has waited for."""
    return sum(r.ru_utime + r.ru_stime for r in map(
        resource.getrusage,
        (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


#: one calibration sample is this many passes of a fixed loop, taking
#: this many CPU seconds at the reference speed (this box on a typical
#: quiet moment); a sample is taken every CALIBRATION_PERIOD_S
CALIBRATION_LOOPS = 500
CALIBRATION_REFERENCE_S = 0.001875
CALIBRATION_PERIOD_S = 0.05
_CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 60)


def slowness_sample() -> float:
    """How slow this thread's CPU is right now, 1.0 being the reference
    speed: the CPU seconds a fixed loop of interpreter work and small
    numpy calls takes (the mix the engine's python path is made of).
    CPU seconds, not wall seconds, so that a sample taken while forked
    ranks or the daemon hold the CPUs reads their speed, not the wait
    for a time slice."""
    a = _CALIBRATION_VECTOR
    total = 0.0
    t0 = time.thread_time()
    for _ in range(CALIBRATION_LOOPS):
        total += float(np.sum(a * a + 1.0))
    return (time.thread_time() - t0) / CALIBRATION_REFERENCE_S


class Calibration:
    """Samples the machine's slowness *while* the benchmark works.

    Each virtual CPU of this box flips between a fast state and one
    about 55 % slower, every few tenths of a second to every few
    seconds, and the mix drifts over minutes (no steal time is reported;
    CPU time inflates with wall time), which would drown any bound.
    Every end-to-end time is therefore divided by the mean slowness over
    the very interval it was measured in: inside this context an
    interval timer interrupts the main thread every 50 ms -- in the
    middle of an op too, whether it computes or waits for ranks or the
    daemon -- and its handler takes one 2 ms sample.  The ~4 % this
    costs is part of every timed op on every commit alike.  (Samples
    taken only between ops said little about a 2 s op on a CPU that
    flips every 0.3 s: three times the spread.)  The raw seconds are
    kept in the report file.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(slowness_sample())

    def take(self) -> float:
        """Mean slowness since the last call (one sample taken now if
        the timer has not fired in between)."""
        taken, self.samples = self.samples, []
        return fmean(taken) if taken else slowness_sample()


@dataclass
class Sample:
    """One timed op: raw wall and CPU seconds, and the machine's mean
    slowness while it ran (1.0 when not calibrated)."""

    wall: float
    cpu: float
    slowness: float


def timed_loop(tally: Tally, op, seconds: float, min_ops: int,
               cpu=cpu_seconds, calibrate: bool = True) -> list[Sample]:
    """Call ``op(i)`` until ``seconds`` have passed and at least
    ``min_ops`` ran.  An op tallies its own outcome; one that raises is
    a failed op, not a crash.  The traced runs, whose numbers are raw,
    do not calibrate."""
    samples: list[Sample] = []
    with Calibration() if calibrate else nullcontext() as calibration:
        t0 = time.perf_counter()
        while len(samples) < min_ops or time.perf_counter() - t0 < seconds:
            if calibration:
                calibration.take()  # drop what was sampled between ops
            cpu0, t = cpu(), time.perf_counter()
            try:
                op(len(samples))
            except Exception:
                traceback.print_exc()
                tally.op(False, "raised")
            wall, used = time.perf_counter() - t, cpu() - cpu0
            samples.append(Sample(
                wall, used, calibration.take() if calibration else 1.0))
    return samples


def end_to_end(samples: list[Sample], rss_mb: float, ops_per_sample: int = 1,
               latencies=None) -> tuple[dict, dict]:
    """The end-to-end metrics (at the reference speed) and their raw
    counterparts.  ``latencies`` (one list per sample) replaces the
    sample walls as the population ``solve_s`` is the median of."""
    n = len(samples) * ops_per_sample
    if latencies is None:
        latencies = [[s.wall] for s in samples]
    scaled = [t / s.slowness for s, ts in zip(samples, latencies)
              for t in ts]
    metrics = {
        "solve_s": median(scaled),
        "ops_per_s": n / sum(s.wall / s.slowness for s in samples),
        "cpu_s": sum(s.cpu / s.slowness for s in samples) / n,
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "solve_s": median(t for ts in latencies for t in ts),
        "ops_per_s": n / sum(s.wall for s in samples),
        "cpu_s": sum(s.cpu for s in samples) / n,
        "op_wall_s": [s.wall for s in samples],
        "slowness": [s.slowness for s in samples],
    }
    return metrics, raw


def min_ops(problem: Problem) -> int:
    return 1 if problem.smoke else 2


# -- untraced: the end-to-end metrics ----------------------------------------


def measure_solver(problem: Problem, seconds: float, tally: Tally, workdir):
    check = Checker(problem)

    def op(i):
        out = solve(problem)
        tally.op(*check(out.x, out.y))

    samples = timed_loop(tally, op, seconds, min_ops(problem))
    return end_to_end(samples, peak_rss_mb())


def _pair(problem, client, check, tally, i, tracer=None):
    """Op of serve_miss: cosmology i asked cold, then warm; returns the
    cold response and the two latencies."""
    op_id = f"pair{i}"
    cold, t_cold, ok1 = ask(client, problem.request(i), ("cold",),
                            tracer, op_id)
    warm, t_warm, ok2 = ask(client, problem.request(i, warm=True),
                            ("warm",), tracer, op_id)
    ok, why = ok1 and ok2, f"tiers {cold['tier']}/{warm['tier']}"
    if ok and i == 0:
        ok, why = check(cold["l"], cold["cl"])
    tally.op(ok, why)
    return cold, t_cold, t_warm


def _burst(problem, daemon, tally, i):
    computed, tiers, response = burst_of_two(daemon, problem.request(i))
    tally.op(computed == 1, f"burst of 2 computed {computed}x {tiers}")
    return computed, response


def _twin(problem: Problem):
    """What request 0 must return: its in-process serial run."""
    return None if problem.smoke else solve(problem, serial=True)


def measure_serve_miss(problem: Problem, seconds: float, tally: Tally,
                       workdir):
    check = Checker(problem, _twin(problem))
    daemon = Daemon(workdir, workdir / "store", "main")
    try:
        client = daemon.connect()
        rss = []

        def op(i):
            _pair(problem, client, check, tally, i)
            # every cosmology asked stays resident in the pool, so the
            # peak is read at a fixed amount of work, not of time
            if i < RSS_AFTER_PAIRS:
                rss[:] = [daemon.peak_rss_mb()]

        samples = timed_loop(
            tally, op, seconds, min_ops(problem),
            cpu=lambda: cpu_seconds() + daemon.cpu_seconds())
        _burst(problem, daemon, tally, len(samples))
    finally:
        daemon.stop()
    return end_to_end(samples, rss[0])


def _fill(problem, client, check, tally):
    """Compute the digests the hit workload replays; returns one
    (request, its digest, the C_l it must keep returning) per digest."""
    targets = []
    for i in range(1 if problem.smoke else HIT_COSMOLOGIES):
        for warm in (False, True):
            request = problem.request(i, warm=warm)
            response, _, ok = ask(client, request, ("cold", "warm"))
            why = f"fill tier {response['tier']}"
            if ok and i == 0 and not warm:
                ok, why = check(response["l"], response["cl"])
            tally.op(ok, why)
            targets.append((request, response["digest"], response["cl"]))
    return targets


class HitLoop:
    """Closed loop of store hits over the filled digests, round-robin
    in a seeded order, a block of hits per call."""

    def __init__(self, problem, client, targets, tally, block: int) -> None:
        self.client, self.targets, self.tally = client, targets, tally
        self.block = block
        self.order = np.random.default_rng(problem.seed) \
            .permutation(len(targets))
        self.n = 0

    def __call__(self, tracer=None):
        """One block; returns (client latencies, server-reported walls)."""
        latencies, server = [], []
        for _ in range(self.block):
            request, digest, cl = self.targets[
                self.order[self.n % len(self.order)]]
            response, latency, ok = ask(self.client, request, ("store",),
                                        tracer, f"hit{self.n}", digest)
            latencies.append(latency)
            server.append(response["timing"]["wall_s"])
            self.tally.op(ok and response["cl"] == cl,
                          f"hit {self.n}: tier {response['tier']}")
            self.n += 1
        return latencies, server


def hit_block(problem: Problem) -> int:
    return SMOKE_HITS if problem.smoke else HIT_BLOCK


@contextmanager
def one_cpu():
    """Keep this process, and the daemon spawned inside the block, on
    one CPU.

    A store hit is ~0.2 ms of work handed back and forth between two
    processes.  Left to the scheduler they sometimes share a CPU and
    sometimes sit on one each, where every hand-over wakes an idle
    virtual CPU; on this 2-vCPU box that placement alone moves the
    median latency by 2x from run to run.  On one CPU the latency is the
    CPU work of client, wire, codec and store -- what a PR can change --
    and the calibration loop runs on that same CPU.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@one_cpu()
def measure_serve_hit(problem: Problem, seconds: float, tally: Tally,
                      workdir):
    check = Checker(problem, _twin(problem))
    daemon = Daemon(workdir, workdir / "store", "main")
    try:
        client = daemon.connect()
        targets = _fill(problem, client, check, tally)
        block = hit_block(problem)
        warm_up = HitLoop(problem, client, targets, Tally(), block)
        for _ in range(1 if problem.smoke else WARM_BLOCKS):
            warm_up()
        hits = HitLoop(problem, client, targets, tally, block)
        latencies: list = []
        samples = timed_loop(
            tally, lambda i: latencies.append(hits()[0]), seconds, 1,
            cpu=lambda: cpu_seconds() + daemon.cpu_seconds())
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return end_to_end(samples, rss, block, latencies)


# -- traced: the per-layer metrics -------------------------------------------


def import_seconds(workdir, samples_wanted: int) -> float:
    """``import repro`` in a fresh interpreter, best of the samples."""
    samples = []
    for _ in range(samples_wanted):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], check=True,
                       env=child_env(workdir))
        samples.append(time.perf_counter() - t0)
    return min(samples)


def _serial_leg(problem, tracer, root: str, out, workdir) -> dict:
    """The layer numbers every workload reports: stage walls of its
    staged *serial* op (spans under ``root``) and the counts on its
    records."""
    def stage(name):
        return median(tracer.durations(name, root))

    counts = out.counts()
    run_s = stage("linger.run")
    archive = workdir / "run.npz"
    t0 = time.perf_counter()
    save_run(out.result, archive)
    t1 = time.perf_counter()
    load_run(archive)
    t2 = time.perf_counter()
    return {
        "background.build_s": stage("background.build"),
        "thermo.build_s": stage("thermo.build"),
        "linger.run_s": run_s,
        "spectra.run_s": stage("spectra.run"),
        "linger.n_modes": counts["n_modes"],
        "linger.n_rhs": counts["n_rhs"],
        "linger.n_steps": counts["n_steps"],
        "linger.us_per_rhs": run_s / counts["n_rhs"] * 1e6,
        "linger.rhs_per_step": counts["n_rhs"] / counts["n_steps"],
        "linger.save_s": t1 - t0,
        "linger.load_s": t2 - t1,
        "linger.archive_bytes": archive.stat().st_size,
    }


def _finish(problem, layers: dict, out, workdir):
    """Probes, and the shares that combine a probe with a count."""
    measured, missing = probes.run_probes(
        problem, out.result.background, out.result.thermo, workdir)
    layers.update(measured)
    run_s, n_rhs, n_steps = (layers[k] for k in (
        "linger.run_s", "linger.n_rhs", "linger.n_steps"))
    derived = {
        "perturbations.rhs_share":
            ("perturbations.rhs_us", lambda us: us * 1e-6 * n_rhs / run_s),
        "integrators.loop_share":
            ("integrators.step_us", lambda us: us * 1e-6 * n_steps / run_s),
    }
    for name, (source, formula) in derived.items():
        if source in layers:
            layers[name] = formula(layers[source])
        else:
            missing.append(name)
    if all(name in layers for name in derived):
        layers["linger.other_share"] = 1.0 - sum(
            layers[name] for name in derived)
    else:
        missing.append("linger.other_share")
    return missing


def _overhead(walls: list) -> float:
    """Tracing overhead from walls that alternate untraced, traced:
    the median over adjacent pairs (which share the machine's mood) of
    traced / untraced - 1."""
    return median(t / u for u, t in zip(walls[0::2], walls[1::2])) - 1.0


def _reference_leg(problem, tracer):
    """The staged in-process serial run of the problem; a plain run
    first, because nothing has warmed this process (forked ranks or the
    daemon do the work of these workloads)."""
    solve(problem, serial=True)
    return solve_staged(problem, tracer, "ref", serial=True, root="ref")


def trace_solver(problem: Problem, seconds: float, tally: Tally, workdir,
                 tracer: Tracer):
    """Alternate the untraced and the staged op; hier_plinger adds one
    staged serial leg of the identical problem (baseline + bitwise)."""
    check = Checker(problem)
    staged: list = []

    def op(i):
        if i % 2 == 0:
            out = solve(problem)
        else:
            out = solve_staged(problem, tracer, f"op{i}")
            staged.append(out)
        tally.op(*check(out.x, out.y))

    samples = timed_loop(tally, op, seconds, 2, calibrate=False)
    out = staged[-1]
    extras: dict = {}
    serial_root, serial_out = "op", out
    if problem.workload == "hier_plinger":
        serial_root = "ref"
        serial_out = _reference_leg(problem, tracer)
        same = np.array_equal(serial_out.y, out.y)
        tally.op(same, "PLINGER leg not bitwise equal to the serial leg")
        extras.update(_plinger_extras(tracer, out, serial_out))
    if "sparse" in out.extra:
        extras.update(_sparse_extras(problem, out))

    shares, unattributed = tracer.shares("op")
    layers = _serial_leg(problem, tracer, serial_root, serial_out, workdir)
    stats = out.extra.get("plinger")
    layers.update({
        "result_err": check.worst,
        "cli.import_s": import_seconds(workdir, 1 if problem.smoke else 2),
        "mp.messages": (stats.master_messages_sent
                        + stats.master_messages_received) if stats else 0,
        "mp.bytes": (stats.master_bytes_sent
                     + stats.master_bytes_received) if stats else 0,
        "serve.share": 0.0,
        "serve.wire_share": 0.0,
        "trace.unattributed_share": unattributed,
        "trace.overhead_share": _overhead([s.wall for s in samples]),
    })
    for layer in ("background", "thermo", "linger", "spectra", "plinger"):
        layers[f"{layer}.share"] = shares.get(layer, 0.0)
    return layers, extras, _finish(problem, layers, serial_out, workdir)


def _plinger_extras(tracer, out, serial_out) -> dict:
    run_s = median(tracer.durations("plinger.run", "op"))
    serial_s = median(tracer.durations("linger.run", "ref"))
    extras = {"plinger.run_s": run_s,
              "plinger.efficiency": serial_s / (2 * run_s),
              "plinger.vs_serial_err":
                  float(np.max(np.abs(out.y / serial_out.y - 1.0)))}
    workers = out.extra["workers"]
    if workers:
        busy = [w.busy_seconds for w in workers]
        idle = [w.idle_seconds for w in workers]
        extras.update({
            "plinger.worker_busy_s": sum(busy),
            "plinger.worker_idle_s": sum(idle),
            "plinger.idle_share": sum(idle) / (sum(idle) + sum(busy)),
            # of the op the worker times belong to: the last staged one
            "plinger.overhead_s":
                tracer.durations("plinger.run", "op")[-1] - max(busy),
        })
    return extras


def _sparse_extras(problem, out) -> dict:
    from repro.spectra import BesselCache, sources_from_result

    m = out.extra["sparse"]
    t0 = time.perf_counter()
    sources_from_result(out.result)
    t1 = time.perf_counter()
    # the j_l tables the projection fills lazily, built on their own
    bessel = BesselCache(
        float(problem.kgrid.k[-1]) * out.result.background.tau0)
    for l in out.x:
        bessel.table(int(l))
    t2 = time.perf_counter()
    return {"spectra.sources_s": t1 - t0, "spectra.bessel_s": t2 - t1,
            "spectra.interp_s": m.interp_seconds,
            "spectra.project_s": m.project_seconds,
            "spectra.n_dense": m.n_dense, "spectra.n_coarse": m.n_coarse}


def _serve_layers(problem, tracer, ref, check, workdir, latency_s,
                  engine_bound: bool):
    """The layer numbers of a serve workload: the staged in-process
    serial run of request 0 (``ref``) gives the engine stages; what the
    served latency adds on top of it is the serve layer's share."""
    ref_s = tracer.durations("ref", "ref")[0]
    layers = _serial_leg(problem, tracer, "ref", ref, workdir)
    _, wire = tracer.shares("client.request")
    ref_shares, ref_unattributed = tracer.shares("ref")
    scale = ref_s / latency_s if engine_bound else 0.0
    for layer in ("background", "thermo", "linger", "spectra"):
        layers[f"{layer}.share"] = ref_shares.get(layer, 0.0) * scale
    layers.update({
        "result_err": check.worst,
        "cli.import_s": import_seconds(workdir, 1 if problem.smoke else 2),
        "mp.messages": 0,  # the pool's traffic is not visible from outside
        "mp.bytes": 0,
        "plinger.share": 0.0,
        "serve.share": 1.0 - scale,
        "serve.wire_share": wire,
        "trace.unattributed_share": ref_unattributed * scale,
    })
    return layers


def trace_serve_miss(problem: Problem, seconds: float, tally: Tally,
                     workdir, tracer: Tracer):
    ref = _reference_leg(problem, tracer)
    check = Checker(problem, ref)
    daemon = Daemon(workdir, workdir / "store", "main")
    try:
        client = daemon.connect()
        colds, warms, server, queue = [], [], [], []

        def op(i):
            cold, t_cold, t_warm = _pair(problem, client, check, tally, i,
                                         tracer if i % 2 else None)
            colds.append(t_cold)
            warms.append(t_warm)
            server.append(cold["timing"]["wall_s"])
            queue.append(cold["timing"]["queue_wait_s"])

        samples = timed_loop(tally, op, seconds, 2, calibrate=False)
        computed, coalesced = _burst(problem, daemon, tally, len(samples))
        tier_mix = client.stats()["metrics"]["by_tier"]
    finally:
        daemon.stop()

    layers = _serve_layers(problem, tracer, ref, check, workdir,
                           median(colds), engine_bound=True)
    layers["trace.overhead_share"] = _overhead([s.wall for s in samples])
    extras = {
        "serve.start_s": daemon.start_seconds,
        "serve.cold_p50_s": median(colds),
        "serve.warm_p50_s": median(warms),
        "serve.miss_server_s": median(server),
        "serve.queue_wait_s": median(queue),
        "serve.miss_vs_serial":
            median(colds) / tracer.durations("ref", "ref")[0],
        "serve.burst_computed": computed,
        "serve.coalesced_wait_s": coalesced["timing"]["wall_s"],
        "serve.tier_mix": tier_mix,
    }
    return layers, extras, _finish(problem, layers, ref, workdir)


@one_cpu()
def trace_serve_hit(problem: Problem, seconds: float, tally: Tally,
                    workdir, tracer: Tracer):
    ref = _reference_leg(problem, tracer)
    check = Checker(problem, ref)
    store = workdir / "store"
    daemon = Daemon(workdir, store, "main")
    try:
        client = daemon.connect()
        targets = _fill(problem, client, check, tally)
        block = hit_block(problem)
        HitLoop(problem, client, targets, Tally(), block)()
        start_s = daemon.start_seconds
        hits = HitLoop(problem, client, targets, tally, block)
        plain, traced, server, medians = [], [], [], []

        def op(i):
            latencies, walls = hits(tracer if i % 2 else None)
            medians.append(median(latencies))
            (traced if i % 2 else plain).extend(latencies)
            if i % 2 == 0:
                server.extend(walls)

        timed_loop(tally, op, seconds, 2, calibrate=False)
        tier_mix = client.stats()["metrics"]["by_tier"]
    finally:
        daemon.stop()

    # the same store under a new daemon: the first hit of each digest
    # comes from the disk tier
    daemon = Daemon(workdir, store, "restart")
    try:
        client = daemon.connect()
        disk = []
        for request, digest, cl in targets:
            response, latency, ok = ask(client, request, ("store",),
                                        digest=digest)
            tally.op(ok and response["cl"] == cl, "disk-tier hit")
            disk.append(latency)
    finally:
        daemon.stop()

    latency = median(traced)
    layers = _serve_layers(problem, tracer, ref, check, workdir, latency,
                           engine_bound=False)
    layers["trace.overhead_share"] = _overhead(medians)
    extras = {
        "serve.start_s": start_s,
        "serve.hit_p50_ms": median(plain) * 1e3,
        "serve.hit_p95_ms": float(np.percentile(plain, 95)) * 1e3,
        "serve.hit_p99_ms": float(np.percentile(plain, 99)) * 1e3,
        "serve.hit_samples": len(plain),
        "serve.wire_overhead_ms": (median(plain) - median(server)) * 1e3,
        "serve.disk_hit_ms": median(disk) * 1e3,
        "serve.tier_mix": tier_mix,
    }
    return layers, extras, _finish(problem, layers, ref, workdir)


MEASURE = {
    "fig2_sparse": (measure_solver, trace_solver),
    "hier_serial": (measure_solver, trace_solver),
    "hier_plinger": (measure_solver, trace_solver),
    "matter_mdm": (measure_solver, trace_solver),
    "serve_miss": (measure_serve_miss, trace_serve_miss),
    "serve_hit": (measure_serve_hit, trace_serve_hit),
}
