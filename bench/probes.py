"""Per-layer probes that reach below the stable public surface.

Each probe times one layer in isolation, on the workload's own state
layout and model.  Every import of a non-public name sits inside the
probe, so a later PR that deletes ``PerturbationSystemBatch`` or
``DVERK`` costs this benchmark a metric, not a crash: :func:`run_probes`
reports the probe's metrics as missing and the end-to-end numbers are
untouched.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

RHS_EVALS = 300
LANES = 8


def _median_call_seconds(fn, calls: int, rounds: int = 5) -> float:
    """Median over rounds of the mean seconds per call."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return float(np.median(samples))


def _layout(problem):
    from repro.perturbations import StateLayout

    c = problem.config
    nq = c.nq if problem.params.omega_nu > 0 else 0
    return StateLayout(lmax_photon=c.lmax_photon, lmax_nu=c.lmax_nu, nq=nq,
                       lmax_massive_nu=c.lmax_massive_nu if nq else 0)


def probe_perturbations(problem, background, thermo, workdir) -> dict:
    """One full-phase RHS evaluation on the workload's layout: through
    the scalar system (what one mode at a time runs), and per lane
    through the batched system at 8 lanes."""
    from repro.perturbations import (
        PerturbationSystemBatch,
        adiabatic_initial_conditions,
    )

    layout = _layout(problem)
    k = float(np.median(problem.kgrid.k))
    tau = 0.03 / k  # deep in the radiation era, where every mode starts
    t0 = time.perf_counter()
    batch = PerturbationSystemBatch(background, thermo, np.full(LANES, k),
                                    layout)
    build_ms = (time.perf_counter() - t0) * 1e3
    y0 = adiabatic_initial_conditions(
        layout, background, k, tau,
        q_nodes=batch.q_nodes if layout.nq else None)
    scalar = batch.lane_system(0)
    state, taus = np.tile(y0, (LANES, 1)), np.full(LANES, tau)
    return {
        "perturbations.system_build_ms": build_ms,
        "perturbations.rhs_us": _median_call_seconds(
            lambda: scalar.rhs_full(tau, y0), RHS_EVALS) * 1e6,
        "perturbations.rhs_us_lane8": _median_call_seconds(
            lambda: batch.rhs_full(taus, state), RHS_EVALS // LANES)
        / LANES * 1e6,
    }


def probe_integrators(problem, background, thermo, workdir) -> dict:
    """Driver overhead per accepted step: a trivial linear RHS of the
    workload's state size, so the step loop is all there is to time."""
    from repro.integrators import DVERK

    n = _layout(problem).n_state
    decay = -np.linspace(0.5, 1.5, n)

    def rhs(t, y):
        return decay * y

    samples = []
    for _ in range(3):
        driver = DVERK(rhs, rtol=1e-4, atol=1e-9)
        t0 = time.perf_counter()
        res = driver.integrate(np.ones(n), 0.0, 40.0,
                               stop_points=np.linspace(0.05, 40.0, 400))
        samples.append((time.perf_counter() - t0) / res.stats.n_steps)
    return {"integrators.step_us": float(np.median(samples)) * 1e6}


def _noop_rank(handle) -> None:
    handle.initpass()
    handle.endpass()


def _echo_rank(handle) -> None:
    handle.initpass()
    while True:
        tag, source = handle.mycheckany()
        if tag == 9:
            handle.myrecvraw(9, source)
            break
        handle.mysendreal(handle.myrecvraw(tag, source), tag, source)
    handle.endpass()


def probe_mp(problem, background, thermo, workdir) -> dict:
    """The message-passing substrate on its own: world start, an 8-real
    ping-pong and a 64k-real message through the wrapper routines."""
    from repro.mp import get_backend

    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        world = get_backend("procs", 3)
        world.launch(_noop_rank)
        master = world.handle(0)
        master.initpass()
        master.endpass()
        world.join(timeout=30.0)
        starts.append(time.perf_counter() - t0)

    world = get_backend("procs", 2)
    world.launch(_echo_rank)
    master = world.handle(0)
    master.initpass()
    try:
        small = np.arange(8.0)

        def ping(buffer, tag):
            master.mysendreal(buffer, tag, 1)
            master.myrecvreal(buffer.size, tag, 1)

        ping(small, 1)
        rtt = _median_call_seconds(lambda: ping(small, 1), 100)
        big = np.zeros(65536)
        ping(big, 2)
        per_big = _median_call_seconds(lambda: ping(big, 2), 5)
    finally:
        master.mysendreal(np.zeros(1), 9, 1)
        master.endpass()
        world.join(timeout=30.0)
    return {
        "mp.world_start_s": float(np.median(starts)),
        "mp.rtt_us": rtt * 1e6,
        # the message crosses twice per ping
        "mp.mb_per_s": 2 * big.nbytes / per_big / 1e6,
    }


def probe_cache(problem, background, thermo, workdir) -> dict:
    """The opt-in precompute cache: cold build into an empty directory,
    then a warm load of the same tables."""
    from repro import PrecomputeCache

    cache_dir = Path(workdir) / "probe-cache"
    t0 = time.perf_counter()
    cold = PrecomputeCache(cache_dir)
    cold.thermal(cold.background(problem.params))
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = PrecomputeCache(cache_dir)
    warm.thermal(warm.background(problem.params))
    warm_s = time.perf_counter() - t0
    return {"cache.cold_build_s": cold_s, "cache.warm_load_s": warm_s,
            "cache.bytes_written": int(cold.metrics.bytes_written)}


def probe_serve_store(problem, background, thermo, workdir) -> dict:
    """The store and the line codec under a store hit, on a payload of
    the shape the daemon stores and sends for this k-grid."""
    from repro import ResultStore
    from repro.serve.protocol import decode_message, encode_message

    nk = problem.kgrid.nk
    nl = problem.config.lmax_photon - 4
    rng = np.random.default_rng(0)
    arrays = {
        "k": np.asarray(problem.kgrid.k), "delta_m": rng.random(nk),
        "headers": rng.random((nk, 21)),
        "payload_flat": rng.random(nk * (2 * problem.config.lmax_photon + 8)),
        "l": np.arange(2, 2 + nl), "cl": rng.random(nl),
    }
    store = ResultStore(Path(workdir) / "probe-store")
    puts = []
    for i in range(5):
        t0 = time.perf_counter()
        store.put(f"{i:064x}", arrays, meta={"kind": "probe"})
        puts.append(time.perf_counter() - t0)
    get_s = _median_call_seconds(lambda: store.get(f"{0:064x}"), 200)
    doc = {"ok": True, "tier": "store", "l": arrays["l"].tolist(),
           "cl": arrays["cl"].tolist(), "band_power_uk": arrays["cl"].tolist(),
           "k": arrays["k"].tolist(), "delta_m": arrays["delta_m"].tolist(),
           "timing": {"queue_wait_s": 0.0, "wall_s": 1e-4}}
    line = encode_message(doc)
    return {
        "serve.store_put_ms": float(np.median(puts)) * 1e3,
        "serve.store_get_us": get_s * 1e6,
        "serve.encode_us": _median_call_seconds(
            lambda: encode_message(doc), 200) * 1e6,
        "serve.decode_us": _median_call_seconds(
            lambda: decode_message(line), 200) * 1e6,
    }


#: probe -> the metrics it yields (reported as missing if it cannot run)
PROBES = {
    probe_perturbations: ("perturbations.rhs_us", "perturbations.rhs_us_lane8",
                          "perturbations.system_build_ms"),
    probe_integrators: ("integrators.step_us",),
    probe_mp: ("mp.world_start_s", "mp.rtt_us", "mp.mb_per_s"),
    probe_cache: ("cache.cold_build_s", "cache.warm_load_s",
                  "cache.bytes_written"),
    probe_serve_store: ("serve.store_put_ms", "serve.store_get_us",
                        "serve.encode_us", "serve.decode_us"),
}


def run_probes(problem, background, thermo, workdir):
    """Run every probe; returns (metrics, names of metrics not measured)."""
    metrics: dict = {}
    missing: list[str] = []
    for probe, names in PROBES.items():
        try:
            metrics.update(probe(problem, background, thermo, workdir))
        except (ImportError, AttributeError, TypeError) as exc:
            print(f"probe {probe.__name__} cannot run: "
                  f"{type(exc).__name__}: {exc}")
            missing.extend(names)
    return metrics, missing
