"""Differential oracles: the same physics through independent code paths.

Two families of cross-checks, both reporting *measured* deviations that
the runner compares against the :mod:`~repro.verify.tolerances` budget:

* **path oracle** — drive one k-grid through the serial per-mode loop
  and through the PLINGER master/worker machinery, and compare the
  wire records (:class:`ModeHeader` / :class:`ModePayload`) field by
  field.  The two paths share the physics kernels and the one step
  loop but differ in the layers above them (dispatch, message
  packing), so agreement at ``oracle.paths_plinger`` rules out whole
  classes of orchestration bugs.

* **gauge oracle** — evolve one mode in the synchronous gauge and in
  the independently-implemented conformal-Newtonian gauge and compare
  the potentials and the gauge-invariant photon multipoles.  The two
  integrations share *no* evolution equations, so this is a genuine
  differential test of the physics, not of the plumbing.

Each oracle returns a ``{check_name: measured_deviation}`` mapping; the
caller owns the pass/fail decision (see :mod:`~repro.verify.runner`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import ParameterError
from .tolerances import budget

__all__ = [
    "HEADER_PHYSICS_FIELDS",
    "compare_header_fields",
    "compare_payload_fields",
    "paths_oracle",
    "gauge_oracle",
    "sparse_cl_oracle",
    "rhs_kernel_oracle",
    "batch_invariance_oracle",
    "chaos_degradation_oracle",
    "serve_result_oracle",
    "sockets_world_oracle",
]

#: ModeHeader fields carrying physics (not timing/accounting); the path
#: oracle compares exactly these.
HEADER_PHYSICS_FIELDS = (
    "a_end", "delta_c", "delta_b", "delta_g", "delta_nu",
    "delta_nu_massive", "theta_b", "theta_g", "theta_nu",
    "eta", "hdot", "etadot", "phi", "psi", "delta_m",
)


def _rel_dev(a, b, tol) -> float:
    """max |a - b| / max(|b|, atol) — the number compared to tol.rtol."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), tol.atol if tol.atol > 0 else 1e-300)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def compare_header_fields(ref, other, tol) -> float:
    """Worst relative deviation across the physics fields of two
    :class:`~repro.linger.records.ModeHeader` lists."""
    if len(ref) != len(other):
        raise ParameterError(
            f"header lists differ in length: {len(ref)} vs {len(other)}"
        )
    worst = 0.0
    for h_ref, h_other in zip(ref, other):
        if h_ref.k != h_other.k:
            raise ParameterError(
                f"header k mismatch: {h_ref.k} vs {h_other.k}"
            )
        for name in HEADER_PHYSICS_FIELDS:
            worst = max(worst, _rel_dev(getattr(h_other, name),
                                        getattr(h_ref, name), tol))
    return worst


def compare_payload_fields(ref, other, tol) -> float:
    """Worst relative deviation across the photon hierarchies of two
    :class:`~repro.linger.records.ModePayload` lists.

    The multipole vectors are compared against ``max |F_l|`` of the
    reference payload, not element against element — the high-l tail
    decays by many orders of magnitude and carries no downstream weight
    at its own scale.
    """
    if len(ref) != len(other):
        raise ParameterError(
            f"payload lists differ in length: {len(ref)} vs {len(other)}"
        )
    worst = 0.0
    for p_ref, p_other in zip(ref, other):
        if p_ref.k != p_other.k:
            raise ParameterError(
                f"payload k mismatch: {p_ref.k} vs {p_other.k}"
            )
        for name in ("f_gamma", "g_gamma"):
            a = np.asarray(getattr(p_other, name), dtype=float)
            b = np.asarray(getattr(p_ref, name), dtype=float)
            scale = max(float(np.max(np.abs(b))), tol.atol or 1e-300)
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst


def paths_oracle(
    params,
    kgrid,
    config,
    background=None,
    thermo=None,
    nproc: int = 3,
) -> dict[str, float]:
    """Serial vs PLINGER on one grid; measured deviation.

    The serial reference integrates one mode at a time; the PLINGER leg
    one mode per WORK message over in-process ranks.

    Returns ``{"paths_plinger": dev}``, the worst header/payload
    deviation of the PLINGER records against the serial reference.
    ``config`` must have ``keep_mode_results=False`` so the identical
    configuration is legal on both paths.
    """
    from ..linger.serial import run_linger
    from ..plinger.driver import run_plinger

    if config.keep_mode_results:
        raise ParameterError(
            "paths_oracle needs keep_mode_results=False (the PLINGER "
            "leg ships wire records only)"
        )
    serial = run_linger(params, kgrid, config, background=background,
                        thermo=thermo)
    plinger, _stats = run_plinger(
        params, kgrid, config, nproc=nproc, backend="inprocess",
        background=serial.background, thermo=serial.thermo,
    )
    tol = budget("oracle.paths_plinger")
    return {"paths_plinger": max(
        compare_header_fields(serial.headers, plinger.headers, tol),
        compare_payload_fields(serial.payloads, plinger.payloads, tol),
    )}


def sparse_cl_oracle(
    dense_result,
    factor: int = 2,
    l_values=None,
) -> dict[str, float]:
    """Dense vs sparse-k C_l on one recorded run; measured deviation.

    The dense leg projects every mode of ``dense_result`` through the
    line-of-sight pipeline; the sparse leg keeps only the
    :func:`~repro.spectra.sparse.coarse_subset` at ``factor`` and
    splines the dropped modes' sources back from their neighbours.
    Both legs reuse the *same* integrations, so the oracle isolates
    exactly the k-interpolation error — no integrator noise enters.
    Requires ``record_sources=True`` and ``keep_mode_results=True``.

    Returns ``{"sparse_cl": dev}``, the worst relative C_l deviation
    over ``l_values`` (default 2..15).
    """
    from ..spectra.los import cl_from_los
    from ..spectra.sparse import coarse_subset, sparse_cl

    if l_values is None:
        l_values = np.arange(2, 16)
    l_values = np.asarray(l_values, dtype=int)
    _, cl_dense = cl_from_los(dense_result, l_values)
    res = sparse_cl(coarse_subset(dense_result, factor),
                    dense_result.kgrid, l_values, sparse_factor=factor)
    tol = budget("oracle.sparse_cl")
    return {"sparse_cl": tol.max_rel_deviation(res.cl, cl_dense)}


def rhs_kernel_oracle(
    background,
    thermo,
    k: float = 0.01,
    rtol: float = 1e-4,
    lmax: int = 8,
) -> dict[str, float]:
    """The compiled step loop against the python driver on one mode.

    Evolves one mode on the compiled step loop, then again on the
    scalar python ``DVERK`` over the same compiled right-hand side (the
    ``driver_cls`` seam), and compares every recorded observable and
    the final state.

    Returns ``{"rhs_kernel": dev}``: the worst
    ``max|x - x_ref| / max|x_ref|``, budgeted at ``oracle.rhs_kernel``.
    Expected bitwise (0.0).
    """
    from ..integrators.dverk import RKDriver
    from ..perturbations import default_record_grid, evolve_mode

    grid = default_record_grid(background, thermo, k)
    kwargs = dict(lmax_photon=lmax, lmax_nu=lmax, record_tau=grid, rtol=rtol)
    loop_mode = evolve_mode(background, thermo, k, **kwargs)
    # DVERK's own driver class on DVERK's tableau: any class but DVERK
    # keeps the phases off the compiled loop
    py_mode = evolve_mode(background, thermo, k, driver_cls=RKDriver,
                          **kwargs)

    def dev(got, want) -> float:
        scale = max(float(np.max(np.abs(want))), 1e-300)
        return float(np.max(np.abs(got - want))) / scale

    pairs = [(py_mode.y_final, loop_mode.y_final)]
    pairs += [(py_mode.records[name], loop_mode.records[name])
              for name in loop_mode.records
              if not np.all(np.isnan(loop_mode.records[name]))]
    return {"rhs_kernel": max(dev(got, want) for got, want in pairs)}


def _record_bytes(result) -> list[bytes]:
    """The wire records of a run as bytes, timing excluded: one entry
    per mode (header then payload), so equality is bit equality and
    NaN fields (``delta_nu_massive`` without massive neutrinos)
    compare equal to themselves."""
    return [replace(header, cpu_seconds=0.0).pack().tobytes()
            + payload.pack().tobytes()
            for header, payload in zip(result.headers, result.payloads)]


def batch_invariance_oracle(
    params,
    background=None,
    thermo=None,
    nprocs=(2, 3),
) -> dict:
    """Bit invariance of the wire records and C_l under execution order.

    One short hierarchy grid (5 modes, nq=0) is integrated one mode at
    a time, largest k first — the reference — and then again: in the
    *reversed* dispatch order, smallest k first; by PLINGER with
    ``nproc`` in ``nprocs`` (in-process ranks, one mode per message).
    Every ``ModeHeader``/``ModePayload`` field except ``cpu_seconds``
    (so ``n_rhs`` and ``n_steps`` too) and the hierarchy C_l must be
    bit-for-bit the reference's.  The reversed leg pins that a mode's
    bits do not depend on what ran before it, and the ``nproc`` legs
    that they do not depend on which rank ran it.

    Returns ``{"batch_invariance": dev, "legs": {name: dev}}`` where a
    leg's ``dev`` is 0.0 when its bytes match and otherwise the worst
    relative C_l deviation (``inf`` if that is zero although records
    differ).  ``batch_invariance`` is the worst leg, or NaN when the
    legs' modes counted no evaluation (``ModeMetrics.n_rhs``) — a leg
    that never reached the compiled loop proves nothing about it.
    """
    from ..background import Background
    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig, run_linger
    from ..plinger.driver import run_plinger
    from ..spectra import cl_from_hierarchy
    from ..telemetry import Telemetry
    from ..thermo import ThermalHistory

    if background is None:
        background = Background(params)
    if thermo is None:
        thermo = ThermalHistory(background)
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 5))
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4, nq=0,
                          record_sources=False, keep_mode_results=False)
    common = dict(background=background, thermo=thermo)

    ref = run_linger(params, kgrid, config, **common)
    ref_bytes = _record_bytes(ref)
    _l, cl_ref = cl_from_hierarchy(ref)
    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)

    def deviation(result) -> float:
        _l2, cl = cl_from_hierarchy(result)
        if (_record_bytes(result) == ref_bytes
                and cl.tobytes() == cl_ref.tobytes()):
            return 0.0
        dev = float(np.max(np.abs(cl - cl_ref))) / scale
        return dev if dev > 0.0 else float("inf")

    legs: dict[str, float] = {}
    tel = Telemetry()
    ascending = KGrid.from_k(kgrid.k, largest_first=False)
    legs["reversed order"] = deviation(run_linger(
        params, ascending, config, telemetry=tel, **common))
    for nproc in nprocs:
        result, _stats = run_plinger(params, kgrid, config, nproc=nproc,
                                     backend="inprocess", telemetry=tel,
                                     **common)
        legs[f"nproc={nproc}"] = deviation(result)
    compiled_ran = sum(m.n_rhs for m in tel.modes) > 0

    worst = max(legs.values())
    return {"batch_invariance": worst if compiled_ran else float("nan"),
            "legs": legs}


def gauge_oracle(
    background,
    thermo,
    k: float = 0.05,
    rtol: float = 1e-5,
) -> dict[str, float]:
    """Synchronous vs conformal-Newtonian evolution of one mode.

    Returns ``{"gauge_potentials": dev, "gauge_multipoles": dev}``:
    the worst relative deviation of phi/psi along the shared record
    grid, and of the gauge-invariant photon multipoles F_l
    (2 <= l <= 8) today, each normalized by the synchronous run's
    maximum of the corresponding quantity.
    """
    from ..perturbations import (
        default_record_grid,
        evolve_mode,
        evolve_mode_newtonian,
    )

    grid = default_record_grid(background, thermo, k)
    syn = evolve_mode(background, thermo, k, record_tau=grid, rtol=rtol)
    con = evolve_mode_newtonian(background, thermo, k, record_tau=grid,
                                rtol=rtol)

    pot_dev = 0.0
    for name in ("phi", "psi"):
        scale = float(np.max(np.abs(syn.records[name])))
        diff = float(np.max(np.abs(con.records[name] - syn.records[name])))
        pot_dev = max(pot_dev, diff / max(scale, 1e-300))

    fs, fc = syn.f_gamma_final, con.f_gamma_final
    scale = float(np.max(np.abs(fs[2:9])))
    mult_dev = float(np.max(np.abs(fs[2:9] - fc[2:9]))) / max(scale, 1e-300)

    return {"gauge_potentials": pot_dev, "gauge_multipoles": mult_dev}


def chaos_degradation_oracle(
    params,
    seed: int = 0,
    profile: str = "all",
    nproc: int = 3,
) -> dict:
    """Golden-spectrum invariance under seeded cross-layer fault injection.

    Runs one short PLINGER spectrum fault-free, then repeats it under a
    fixed-seed :class:`~repro.chaos.ChaosPolicy` that hits all three
    fault surfaces — compiled kernel (a stale ``.so``, one failed
    compilation, and one NaN-poisoned compiled call, which the ladder
    retries), integrator (one forced step collapse) and cache (the
    chaotic product's write into a
    :class:`~repro.serve.results.ResultStore` is garbled; a fresh store
    must quarantine it and miss, and a re-write must read back) — with
    fault tolerance and telemetry armed, and compares the hierarchy C_l.

    Returns ``{"chaos_degradation": dev, "chaos_events": counts}``:
    the worst ``|cl - cl_ref| / max|cl_ref|`` over the chaotic run and
    the C_l read back from the store, plus the degradation-event count
    per surface.  ``dev`` is NaN when any surface recorded zero events —
    a chaos run that did not actually exercise every recovery path
    proves nothing, so it must fail the budget check.
    """
    import os
    import tempfile

    from ..chaos import ChaosPolicy, active
    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig
    from .._cext import (
        BUILD_EVENTS,
        get_cext,
        private_cache,
        reset_cext,
    )
    from ..plinger import run_plinger
    from ..serve.results import ResultStore
    from ..spectra import cl_from_hierarchy
    from ..telemetry import Telemetry

    kgrid = KGrid.from_k(np.geomspace(3e-4, 0.03, 6))
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4,
                          record_sources=False, keep_mode_results=False)

    clean, _ = run_plinger(params, kgrid, config, nproc=nproc,
                           backend="inprocess")
    _l, cl_ref = cl_from_hierarchy(clean)

    policy = ChaosPolicy.from_profile(profile, seed=seed)
    tel = Telemetry()
    # the kernel gauntlet plants a torn .so: in a cache of its own,
    # not the user's
    with tempfile.TemporaryDirectory() as tmp, \
            private_cache(os.path.join(tmp, "kernels")):
        with active(policy):
            # Kernel surface first: rebuild the content-addressed .so
            # through the chaos gauntlet (planted stale .so, injected
            # compile failure) so the spectrum below runs on a kernel
            # that had to *recover* into existence.
            reset_cext()
            get_cext()
            for ev in BUILD_EVENTS:
                tel.record_degradation(
                    "kernel", ev["event"],
                    ", ".join(f"{k}={v}" for k, v in ev.items()
                              if k != "event"),
                )
            chaotic, _ = run_plinger(
                params, kgrid, config, nproc=nproc, backend="inprocess",
                telemetry=tel,
            )
            _l2, cl_chaos = cl_from_hierarchy(chaotic)
            # Cache surface: the product's store write takes the policy's
            # corruption budget
            store_dir = os.path.join(tmp, "store")
            key = params.digest("chaos_degradation")
            ResultStore(store_dir).put(key, {"cl": cl_chaos})
        # a fresh store must refuse the garbled entry: a miss, quarantined
        fresh = ResultStore(store_dir)
        if fresh.get(key) is None and fresh.corrupt == 1:
            tel.record_degradation("cache", "quarantine",
                                   f"result entry {key[:12]} quarantined")
        fresh.put(key, {"cl": cl_chaos})
        cl_read = ResultStore(store_dir).get(key).arrays["cl"]

    by_surface = (dict(tel.degradation.events_by_surface)
                  if tel.degradation is not None else {})
    counts = {s: int(by_surface.get(s, 0))
              for s in ("cache", "kernel", "integrator")}
    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)
    dev = max(float(np.max(np.abs(cl - cl_ref)))
              for cl in (cl_chaos, cl_read)) / scale
    if any(n == 0 for n in counts.values()):
        dev = float("nan")
    return {"chaos_degradation": dev, "chaos_events": counts}


def sockets_world_oracle(params, nproc: int = 3) -> dict:
    """Spectrum identity over the TCP-sockets world, a lost rank included.

    One small grid is integrated serially (the reference) and then
    twice over real OS processes talking TCP on localhost:

    * **tcp**  — a clean ``nproc``-rank sockets run; the leg also
      verifies the run was *genuinely* multi-process (>= 2 distinct
      worker pids differing from the master's) and that bytes actually
      crossed the wire;
    * **kill** — a run whose highest-rank worker is SIGKILLed shortly
      after it connects; the fault tolerance machinery must quarantine
      it (``dead_workers`` nonempty) and finish on the survivors.

    Returns ``{"sockets_world": dev, "sockets_legs": {...}}`` where
    ``dev`` is the worst ``max|cl - cl_ref| / max|cl_ref|`` over the
    two legs — bitwise-zero in practice, since the frame codec moves
    the identical float64 buffers and the kill leg recomputes
    reassigned modes through the same integrator.  ``dev`` is NaN when
    a leg's tripwire fails (not actually multi-process, no rank
    quarantined): a sockets check that never left the process or never
    lost a rank proves nothing.
    """
    import os
    import signal
    import threading
    import time

    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig, run_linger
    from ..mp.backends.sockets import SocketsWorld
    from ..plinger import run_plinger
    from ..resilience import FaultTolerance
    from ..spectra import cl_from_hierarchy

    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
    # 2000 multipoles on purpose: the kill leg needs a run that is
    # still in flight when a rank dies, and the compiled step loop
    # finishes a small hierarchy before a process can fork; at this
    # size a mode takes 0.15-0.2 s.
    config = LingerConfig(lmax_photon=2000, lmax_nu=2000, rtol=1e-4,
                          record_sources=False, keep_mode_results=False)
    # Snappy fault-tolerance settings for the kill leg: a SIGKILL
    # must be detected well inside the leg's ~2 s of real work.
    ft = FaultTolerance(worker_timeout=2.0, heartbeat_interval=0.25,
                        missed_heartbeats=4, poll_seconds=0.02,
                        payload_timeout=5.0, max_retries=10)

    serial = run_linger(params, kgrid, config)
    _l, cl_ref = cl_from_hierarchy(serial)
    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)
    my_pid = os.getpid()

    legs: dict[str, bool] = {"tcp": False, "kill": False}
    dev = 0.0

    # -- clean leg: nproc ranks, real TCP, no faults ----------------------
    world = SocketsWorld(nproc)
    clean, _stats = run_plinger(params, kgrid, config, nproc=nproc,
                                backend="sockets", world=world)
    worker_pids = {p for r, p in world.rank_pids.items() if r != 0}
    _l, cl = cl_from_hierarchy(clean)
    dev = max(dev, float(np.max(np.abs(cl - cl_ref))) / scale)
    legs["tcp"] = (
        len(worker_pids) >= 2
        and my_pid not in worker_pids
        and sum(s["received"] for s in world.wire_stats().values()) > 0
    )

    # -- kill leg: SIGKILL the highest rank mid-run, finish on survivors --
    # A fixed sleep races both worker startup and run completion on a
    # loaded machine, so the assassin waits for a *connected* victim
    # (rank_pids only lists ranks past the HELLO handshake) and the
    # whole leg retries if the run still finished fault-free.
    for _attempt in range(3):
        world_k = SocketsWorld(nproc)

        def killer() -> None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                ranks = [r for r in world_k.rank_pids if r != 0]
                if len(ranks) == nproc - 1:
                    time.sleep(0.3)  # let the run get under way
                    try:
                        os.kill(world_k.child_pid(max(ranks)),
                                signal.SIGKILL)
                    except (KeyError, ProcessLookupError):
                        pass
                    return
                time.sleep(0.02)

        assassin = threading.Thread(target=killer, daemon=True)
        assassin.start()
        killed, stats_k = run_plinger(params, kgrid, config, nproc=nproc,
                                      backend="sockets", world=world_k,
                                      fault_tolerance=ft)
        assassin.join(timeout=30.0)
        _l, cl_k = cl_from_hierarchy(killed)
        dev = max(dev, float(np.max(np.abs(cl_k - cl_ref))) / scale)
        fr_k = stats_k.fault_report
        legs["kill"] = fr_k is not None and len(fr_k.dead_workers) > 0
        if legs["kill"]:
            break

    if not all(legs.values()):
        dev = float("nan")
    return {"sockets_world": dev, "sockets_legs": legs}


def serve_result_oracle(params, nproc: int = 3) -> dict:
    """Three-tier identity of the spectrum service.

    One :class:`~repro.serve.ServeRequest` is answered three ways:

    * **cold** — serial :func:`~repro.linger.serial.run_linger` (the
      reference path, no service machinery at all);
    * **warm** — a :class:`~repro.serve.WarmPool` run on every other
      wavenumber, then on the grid: tables resident, three records
      reused and three integrated (a repeat-cosmology request's tier);
    * **store** — the warm product written to a
      :class:`~repro.serve.ResultStore` and read back *through the
      disk round trip* by a second store instance (the tier an
      exact-repeat request hits, including across daemon restarts).

    Returns ``{"serve_result": dev, "serve_tiers": {...}}`` where
    ``dev`` is the worst ``max|cl - cl_ref| / max|cl_ref|`` over the
    warm and store tiers against the cold reference — bitwise-zero in
    practice, budgeted at ``oracle.serve_result``.  ``dev`` is NaN when
    the second pool run was not warm or reused other than three records,
    or the store replay missed: the check must exercise the real tiers.
    """
    import tempfile

    from ..linger.kgrid import KGrid
    from ..linger.serial import run_linger
    from ..serve import ResultStore, ServeRequest, WarmPool, \
        spectrum_product

    request = ServeRequest(params=params, k_min=3e-4, k_max=3e-3,
                           nk=6, lmax=8, rtol=1e-4)
    kgrid = request.kgrid()
    l_top = request.lmax - 3

    serial = run_linger(params, kgrid, request.config())
    _l, cl_ref = spectrum_product(params, kgrid.k, serial.payloads,
                                  l_top=l_top)

    with WarmPool(nproc=nproc) as pool:
        pool.run(params, KGrid.from_k(kgrid.k[::2]), request.config())
        warm_run, was_warm = pool.run(params, kgrid, request.config())
        was_warm = was_warm and pool.stats.modes_reused == 3
    _l, cl_warm = spectrum_product(params, kgrid.k, warm_run.payloads,
                                   l_top=l_top)

    digest = request.digest()
    with tempfile.TemporaryDirectory() as tmp:
        writer = ResultStore(tmp)
        writer.put(digest, {"l": _l.astype(np.int64),
                            "cl": np.asarray(cl_warm)})
        reader = ResultStore(tmp)  # fresh instance: must hit the disk
        hit = reader.get(digest)
    store_missed = hit is None or reader.hits_disk != 1
    cl_store = cl_warm if store_missed else hit.arrays["cl"]

    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)
    dev = max(
        float(np.max(np.abs(cl_warm - cl_ref))) / scale,
        float(np.max(np.abs(cl_store - cl_ref))) / scale,
    )
    if not was_warm or store_missed:
        dev = float("nan")
    return {
        "serve_result": dev,
        "serve_tiers": {"warm": bool(was_warm),
                        "store": not store_missed},
    }
