"""Differential oracles: the same physics through independent code paths.

Two families of cross-checks, both reporting *measured* deviations that
the runner compares against the :mod:`~repro.verify.tolerances` budget:

* **path oracle** — drive one k-grid through the serial per-mode loop,
  through four-mode chunks (one operator assembly, lanes addressed by
  number), and through the PLINGER master/worker machinery, and compare
  the wire records (:class:`ModeHeader` / :class:`ModePayload`) field
  by field.  The three paths share the physics kernels and the one
  step loop but differ in the layers above them (lane addressing,
  dispatch order, message packing), so agreement at ``oracle.paths_*``
  rules out whole classes of orchestration bugs.

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
    batch_size: int = 4,
    nproc: int = 3,
    include_plinger: bool = True,
) -> dict[str, float]:
    """Serial vs chunked vs PLINGER on one grid; measured deviations.

    The serial reference integrates one mode per operator assembly;
    the chunked leg (``paths_batched``, the name its budget was
    registered under) ``batch_size`` modes per assembly; the PLINGER
    leg one mode per WORK message over in-process ranks.

    Returns ``{"paths_batched": dev, "paths_plinger": dev}`` (the
    PLINGER entry only when ``include_plinger``), each the worst
    header/payload deviation of that path against the serial reference.
    ``config`` must have ``keep_mode_results=False`` so the identical
    configuration is legal on all three paths.
    """
    from ..linger.serial import run_linger

    if config.keep_mode_results:
        raise ParameterError(
            "paths_oracle needs keep_mode_results=False (the PLINGER "
            "leg ships wire records only)"
        )
    serial = run_linger(params, kgrid, config, background=background,
                        thermo=thermo)
    background, thermo = serial.background, serial.thermo

    out: dict[str, float] = {}

    chunked = run_linger(params, kgrid, config, background=background,
                         thermo=thermo, batch_size=batch_size)
    tol_b = budget("oracle.paths_batched")
    out["paths_batched"] = max(
        compare_header_fields(serial.headers, chunked.headers, tol_b),
        compare_payload_fields(serial.payloads, chunked.payloads, tol_b),
    )

    if include_plinger:
        from ..plinger.driver import run_plinger

        plinger, _stats = run_plinger(
            params, kgrid, config, nproc=nproc, backend="inprocess",
            background=background, thermo=thermo,
        )
        tol_p = budget("oracle.paths_plinger")
        out["paths_plinger"] = max(
            compare_header_fields(serial.headers, plinger.headers, tol_p),
            compare_payload_fields(serial.payloads, plinger.payloads, tol_p),
        )
    return out


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
    """Replay one mode through every RHS kernel and the compiled loop.

    Evolves one monitored mode with the scalar python reference
    (python kernel, python driver), capturing the states at the record
    grid in both phases, then re-evaluates the phase's own right-hand
    side — ``rhs_tca`` at the tight-coupling states, ``rhs_full`` at
    the rest — at each captured ``(tau, y)`` through lane 1 of a
    three-lane operator assembled for ``[k/2, k, 2k]``, on every
    available kernel (python always, cext when it exists), each against
    the one-lane python reference evaluated on the same state — lane
    addressing, which is all a chunk relies on; and, when the ``cext``
    kernel exists, evolves the same mode again through the compiled
    step loop (both phases) and compares every recorded observable and
    the final state against the python driver's.

    Returns ``{"rhs_kernel": dev}``: the worst
    ``max|x - x_ref| / max|x_ref|`` over states, kernels and the
    compiled-loop leg.  The python lane and the compiled loop are
    expected bitwise (dev contribution 0.0); the compiled kernel is
    budgeted at ``oracle.rhs_kernel`` and, this mode having no massive
    neutrinos, measures 0.0 too.  With no compiler the check still
    measures the lane-of-a-chunk vs one-lane equivalence rather than
    vacuously passing.
    """
    from ..perturbations import default_record_grid, evolve_mode
    from ..perturbations.operator import BoltzmannOperator, available_kernels
    from ..perturbations.state import StateLayout
    from ..perturbations.system import PerturbationSystem

    states: list[tuple[float, np.ndarray, bool]] = []

    def monitor(tau, y, tight):
        states.append((float(tau), np.array(y, dtype=float), tight))

    grid = default_record_grid(background, thermo, k)
    kwargs = dict(lmax_photon=lmax, lmax_nu=lmax, record_tau=grid, rtol=rtol)
    ref_mode = evolve_mode(background, thermo, k, monitor=monitor,
                           rhs_kernel="python", **kwargs)
    if len({tight for _, _, tight in states}) != 2:
        raise ParameterError(
            "rhs_kernel_oracle needs states of both phases; the record "
            "grid misses tight coupling or ends before its exit"
        )

    layout = StateLayout(lmax_photon=lmax, lmax_nu=lmax, nq=0,
                         lmax_massive_nu=0)
    ref = PerturbationSystem(background, thermo, k, layout)
    chunk = BoltzmannOperator(background, thermo,
                              np.array([0.5 * k, k, 2.0 * k]), layout)
    lanes = [
        PerturbationSystem(background, thermo, k, layout,
                           operator=chunk, lane=1, rhs_kernel=name)
        for name in available_kernels()
    ]

    worst = 0.0
    for tau, y, tight in states:
        rhs = "rhs_tca" if tight else "rhs_full"
        dy_ref = getattr(ref, rhs)(tau, y).copy()
        scale = max(float(np.max(np.abs(dy_ref))), 1e-300)
        for lane in lanes:
            dy = getattr(lane, rhs)(tau, y)
            worst = max(worst, float(np.max(np.abs(dy - dy_ref))) / scale)

    if "cext" in available_kernels():
        loop_mode = evolve_mode(background, thermo, k, rhs_kernel="cext",
                                **kwargs)
        pairs = [(loop_mode.y_final, ref_mode.y_final)]
        pairs += [(loop_mode.records[name], ref_mode.records[name])
                  for name in ref_mode.records
                  if not np.all(np.isnan(ref_mode.records[name]))]
        for got, want in pairs:
            scale = max(float(np.max(np.abs(want))), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return {"rhs_kernel": worst}


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
    batch_sizes=(1, 2, 5),
    nprocs=(2, 3),
) -> dict:
    """Bit invariance of the wire records and C_l under execution knobs.

    One short hierarchy grid (5 modes, nq=0) is integrated by the
    python kernel one mode at a time — the reference — and then again
    under every ``rhs_kernel`` this host has among {python, cext}
    crossed with: ``batch_size`` in ``batch_sizes``; one 5-lane chunk
    in *reversed* lane order; PLINGER with ``nproc`` in ``nprocs``
    (in-process ranks, one mode per message).  Every
    ``ModeHeader``/``ModePayload`` field except ``cpu_seconds``
    (so ``n_rhs`` and ``n_steps`` too) and the hierarchy C_l must be
    bit-for-bit the reference's.  Every leg steps one lane at a time;
    what the ``batch_size`` and ``reversed lanes`` legs pin is that a
    lane's coefficient rows, packed constants and record pass do not
    depend on which other wavenumbers share its operator or where in
    it the lane sits — chunk composition and lane tables — and the
    ``nproc`` legs that they do not depend on which rank assembled it.

    Returns ``{"batch_invariance": dev, "legs": {name: dev}}`` where a
    leg's ``dev`` is 0.0 when its bytes match and otherwise the worst
    relative C_l deviation (``inf`` if that is zero although records
    differ).  ``batch_invariance`` is the worst leg, or NaN when a C
    compiler exists and yet the ``cext`` legs evaluated anything on the
    python kernel (or nothing at all) — a compiled leg that silently
    fell back for a phase proves nothing about the compiled loop.
    """
    from ..background import Background
    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig, run_linger
    from ..perturbations.operator import available_kernels
    from ..plinger.driver import run_plinger
    from ..spectra import cl_from_hierarchy
    from ..telemetry import Telemetry
    from ..thermo import ThermalHistory

    if background is None:
        background = Background(params)
    if thermo is None:
        thermo = ThermalHistory(background)
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 5))
    base = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4, nq=0,
                        record_sources=False, keep_mode_results=False,
                        rhs_kernel="python")
    common = dict(background=background, thermo=thermo)

    ref = run_linger(params, kgrid, base, **common)
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
    compiled_ran = True
    kernels = [k for k in ("python", "cext") if k in available_kernels()]
    for kernel in kernels:
        config = replace(base, rhs_kernel=kernel)
        tel = Telemetry()
        for batch_size in batch_sizes:
            legs[f"{kernel} batch_size={batch_size}"] = deviation(run_linger(
                params, kgrid, config, batch_size=batch_size, telemetry=tel,
                **common))
        # one chunk holding every mode, lanes in ascending-k order: the
        # reverse of the dispatch order the batch_size legs used
        ascending = KGrid.from_k(kgrid.k, largest_first=False)
        legs[f"{kernel} reversed lanes"] = deviation(run_linger(
            params, ascending, config, batch_size=kgrid.nk, telemetry=tel,
            **common))
        for nproc in nprocs:
            result, _stats = run_plinger(params, kgrid, config, nproc=nproc,
                                         backend="inprocess", telemetry=tel,
                                         **common)
            legs[f"{kernel} nproc={nproc}"] = deviation(result)
        if kernel == "cext":
            evals = tel.rhs.evals if tel.rhs else {}
            compiled_ran = (evals.get("cext", 0) > 0
                            and evals.get("python", 0) == 0)

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
    fault surfaces — cache (a corrupted store entry to quarantine and
    rebuild), compiled kernel (a stale ``.so``,
    one failed compilation, and one NaN-poisoned compiled output),
    and integrator (one forced step collapse) — with fault tolerance
    and telemetry armed, and compares the hierarchy C_l.

    Returns ``{"chaos_degradation": dev, "chaos_events": counts}``:
    the worst ``|cl - cl_ref| / max|cl_ref|`` plus the degradation-event
    count per surface.  ``dev`` is NaN when any surface recorded zero
    events — a chaos run that did not actually exercise every recovery
    path proves nothing, so it must fail the budget check.
    """
    import os
    import tempfile

    from ..cache import PrecomputeCache
    from ..chaos import ChaosPolicy, active
    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig
    from .._cext import (
        BUILD_EVENTS,
        get_cext,
        private_cache,
        reset_cext,
    )
    from ..perturbations.operator import available_kernels
    from ..plinger import run_plinger
    from ..spectra import cl_from_hierarchy
    from ..telemetry import Telemetry

    kgrid = KGrid.from_k(np.geomspace(3e-4, 0.03, 6))
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4,
                          record_sources=False, keep_mode_results=False,
                          rhs_kernel="auto")

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
                if ev["event"] != "unavailable":
                    tel.record_degradation(
                        "kernel", ev["event"],
                        ", ".join(f"{k}={v}" for k, v in ev.items()
                                  if k != "event"),
                    )
            # Cache surface: a warm-up build consumes the store-write
            # corruption budget, so the run's own load below hits the
            # corrupted entry and must quarantine + rebuild it.
            PrecomputeCache(tmp).background(params)
            cache = PrecomputeCache(tmp)
            chaotic, _ = run_plinger(
                params, kgrid, config, nproc=nproc, backend="inprocess",
                telemetry=tel, cache=cache,
            )
        for e in cache.degradation.events:
            tel.record_degradation(e["surface"], e["event"],
                                   e.get("detail", ""),
                                   e.get("seconds", 0.0))
    if available_kernels() == ("python",):
        # no compiled kernel to poison on this host: the NaN-sentinel
        # demotion cannot fire, so record the degradation floor itself
        tel.record_degradation("kernel", "unavailable_fallback",
                               "no compiled kernel on this host")
    _l2, cl_chaos = cl_from_hierarchy(chaotic)

    by_surface = (dict(tel.degradation.events_by_surface)
                  if tel.degradation is not None else {})
    counts = {s: int(by_surface.get(s, 0))
              for s in ("cache", "kernel", "integrator")}
    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)
    dev = float(np.max(np.abs(cl_chaos - cl_ref))) / scale
    if any(n == 0 for n in counts.values()):
        dev = float("nan")
    return {"chaos_degradation": dev, "chaos_events": counts}


def sockets_world_oracle(params, nproc: int = 3) -> dict:
    """Spectrum identity over the TCP-sockets world, elastic legs included.

    One small grid is integrated serially (the reference) and then
    three times over real OS processes talking TCP on localhost:

    * **tcp**  — a clean ``nproc``-rank sockets run; the leg also
      verifies the run was *genuinely* multi-process (>= 2 distinct
      worker pids differing from the master's) and that bytes actually
      crossed the wire;
    * **join** — a run started one rank short, with the missing worker
      dialing in *mid-run* (the elastic-admission path); the fault
      report must show ``ranks_joined >= 1``;
    * **kill** — a run whose highest-rank worker is SIGKILLed shortly
      after it connects; the fault tolerance machinery must quarantine
      it (``dead_workers`` nonempty) and finish on the survivors.

    Returns ``{"sockets_world": dev, "sockets_legs": {...}}`` where
    ``dev`` is the worst ``max|cl - cl_ref| / max|cl_ref|`` over the
    three legs — bitwise-zero in practice, since the frame codec moves
    the identical float64 buffers and the elastic legs recompute
    through the same integrator.  ``dev`` is NaN when any leg's
    tripwire fails (not actually multi-process, no rank joined, no
    rank quarantined): a sockets check that never left the process or
    never exercised elasticity proves nothing.
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
    # The python driver on purpose: the join and kill legs need a run
    # that is still in flight when a rank dials in or dies, and the
    # compiled step loop finishes this grid before a process can fork.
    # The bits are the same either way (oracle.batch_invariance).
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4,
                          record_sources=False, keep_mode_results=False,
                          rhs_kernel="python")
    # Snappy fault-tolerance settings for the elastic legs: a SIGKILL
    # must be detected well inside the leg's ~2 s of real work.
    ft = FaultTolerance(worker_timeout=2.0, heartbeat_interval=0.25,
                        missed_heartbeats=4, poll_seconds=0.02,
                        payload_timeout=5.0, max_retries=10)

    serial = run_linger(params, kgrid, config)
    _l, cl_ref = cl_from_hierarchy(serial)
    scale = max(float(np.max(np.abs(cl_ref))), 1e-300)
    my_pid = os.getpid()

    legs: dict[str, bool] = {"tcp": False, "join": False, "kill": False}
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

    # -- join leg: start one rank short, admit a newcomer mid-run ---------
    # Like the kill leg below, the leg retries if the run still
    # finished before the newcomer's fork and HELLO got through.
    n_join = max(nproc - 1, 2)
    for _attempt in range(3):
        world_j = SocketsWorld(n_join)

        def late_joiner() -> None:
            # "mid-run" means after the master has opened its books: a
            # newcomer that connects while the world is still
            # assembling is seated as a founder, never counted as joined
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                ranks = [r for r in world_j.rank_pids if r != 0]
                if len(ranks) >= n_join - 1:
                    time.sleep(0.2)  # let the run get under way
                    world_j.spawn_extra_worker()
                    return
                time.sleep(0.02)

        joiner = threading.Thread(target=late_joiner, daemon=True)
        joiner.start()
        joined, stats_j = run_plinger(params, kgrid, config, nproc=n_join,
                                      backend="sockets", world=world_j,
                                      fault_tolerance=ft)
        joiner.join(timeout=30.0)
        _l, cl_j = cl_from_hierarchy(joined)
        dev = max(dev, float(np.max(np.abs(cl_j - cl_ref))) / scale)
        fr_j = stats_j.fault_report
        legs["join"] = fr_j is not None and fr_j.ranks_joined >= 1
        if legs["join"]:
            break

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
    * **warm** — a :class:`~repro.serve.WarmPool` run twice, the
      second run with the cosmology's tables resident in its LRU (the
      tier a repeat-cosmology request hits);
    * **store** — the warm product written to a
      :class:`~repro.serve.ResultStore` and read back *through the
      disk npz round trip* by a second store instance (the tier an
      exact-repeat request hits, including across daemon restarts).

    Returns ``{"serve_result": dev, "serve_tiers": {...}}`` where
    ``dev`` is the worst ``max|cl - cl_ref| / max|cl_ref|`` over the
    warm and store tiers against the cold reference — bitwise-zero in
    practice, budgeted at ``oracle.serve_result``.  ``dev`` is NaN when
    the second pool run was not actually warm or the store replay
    missed: the check must exercise the real tiers to mean anything.
    """
    import tempfile

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
        pool.run(params, kgrid, request.config())
        warm_run, was_warm = pool.run(params, kgrid, request.config())
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
