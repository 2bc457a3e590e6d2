"""Batched per-mode evolution: B wavenumbers through both phases at once.

:func:`evolve_modes_batched` is the vectorized counterpart of
:func:`~repro.perturbations.evolve.evolve_mode`.  The *arithmetic* runs
through :class:`~repro.perturbations.system_batched.PerturbationSystemBatch`
and :class:`~repro.integrators.dverk_batched.BatchedDVERK` on a
``(B, n_state)`` state matrix; everything *scalar* — initial
conditions, the TCA exit search, observable recording, the TCA→full
hand-off, final observables — goes through one ordinary serial
:class:`~repro.perturbations.system.PerturbationSystem` per lane, so
those code paths are shared with (and bit-identical to) the per-mode
reference implementation.

The two integration phases stay global: every lane runs tight coupling
from its own ``tau_init`` to its own ``tau_switch`` (lanes that exit
tight coupling early park until the batch drains), then every lane is
handed off and the full hierarchy runs to ``tau_end``.  Each lane keeps
its own adaptive step size and PI-controller memory, and every sum
follows the arithmetic contract, so a lane's result is bitwise what the
serial driver gives that wavenumber — whatever the batch around it.

When the resolved kernel is ``cext`` the full-hierarchy phase does not
step in lockstep at all: each lane runs the compiled step loop on its
own (:func:`~repro.perturbations.evolve.integrate_full_phase`), which
is both faster than any python batching and trivially independent of
batch composition.
"""

from __future__ import annotations

import time

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..integrators.dverk_batched import (
    BatchedDVERK,
    BatchIntegrationResult,
    BatchStats,
)
from ..integrators.results import IntegratorStats
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .evolve import (
    ModeResult,
    _in,
    _Recorder,
    find_tca_exit,
    integrate_full_phase,
    tau_initial,
)
from .initial import (
    adiabatic_initial_conditions,
    isocurvature_initial_conditions,
)
from .state import StateLayout
from .system_batched import PerturbationSystemBatch

__all__ = ["evolve_modes_batched"]


def _full_phase_compiled(systems, Y, t0, t1, stops, on_stop,
                         batch_stats: BatchStats, **tolerances
                         ) -> BatchIntegrationResult:
    """The full-hierarchy phase, one compiled call per lane.

    Each lane goes through
    :func:`~repro.perturbations.evolve.integrate_full_phase` (python
    driver on any failure, for that lane alone) and the per-lane
    counters are returned in the batched driver's container.  No lane
    waits for another, so the occupancy books record every lane-slot
    as active.
    """
    B = len(systems)
    Y_end = np.empty_like(Y)
    lanes = [IntegratorStats() for _ in range(B)]
    for b, system in enumerate(systems):
        Y_end[b] = integrate_full_phase(
            system, Y[b], float(t0[b]), float(t1[b]), stops[b],
            lambda t, row, b=b: on_stop(b, t, row), lanes[b], **tolerances)
        attempts = lanes[b].n_steps + lanes[b].n_rejected
        batch_stats.n_sweeps += attempts
        batch_stats.lane_steps_attempted += attempts
        batch_stats.lane_steps_accepted += lanes[b].n_steps
        batch_stats.lane_steps_rejected += lanes[b].n_rejected
    return BatchIntegrationResult(
        t=np.array(t1, dtype=float), y=Y_end, batch=batch_stats,
        lane_n_rhs=np.array([s.n_rhs for s in lanes]),
        lane_steps=np.array([s.n_steps for s in lanes]),
        lane_rejected=np.array([s.n_rejected for s in lanes]),
        lane_flops=np.array([s.n_flops for s in lanes]),
    )


def evolve_modes_batched(
    background: Background,
    thermo: ThermalHistory,
    ks,
    lmax_photon: int = 12,
    lmax_nu: int = 12,
    nq: int = 0,
    lmax_massive_nu: int = 10,
    tau_end: float | None = None,
    record_tau=None,
    rtol: float = 1e-5,
    atol: float = 1e-9,
    tca_eps: float = 0.01,
    amplitude: float = 1.0,
    initial_conditions: str = "adiabatic",
    max_steps: int = 2_000_000,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitors=None,
    rhs_kernel: str = "auto",
) -> list[ModeResult]:
    """Evolve a chunk of wavenumbers together; one ModeResult per lane.

    ``record_tau`` is either None (no records for any lane) or a
    sequence of per-lane record grids (each an array or None).  All
    lanes share the multipole cutoffs — callers batching a k-grid must
    group modes of equal lmax into one chunk.

    ``monitors`` is either None or a sequence of per-lane observers
    (each a callable or None, see :class:`_Recorder`); each is bound to
    its lane's *serial* system so monitor arithmetic is shared with the
    per-mode reference path.

    ``rhs_kernel`` routes the full-hierarchy phase through the selected
    operator kernel, exactly as in :func:`evolve_mode` (``cext``: the
    compiled step loop, lane by lane); the TCA phase and the scalar
    recording/hand-off paths always run python.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise ParameterError("ks must be a non-empty 1-d array")
    B = int(ks.size)
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    nq_eff = nq if background.params.omega_nu > 0 else 0
    layout = StateLayout(
        lmax_photon=lmax_photon,
        lmax_nu=lmax_nu,
        nq=nq_eff,
        lmax_massive_nu=lmax_massive_nu if nq_eff else 0,
    )
    batch_system = PerturbationSystemBatch(background, thermo, ks, layout,
                                           rhs_kernel=rhs_kernel,
                                           instrument=telemetry.enabled)
    # one serial system per lane for every scalar code path (recording,
    # hand-off, final observables) — lane views over the batch's own
    # operator, so the coefficient structure is assembled exactly once
    # and the scalar arithmetic is shared with the reference path
    systems = [batch_system.lane_system(b) for b in range(B)]

    ic_builders = {
        "adiabatic": adiabatic_initial_conditions,
        "isocurvature": isocurvature_initial_conditions,
    }
    if initial_conditions not in ic_builders:
        raise ParameterError(
            f"unknown initial_conditions {initial_conditions!r}; "
            f"choose from {sorted(ic_builders)}"
        )

    t_init = np.array([tau_initial(float(k)) for k in ks])
    if np.any(t_init >= tau_end):
        raise ParameterError("tau_end precedes the initial time")
    Y0 = np.empty((B, layout.n_state))
    for b, k in enumerate(ks):
        Y0[b] = ic_builders[initial_conditions](
            layout, background, float(k), float(t_init[b]),
            q_nodes=systems[b].q_nodes if nq_eff else None,
            amplitude=amplitude,
        )

    t_switch = np.array([
        find_tca_exit(background, thermo, float(k), tca_eps=tca_eps)
        for k in ks
    ])
    t_switch = np.minimum(np.maximum(t_switch, t_init * 1.01), tau_end)

    if record_tau is None:
        record_tau = [None] * B
    if len(record_tau) != B:
        raise ParameterError("record_tau must have one grid per lane")
    grids: list[np.ndarray] = []
    for b, grid in enumerate(record_tau):
        grid = np.empty(0) if grid is None else np.asarray(grid, dtype=float)
        if grid.size and (
            grid.min() <= t_init[b] or grid.max() > tau_end * (1 + 1e-9)
        ):
            raise ParameterError("record grid outside (tau_init, tau_end]")
        grids.append(grid)

    if monitors is None:
        monitors = [None] * B
    if len(monitors) != B:
        raise ParameterError("monitors must have one entry per lane")
    for b, mon in enumerate(monitors):
        if mon is not None and hasattr(mon, "bind"):
            mon.bind(systems[b])

    recorders = [
        _Recorder(systems[b], grids[b].size, monitor=monitors[b])
        for b in range(B)
    ]
    batch_stats = BatchStats()

    # Phase 1: tight coupling ------------------------------------------
    wall0 = time.perf_counter() if telemetry.enabled else 0.0
    stops1 = [g[g <= t_switch[b]] for b, g in enumerate(grids)]
    for rec in recorders:
        rec.tight = True

    def on_stop1(b: int, t: float, y_row: np.ndarray) -> None:
        if _in(t, stops1[b]):
            recorders[b](t, y_row)

    drv1 = BatchedDVERK(batch_system.rhs_tca, rtol=rtol, atol=atol,
                        max_steps=max_steps,
                        flops_per_rhs=batch_system.flops_per_eval())
    res1 = drv1.integrate(Y0, t_init, t_switch, stop_points=stops1,
                          on_stop=on_stop1, stats=batch_stats)

    # Hand-off: the slaved moments per lane, on views into the matrix
    Y = res1.y
    for b in range(B):
        systems[b].initialize_full_from_tca(Y[b], float(t_switch[b]))
    wall1 = time.perf_counter() if telemetry.enabled else 0.0

    # Phase 2: full hierarchy ------------------------------------------
    stops2 = [g[g > t_switch[b]] for b, g in enumerate(grids)]
    for rec in recorders:
        rec.tight = False

    def on_stop2(b: int, t: float, y_row: np.ndarray) -> None:
        if _in(t, stops2[b]):
            recorders[b](t, y_row)

    t_end = np.full(B, tau_end)
    if batch_system.op.active_kernel(batch_system.rhs_kernel) == "cext":
        res2 = _full_phase_compiled(systems, Y, t_switch, t_end, stops2,
                                    on_stop2, batch_stats, rtol=rtol,
                                    atol=atol, max_steps=max_steps)
    else:
        drv2 = BatchedDVERK(batch_system.rhs_full, rtol=rtol, atol=atol,
                            max_steps=max_steps,
                            flops_per_rhs=batch_system.flops_per_eval())
        res2 = drv2.integrate(Y, t_switch, t_end, stop_points=stops2,
                              on_stop=on_stop2, stats=batch_stats)

    if telemetry.enabled:
        wall2 = time.perf_counter()
        for b in range(B):
            n_rhs = int(res1.lane_n_rhs[b] + res2.lane_n_rhs[b])
            telemetry.record_mode(
                k=float(ks[b]),
                lmax=layout.lmax_photon,
                n_rhs=n_rhs,
                n_steps=int(res1.lane_steps[b] + res2.lane_steps[b]),
                n_rejected=int(res1.lane_rejected[b] + res2.lane_rejected[b]),
                flops_est=int(res1.lane_flops[b] + res2.lane_flops[b]),
                tau_switch=float(t_switch[b]),
                tca_wall_seconds=(wall1 - wall0) / B,
                full_wall_seconds=(wall2 - wall1) / B,
                wall_seconds=(wall2 - wall0) / B,
            )
        telemetry.record_batch(
            n_lanes=B,
            k_min=float(ks.min()),
            k_max=float(ks.max()),
            n_sweeps=batch_stats.n_sweeps,
            lane_steps_attempted=batch_stats.lane_steps_attempted,
            lane_steps_accepted=batch_stats.lane_steps_accepted,
            lane_steps_rejected=batch_stats.lane_steps_rejected,
            lane_slots_idle=batch_stats.lane_slots_idle,
            tca_wall_seconds=wall1 - wall0,
            full_wall_seconds=wall2 - wall1,
            wall_seconds=wall2 - wall0,
        )
        telemetry.record_rhs(
            requested=rhs_kernel,
            active=batch_system.rhs_kernel,
            evals=dict(batch_system.op.evals),
            seconds=dict(batch_system.op.seconds),
        )

    for d in batch_system.op.drain_demotions():
        telemetry.record_degradation(
            "kernel", "demotion", f"{d['from']}->{d['to']}: {d['reason']}"
        )

    results: list[ModeResult] = []
    for b in range(B):
        rec = recorders[b]
        stats = IntegratorStats()
        for res in (res1, res2):
            lane = res.lane_stats(b)
            stats.n_steps += lane.n_steps
            stats.n_rejected += lane.n_rejected
            stats.n_rhs += lane.n_rhs
            stats.n_flops += lane.n_flops
        results.append(ModeResult(
            k=float(ks[b]),
            tau=rec.tau[: rec.i],
            records={name: arr[: rec.i] for name, arr in rec.arrays.items()},
            y_final=res2.y[b].copy(),
            layout=layout,
            stats=stats,
            tau_init=float(t_init[b]),
            tau_switch=float(t_switch[b]),
            tau_end=tau_end,
            system=systems[b],
        ))
    return results
