"""Chunk evolution driver: the inner loop of LINGER.

:func:`evolve_modes_batched` integrates a chunk of wavenumbers (and
:func:`evolve_mode` one, as a one-lane chunk) from deep in the
radiation era to (by default) the present, in two phases:

1. tight coupling (MB95 first-order TCA) from ``tau_init`` until the
   Thomson time becomes a fraction ``tca_eps`` of min(1/k, 1/H_conf)
   or hydrogen starts recombining, then
2. the full hierarchy system to ``tau_end``,

recording observables (potentials, fluid perturbations, the
polarization sum Pi, line-of-sight ingredients) on caller-supplied
conformal-time grids.  This is exactly the work a PLINGER *worker*
performs for the wavenumbers it receives from the master.

How a chunk steps through a phase is decided in one place,
:func:`_run_phase`: one lane runs the scalar
:class:`~repro.integrators.DVERK`, several lanes the lockstep
:class:`~repro.integrators.dverk_batched.BatchedDVERK`, and wherever
the resolved kernel is ``cext`` each lane's full-hierarchy phase is one
call of the compiled step loop (:func:`integrate_full_phase`).
Everything *scalar* — initial conditions, the TCA exit search,
recording, the TCA→full hand-off, final observables — goes through one
:class:`~repro.perturbations.system.PerturbationSystem` per lane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..background import Background
from ..errors import IntegrationError, ParameterError
from ..integrators import DVERK, IntegratorStats
from ..integrators.dverk import RKDriver
from ..integrators.dverk_batched import BatchedDVERK, BatchStats
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .gauges import newtonian_potentials
from .initial import (
    adiabatic_initial_conditions,
    isocurvature_initial_conditions,
)
from .state import StateLayout
from .system import PerturbationSystem
from .system_batched import PerturbationSystemBatch

__all__ = ["ModeResult", "evolve_mode", "evolve_modes_batched",
           "default_record_grid", "tau_initial", "integrate_full_phase"]

#: Observables recorded at every grid time.
RECORD_FIELDS = (
    "a",
    "delta_g",
    "theta_g",
    "sigma_g",
    "delta_b",
    "theta_b",
    "delta_c",
    "delta_nu",
    "theta_nu",
    "delta_nu_massive",
    "delta_m",
    "pi",
    "eta",
    "etadot",
    "hdot",
    "alpha",
    "alpha_dot",
    "phi",
    "psi",
    "kappa_dot",
)


@dataclass
class ModeResult:
    """Everything LINGER keeps from the evolution of one wavenumber."""

    k: float
    tau: np.ndarray  #: record grid [Mpc]
    records: dict[str, np.ndarray]
    y_final: np.ndarray
    layout: StateLayout
    stats: IntegratorStats
    tau_init: float
    tau_switch: float
    tau_end: float
    #: The RHS provider the evolution used; kept so downstream consumers
    #: (final-state observables, source assembly) never rebuild the
    #: splines a second time.
    system: PerturbationSystem | None = None

    def final_observables(self) -> dict[str, float]:
        """All RECORD_FIELDS evaluated on the final state at tau_end.

        Reuses the evolution's own :class:`PerturbationSystem` — no
        second spline construction — via a one-point record.
        """
        if self.system is None:
            raise ValueError("ModeResult was built without its system")
        rec = _Recorder(self.system, 1)
        rec.tight = False
        rec(self.tau_end, self.y_final)
        return {name: float(arr[0]) for name, arr in rec.arrays.items()}

    @property
    def f_gamma_final(self) -> np.ndarray:
        """Photon temperature multipoles F_l at tau_end."""
        return self.y_final[self.layout.sl_fg].copy()

    @property
    def g_gamma_final(self) -> np.ndarray:
        """Photon polarization multipoles G_l at tau_end."""
        return self.y_final[self.layout.sl_gg].copy()

    @property
    def theta_l_final(self) -> np.ndarray:
        """Temperature transfer Theta_l = F_l / 4 at tau_end."""
        return self.f_gamma_final / 4.0

    def record(self, name: str) -> np.ndarray:
        return self.records[name]


def tau_initial(k: float, kt_init: float = 0.03, tau_cap: float = 1.5) -> float:
    """Starting conformal time for wavenumber ``k``: k tau = kt_init,
    capped so small-k modes still start deep in the radiation era."""
    return min(kt_init / k, tau_cap)


def default_record_grid(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    n_early: int = 30,
    n_rec: int = 140,
    n_late: int = 90,
    tau_end: float | None = None,
) -> np.ndarray:
    """A conformal-time grid that resolves the visibility peak.

    Log-spaced before recombination, uniform through the visibility
    function (where the acoustic sources live), log-spaced through the
    free-streaming / ISW era to ``tau_end``.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    t0 = tau_initial(k) * 1.05
    t_rec = thermo.tau_rec
    lo, hi = 0.45 * t_rec, min(2.2 * t_rec, 0.9 * tau_end)
    parts = []
    if t0 < lo:
        parts.append(np.geomspace(t0, lo, n_early, endpoint=False))
    parts.append(np.linspace(lo, hi, n_rec, endpoint=False))
    parts.append(np.geomspace(hi, tau_end, n_late))
    grid = np.concatenate(parts)
    return grid[(grid > t0 * 0.999) & (grid <= tau_end)]


class _Recorder:
    """Accumulates observables into preallocated arrays.

    ``monitor`` is an optional pure observer called as
    ``monitor(tau, y, tight)`` after each sample is recorded (see
    ``repro.verify.ConstraintMonitor``); it sees the same full state at
    the same grid times and must not mutate ``y``.
    """

    def __init__(self, system: PerturbationSystem, n: int,
                 monitor=None) -> None:
        self.system = system
        self.arrays = {name: np.full(n, np.nan) for name in RECORD_FIELDS}
        self.tau = np.full(n, np.nan)
        self.i = 0
        self.tight = True
        self.monitor = monitor

    def __call__(self, tau: float, y: np.ndarray) -> None:
        s = self.system
        lo = s.layout
        a = y[lo.A]
        hc = s.conformal_hubble(a)
        kappa_dot = s.opacity(a)
        eps = s.nu_eps(a)
        hdot, etadot, _, _ = s._metric_sources(y, a, hc, eps=eps)
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        nl = y[lo.sl_nl]
        theta_g = 0.75 * s.k * fg[1]
        if self.tight:
            sigma_g = s.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)
            pi_pol = 2.5 * 2.0 * sigma_g  # Pi = 5/2 F2 in tight coupling
        else:
            sigma_g = 0.5 * fg[2]
            pi_pol = fg[2] + gg[0] + gg[2]
        gshear = s.shear_sum(y, a, sigma_g, eps=eps)
        pots = newtonian_potentials(s.k, y[lo.ETA], hdot, etadot, hc, gshear)

        p = s.params
        if lo.nq > 0:
            psi_m = lo.psi_matrix(y)
            delta_nu_m = float((s._w_rho * eps) @ psi_m[:, 0]) / s._rho_factor(a)
        else:
            delta_nu_m = float("nan")
        num = p.omega_c * y[lo.DELTA_C] + p.omega_b * y[lo.DELTA_B]
        if lo.nq > 0 and p.omega_nu > 0:
            num += p.omega_nu * delta_nu_m
        delta_m = num / p.omega_m

        i = self.i
        arr = self.arrays
        self.tau[i] = tau
        arr["a"][i] = a
        arr["delta_g"][i] = fg[0]
        arr["theta_g"][i] = theta_g
        arr["sigma_g"][i] = sigma_g
        arr["delta_b"][i] = y[lo.DELTA_B]
        arr["theta_b"][i] = y[lo.THETA_B]
        arr["delta_c"][i] = y[lo.DELTA_C]
        arr["delta_nu"][i] = nl[0]
        arr["theta_nu"][i] = 0.75 * s.k * nl[1]
        arr["delta_nu_massive"][i] = delta_nu_m
        arr["delta_m"][i] = delta_m
        arr["pi"][i] = pi_pol
        arr["eta"][i] = y[lo.ETA]
        arr["etadot"][i] = etadot
        arr["hdot"][i] = hdot
        arr["alpha"][i] = pots.alpha
        arr["alpha_dot"][i] = pots.alpha_dot
        arr["phi"][i] = pots.phi
        arr["psi"][i] = pots.psi
        arr["kappa_dot"][i] = kappa_dot
        self.i += 1
        if self.monitor is not None:
            self.monitor(tau, y, self.tight)


def find_tca_exit(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    tca_eps: float = 0.01,
    xe_threshold: float = 0.99,
) -> float:
    """Conformal time at which tight coupling stops being valid.

    Exit when 1/kappa' exceeds ``tca_eps`` times min(1/k, 1/H_conf), or
    when hydrogen recombination begins (x_e < ``xe_threshold`` times its
    early value), whichever is earlier.
    """
    a = thermo._a
    tau = thermo._tau
    kappa_dot = thermo._kappa_dot_table
    hc = background.conformal_hubble(a)
    cond = kappa_dot * tca_eps < np.maximum(k, hc)
    xe0 = thermo._x_e_table[0]
    cond |= thermo._x_e_table < xe_threshold * xe0
    idx = np.argmax(cond)
    if idx == 0 and not cond[0]:
        raise IntegrationError("tight coupling never ends before today")
    return float(tau[idx])


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
    first_step: float | None = None,
    driver_cls: type[RKDriver] = DVERK,
) -> list[ModeResult]:
    """Evolve a chunk of wavenumbers; one ModeResult per lane.

    This is the LINGER worker computation — everything from the series
    initial conditions at ``k tau = 0.03`` to the multipoles today —
    for every wavenumber of the chunk.  All lanes share the multipole
    cutoffs: callers batching a k-grid must group modes of equal lmax
    into one chunk.  Set-up (layout, initial conditions, TCA exit,
    record grids, recorders) and tear-down (telemetry, demotions,
    ``ModeResult`` assembly) are per lane and the same for any chunk
    length; *how the two phases step* is chosen by :func:`_run_phase`
    from the chunk length and the active kernel.  Every route follows
    the arithmetic contract, so a lane's result is bitwise the same
    whatever the chunk around it.

    ``record_tau`` is either None (no records for any lane) or a
    sequence of per-lane record grids (each an array or None).

    ``monitors`` is either None or a sequence of per-lane observers
    (each None or a callable ``monitor(tau, y, tight)`` invoked at
    every record point — the hook ``repro.verify`` uses to sample
    Einstein-constraint residuals along the production trajectory);
    each is bound to its lane's serial system.  Like telemetry, a
    monitor is a pure observer: the integration is bit-identical with
    or without it.

    ``rhs_kernel`` selects the evaluation kernel for the full-hierarchy
    phase (``"python"``/``"cext"``/``"auto"``; an unavailable ``cext``
    falls back to python).  The TCA phase and the scalar
    recording/hand-off paths always run python.

    ``first_step`` forces every phase's opening step on every route.
    ``driver_cls`` replaces the scalar driver of one-lane phases (a
    test seam: anything but DVERK also keeps the compiled loop out).

    When ``telemetry`` is enabled, each lane leaves one
    :class:`~repro.telemetry.report.ModeMetrics` (a chunk's phase
    wallclock is shared equally between its lanes), a chunk of several
    lanes one ``BatchMetrics`` with its lockstep occupancy, and the
    operator's per-kernel evaluation counts land in ``RhsMetrics``.
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
    # one serial system per lane for every scalar code path (one-lane
    # stepping, recording, hand-off, final observables): lane views
    # over the chunk's one operator
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

    t_init = np.array([tau_initial(k) for k in ks.tolist()])
    if np.any(t_init >= tau_end):
        raise ParameterError("tau_end precedes the initial time")
    Y = np.empty((B, layout.n_state))
    for b, k in enumerate(ks.tolist()):
        Y[b] = ic_builders[initial_conditions](
            layout, background, k, float(t_init[b]),
            q_nodes=systems[b].q_nodes if nq_eff else None,
            amplitude=amplitude,
        )

    t_switch = np.array([
        find_tca_exit(background, thermo, k, tca_eps=tca_eps)
        for k in ks.tolist()
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
    stats = [IntegratorStats() for _ in range(B)]
    batch_stats = BatchStats()
    walls = [time.perf_counter() if telemetry.enabled else 0.0]

    # Phase 1: tight coupling to each lane's own tau_switch, the
    # hand-off of the slaved moments, then phase 2: the full hierarchy
    for tight, t0, t1 in ((True, t_init, t_switch),
                          (False, t_switch, np.full(B, tau_end))):
        stops = [g[g <= t_switch[b]] if tight else g[g > t_switch[b]]
                 for b, g in enumerate(grids)]
        for rec in recorders:
            rec.tight = tight

        def on_stop(b: int, t: float, y_row: np.ndarray) -> None:
            # the drivers also stop at phase ends, which are recorded
            # only when they are record points
            if _in(t, stops[b]):
                recorders[b](t, y_row)

        Y = _run_phase(
            batch_system, systems, tight, Y, t0, t1, stops, on_stop, stats,
            batch_stats, driver_cls=driver_cls, rtol=rtol, atol=atol,
            max_steps=max_steps, first_step=first_step)
        if tight:
            for b in range(B):
                systems[b].initialize_full_from_tca(Y[b], float(t_switch[b]))
        walls.append(time.perf_counter() if telemetry.enabled else 0.0)

    if telemetry.enabled:
        wall0, wall1, wall2 = walls
        for b in range(B):
            telemetry.record_mode(
                k=float(ks[b]),
                lmax=layout.lmax_photon,
                n_rhs=stats[b].n_rhs,
                n_steps=stats[b].n_steps,
                n_rejected=stats[b].n_rejected,
                flops_est=stats[b].n_flops,
                tau_switch=float(t_switch[b]),
                tca_wall_seconds=(wall1 - wall0) / B,
                full_wall_seconds=(wall2 - wall1) / B,
                wall_seconds=(wall2 - wall0) / B,
            )
        if B > 1:
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

    return [
        ModeResult(
            k=float(ks[b]),
            tau=rec.tau[: rec.i],
            records={name: arr[: rec.i] for name, arr in rec.arrays.items()},
            y_final=Y[b].copy(),
            layout=layout,
            stats=stats[b],
            tau_init=float(t_init[b]),
            tau_switch=float(t_switch[b]),
            tau_end=tau_end,
            system=systems[b],
        )
        for b, rec in enumerate(recorders)
    ]


def evolve_mode(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    lmax_photon: int = 12,
    lmax_nu: int = 12,
    nq: int = 0,
    lmax_massive_nu: int = 10,
    tau_end: float | None = None,
    record_tau: np.ndarray | None = None,
    rtol: float = 1e-5,
    atol: float = 1e-9,
    first_step: float | None = None,
    tca_eps: float = 0.01,
    amplitude: float = 1.0,
    initial_conditions: str = "adiabatic",
    driver_cls: type[RKDriver] = DVERK,
    max_steps: int = 2_000_000,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor=None,
    rhs_kernel: str = "auto",
) -> ModeResult:
    """Evolve one wavenumber: the one-lane call of
    :func:`evolve_modes_batched` (which documents every argument).

    Both phases run the scalar ``driver_cls`` on the lane's
    :class:`PerturbationSystem`; with ``cext`` (what ``auto`` resolves
    to when a C compiler exists) and the default driver the whole
    full-hierarchy phase is one call of the compiled step loop, bitwise
    the python driver.
    """
    return evolve_modes_batched(
        background, thermo, [k], lmax_photon=lmax_photon, lmax_nu=lmax_nu,
        nq=nq, lmax_massive_nu=lmax_massive_nu, tau_end=tau_end,
        record_tau=[record_tau], rtol=rtol, atol=atol, tca_eps=tca_eps,
        amplitude=amplitude, initial_conditions=initial_conditions,
        max_steps=max_steps, telemetry=telemetry, monitors=[monitor],
        rhs_kernel=rhs_kernel, first_step=first_step, driver_cls=driver_cls,
    )[0]


def _run_phase(
    batch_system: PerturbationSystemBatch,
    systems: list[PerturbationSystem],
    tight: bool,
    Y: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    stops: list[np.ndarray],
    on_stop,
    stats: list[IntegratorStats],
    batch_stats: BatchStats,
    *,
    driver_cls: type[RKDriver],
    **tolerances,
) -> np.ndarray:
    """One phase of a chunk; returns the ``(B, n_state)`` end states.

    The one place that decides how a chunk steps, from what it can
    observe:

    * several lanes on the python kernel (always so in tight coupling)
      step in lockstep through :class:`BatchedDVERK`, which amortizes
      the interpreter over the lanes; lanes that finish early park
      until the chunk drains;
    * otherwise each lane runs on its own — the scalar driver, which at
      one lane has none of the lockstep driver's masked-array overhead,
      or in the full phase :func:`integrate_full_phase`, which is the
      compiled step loop whenever ``cext`` is active and beats any
      python batching.

    Lane ``b``'s counters accumulate in ``stats[b]`` over both phases
    (``max_steps`` is a lane's budget for the whole evolution on the
    scalar routes); ``batch_stats`` keeps the lockstep occupancy books,
    where a lane stepping alone counts every slot as active.
    """
    B = len(systems)
    compiled = (not tight and
                batch_system.op.active_kernel(batch_system.rhs_kernel)
                == "cext")
    if B > 1 and not compiled:
        drv = BatchedDVERK(
            batch_system.rhs_tca if tight else batch_system.rhs_full,
            flops_per_rhs=batch_system.flops_per_eval(), **tolerances)
        res = drv.integrate(Y, t0, t1, stop_points=stops, on_stop=on_stop,
                            stats=batch_stats)
        for b in range(B):
            stats[b].merge(res.lane_stats(b))
        return res.y

    Y_end = np.empty_like(Y)
    for b, system in enumerate(systems):
        lane, args = stats[b], (Y[b], float(t0[b]), float(t1[b]))
        accepted, rejected = lane.n_steps, lane.n_rejected

        def lane_stop(t, row, b=b):
            on_stop(b, t, row)

        if tight:
            drv = driver_cls(system.rhs_tca,
                             flops_per_rhs=system.flops_per_eval(),
                             **tolerances)
            Y_end[b] = drv.integrate(*args, stop_points=stops[b],
                                     on_stop=lane_stop, stats=lane).y
        else:
            Y_end[b] = integrate_full_phase(
                system, *args, stops[b], lane_stop, lane,
                driver_cls=driver_cls, **tolerances)
        accepted = lane.n_steps - accepted
        rejected = lane.n_rejected - rejected
        batch_stats.n_sweeps += accepted + rejected
        batch_stats.lane_steps_attempted += accepted + rejected
        batch_stats.lane_steps_accepted += accepted
        batch_stats.lane_steps_rejected += rejected
    return Y_end


def integrate_full_phase(
    system: PerturbationSystem,
    y0: np.ndarray,
    t0: float,
    t1: float,
    stop_points: np.ndarray,
    on_stop,
    stats: IntegratorStats,
    *,
    rtol: float,
    atol: float,
    max_steps: int,
    first_step: float | None = None,
    driver_cls: type[RKDriver] = DVERK,
) -> np.ndarray:
    """One lane's full-hierarchy phase; returns the state at ``t1``.

    When the system's kernel (after any demotion) is ``cext`` and the
    driver is DVERK, the phase is one call of the compiled step loop;
    the rows it returns are replayed through ``on_stop`` and its
    counters folded into ``stats`` with the python driver's formulas,
    so recorders, monitors and telemetry cannot tell the difference.

    The python driver keeps the failure semantics.  A compiled call
    that stops early (max steps, step underflow) or returns a
    non-finite state has touched neither ``stats`` nor ``on_stop``; the
    phase is re-run from ``y0`` by the python driver, which returns the
    identical result or raises the canonical
    :class:`~repro.errors.IntegrationError`.  A non-finite state first
    demotes the kernel, as a non-finite single evaluation does.
    """
    op = system.op
    drv = driver_cls(system.rhs_full, rtol=rtol, atol=atol,
                     max_steps=max_steps, first_step=first_step,
                     flops_per_rhs=system.flops_per_eval())
    if driver_cls is DVERK and op.active_kernel(system.rhs_kernel) == "cext":
        out = op.integrate_full(
            system.lane, y0, t0, t1, stop_points, rtol=rtol, atol=atol,
            max_steps=max_steps - stats.n_steps, first_step=first_step)
        if out.ok:
            for t, row in zip(out.stops.tolist(), out.rows):
                on_stop(t, row)
            s = drv.tableau.n_stages
            step_flops = drv._flops_per_step(y0.size)
            stats.n_steps += out.n_steps
            stats.n_rejected += out.n_rejected
            stats.n_rhs += out.n_rhs
            stats.n_flops += (step_flops // s
                              + step_flops * (out.n_steps + out.n_rejected))
            return out.y
        if out.status == 0:
            op._demote("cext", "non-finite integrate_full output")
    return drv.integrate(y0, t0, t1, stop_points=stop_points,
                         on_stop=on_stop, stats=stats).y


def _in(t: float, grid: np.ndarray) -> bool:
    """True when t coincides with a requested record point (the driver
    also stops at phase ends, which must not be recorded twice)."""
    if grid.size == 0:
        return False
    j = np.searchsorted(grid, t)
    for jj in (j - 1, j):
        if 0 <= jj < grid.size and abs(grid[jj] - t) <= 1e-9 * max(t, 1.0):
            return True
    return False
