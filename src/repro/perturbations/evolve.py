"""Mode evolution driver: the inner loop of LINGER.

:func:`evolve_mode` integrates one wavenumber from deep in the
radiation era to (by default) the present, in two phases:

1. tight coupling (MB95 first-order TCA) from ``tau_init`` until the
   Thomson time becomes a fraction ``tca_eps`` of min(1/k, 1/H_conf)
   or hydrogen starts recombining, then
2. the full hierarchy system to ``tau_end``,

recording observables (potentials, fluid perturbations, the
polarization sum Pi, line-of-sight ingredients) on caller-supplied
conformal-time grids.  This is exactly the work a PLINGER *worker*
performs for the wavenumbers it receives from the master.

A mode is one :class:`~repro.perturbations.system.PerturbationSystem`
(one assembly and one ``pack()``) and one compiled call
(:func:`integrate_mode`): both phases, the hand-off of the slaved
moments and the record pass — COSMICS's one subroutine call per k,
massive species or not.  Only the ``driver_cls`` test seam goes phase
by phase, to the same bits.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from ..background import Background
from ..errors import IntegrationError, ParameterError
from ..integrators import DVERK, VERNER_65_TABLEAU, IntegratorStats
from ..integrators.dverk import RKDriver, step_flops
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .initial import (
    adiabatic_initial_conditions,
    isocurvature_initial_conditions,
)
from .state import StateLayout
from .system import (
    RECORD_FIELDS,
    PerturbationSystem,
    phase_failure,
    phase_stops,
)

__all__ = ["ModeResult", "evolve_mode", "default_record_grid",
           "record_grid_start", "tau_initial", "integrate_mode",
           "integrate_phase", "RECORD_FIELDS"]


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
    #: The RHS provider the evolution used (its flop census, and what
    #: a record pass needs to turn more states into observables)
    system: PerturbationSystem | None = None
    #: CPU seconds of the whole evolution, set-up included (the paper's
    #: per-k cost, the ``cpu_seconds`` of its header)
    cpu_seconds: float = 0.0
    #: every RECORD_FIELDS entry on the final state at tau_end: the last
    #: row of the mode's one record pass
    final: dict[str, float] | None = None

    def final_observables(self) -> dict[str, float]:
        """All RECORD_FIELDS evaluated on the final state at tau_end."""
        if self.final is None:
            raise ValueError("ModeResult was built without its final record")
        return dict(self.final)

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

    The grid depends on ``k`` only through the mode's start time (every
    k <= 0.02 shares one), so it is built once per start time and
    shared: the array is read-only.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    return _record_grid(tau_initial(k) * 1.05, thermo.tau_rec, tau_end,
                        n_early, n_rec, n_late)


@functools.lru_cache(maxsize=32)
def _record_grid(t0: float, t_rec: float, tau_end: float, n_early: int,
                 n_rec: int, n_late: int) -> np.ndarray:
    lo, hi = 0.45 * t_rec, min(2.2 * t_rec, 0.9 * tau_end)
    parts = []
    if t0 < lo:
        parts.append(np.geomspace(t0, lo, n_early, endpoint=False))
    parts.append(np.linspace(lo, hi, n_rec, endpoint=False))
    parts.append(np.geomspace(hi, tau_end, n_late))
    grid = np.concatenate(parts)
    grid = grid[(grid > t0 * 0.999) & (grid <= tau_end)]
    grid.flags.writeable = False
    return grid


def record_grid_start(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    tau_end: float | None = None,
) -> float:
    """``default_record_grid(background, thermo, k, tau_end=tau_end)[0]``
    without building the grid.

    A mode that starts before the uniform recombination stretch — every
    mode of a physical cosmology: ``tau_initial`` is capped at 1.5 Mpc —
    records first at its own start time, which ``geomspace`` returns
    exactly.  Anything else reads the grid.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    t0 = tau_initial(k) * 1.05
    if t0 < 0.45 * thermo.tau_rec and t0 <= tau_end:
        return t0
    return float(
        default_record_grid(background, thermo, k, tau_end=tau_end)[0])


def find_tca_exit(
    thermo: ThermalHistory,
    k: float,
    tca_eps: float = 0.01,
    xe_threshold: float = 0.99,
) -> float:
    """Conformal time at which tight coupling stops being valid.

    Exit when 1/kappa' exceeds ``tca_eps`` times min(1/k, 1/H_conf), or
    when x_e falls below ``xe_threshold`` times its first table value,
    whichever is earlier.  Everything but ``k`` is read off the thermal
    history's own tables.

    What the second test does today: the first table value is the fully
    ionized 1 + 2 f_He = 1.158, so 0.99 of it is crossed when helium
    goes He++ -> He+ at z ~ 6000 — tau = 63.3 Mpc for every k < 0.09,
    where tau_c a H is 0.002 — not when hydrogen recombination begins;
    the first test would fire at tau = 156.  The explicit integrator
    then steps at its stability limit on the stiff Thomson terms from
    63 to 250 Mpc: that stretch holds ~915 of the 933 accepted steps
    of a low-k mode, every one at the bound :func:`integrate_phase`
    hands its driver (:meth:`PerturbationSystem.thomson_rate`), none
    rejected.  The switch time is still what the ROADMAP item "End
    tight coupling when the physics says so" waits on:
    keyed on the hydrogen fraction instead, a mode takes 3-12x fewer
    evaluations — and moves P(k) at k = 0.06 by 5e-6, because the
    committed references were made with this switch and budget 9e-7
    around it.
    So it stays until the ``[benchmark]`` PR regenerates them; do not
    "fix" it alone.
    """
    cond = thermo._kappa_dot_table * tca_eps < np.maximum(
        k, thermo._conformal_hubble_table)
    xe0 = thermo._x_e_table[0]
    cond |= thermo._x_e_table < xe_threshold * xe0
    idx = np.argmax(cond)
    if idx == 0 and not cond[0]:
        raise IntegrationError("tight coupling never ends before today")
    return float(thermo._tau[idx])


_IC_BUILDERS = {
    "adiabatic": adiabatic_initial_conditions,
    "isocurvature": isocurvature_initial_conditions,
}


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
) -> ModeResult:
    """Evolve one wavenumber.

    This is the LINGER worker computation — everything from the series
    initial conditions at ``k tau = 0.03`` to the multipoles today:
    initial conditions, the tight-coupling phase to ``tau_switch``, the
    hand-off of the slaved moments, the full hierarchy to ``tau_end``,
    one record pass over the record points of both phases and the
    final state (:attr:`ModeResult.final`) — :func:`integrate_mode`.
    The counters accumulate in one :class:`IntegratorStats` over both
    phases (``max_steps`` is its budget for the whole evolution).

    ``record_tau`` is None (no records) or the record grid: strictly
    increasing, inside ``(tau_init, tau_end]``, else
    :class:`~repro.errors.ParameterError`.

    ``monitor`` is None or a callable ``monitor(tau, y, tight)`` invoked
    at every record point (never at the final state, unless it is
    one) — the hook ``repro.verify`` uses to sample
    Einstein-constraint residuals along the production trajectory — and
    is bound to the mode's system.  Like telemetry, a monitor is a pure
    observer: the integration is bit-identical with or without it.

    ``first_step`` forces every phase's opening step.  ``driver_cls``
    replaces the compiled loop by a python driver stepping the compiled
    right-hand side (a test seam: anything but DVERK).

    ``ModeResult.cpu_seconds`` is the whole call's CPU time.  When
    ``telemetry`` is enabled, a completed mode leaves one
    :class:`~repro.telemetry.report.ModeMetrics` with its counters and
    the wallclock of its two phases.
    """
    cpu0 = time.process_time()
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    nq_eff = nq if background.params.omega_nu > 0 else 0
    layout = StateLayout(
        lmax_photon=lmax_photon,
        lmax_nu=lmax_nu,
        nq=nq_eff,
        lmax_massive_nu=lmax_massive_nu if nq_eff else 0,
    )
    system = PerturbationSystem(background, thermo, k, layout)
    k = system.k
    if initial_conditions not in _IC_BUILDERS:
        raise ParameterError(
            f"unknown initial_conditions {initial_conditions!r}; "
            f"choose from {sorted(_IC_BUILDERS)}"
        )
    t_init = tau_initial(k)
    if t_init >= tau_end:
        raise ParameterError("tau_end precedes the initial time")
    grid = record_points(record_tau, t_init, tau_end)

    if monitor is not None and hasattr(monitor, "bind"):
        monitor.bind(system)
    y = _IC_BUILDERS[initial_conditions](
        layout, background, k, t_init,
        q_nodes=system.q_nodes if layout.nq else None,
        amplitude=amplitude,
    )
    t_switch = find_tca_exit(thermo, k, tca_eps=tca_eps)
    t_switch = min(max(t_switch, t_init * 1.01), tau_end)
    stats = IntegratorStats()
    y, tau, rows, rec, n_tight, walls = integrate_mode(
        system, y, t_init, t_switch, tau_end, grid, stats, rtol=rtol,
        atol=atol, max_steps=max_steps, first_step=first_step,
        driver_cls=driver_cls)
    n = tau.size
    if monitor is not None:  # the record points, not the final state
        for t, row, flag in zip(tau.tolist(), rows,
                                (np.arange(n) < n_tight).tolist()):
            monitor(t, row, flag)
    mode = ModeResult(
        k=k,
        tau=tau,
        records=dict(zip(RECORD_FIELDS, rec[:, :n])),
        y_final=y,
        layout=layout,
        stats=stats,
        tau_init=t_init,
        tau_switch=t_switch,
        tau_end=tau_end,
        system=system,
        final=dict(zip(RECORD_FIELDS, rec[:, n].tolist())),
    )
    # only a mode that completed leaves rows: a failed one is retried
    # whole (linger.serial.compute_mode)
    if telemetry.enabled:
        tca_wall, full_wall = walls
        telemetry.record_mode(
            k=k,
            lmax=layout.lmax_photon,
            n_rhs=stats.n_rhs,
            n_steps=stats.n_steps,
            n_rejected=stats.n_rejected,
            n_stability_bound=stats.n_stability_bound,
            flops_est=stats.n_flops,
            tau_switch=t_switch,
            tca_wall_seconds=tca_wall,
            full_wall_seconds=full_wall,
            wall_seconds=tca_wall + full_wall,
        )
    mode.cpu_seconds = time.process_time() - cpu0
    return mode


def record_points(record_tau, t_init: float, tau_end: float) -> np.ndarray:
    """``record_tau`` (None: none) as a float array, refused with
    :class:`~repro.errors.ParameterError` unless strictly increasing
    inside ``(t_init, tau_end]``."""
    grid = (np.empty(0) if record_tau is None
            else np.asarray(record_tau, dtype=float))
    if not (grid[1:] > grid[:-1]).all():
        i = int(np.flatnonzero(~(grid[1:] > grid[:-1]))[0])
        raise ParameterError(
            f"record grid is not strictly increasing: entry {i + 1} "
            f"({grid[i + 1]:.6g}) follows {grid[i]:.6g}")
    if grid.size and not (t_init < grid[0]
                          and grid[-1] <= tau_end * (1 + 1e-9)):
        raise ParameterError("record grid outside (tau_init, tau_end]")
    return grid


def integrate_mode(
    system: PerturbationSystem,
    y0: np.ndarray,
    t_init: float,
    t_switch: float,
    tau_end: float,
    grid: np.ndarray,
    stats: IntegratorStats,
    *,
    rtol: float,
    atol: float,
    max_steps: int,
    first_step: float | None = None,
    driver_cls: type[RKDriver] = DVERK,
) -> tuple:
    """Both phases of a mode, the hand-off and the record pass over the
    record points ``grid`` (a phase end only when it is one, and once)
    and the final state: one compiled call on the default driver
    (:meth:`PerturbationSystem.evolve`), else phase by phase.  Counters
    fold into ``stats`` by the python driver's formulas; a failure
    raises its :class:`~repro.errors.IntegrationError`, with its
    message.

    Returns the final state, the record points reached, the states
    there then the final one, their ``(20, n + 1)`` records, how many
    of the rows are tight coupling's, and the wall seconds of the tight
    phase with the hand-off and of the full phase.
    """
    tight_pts, full_pts = grid[grid <= t_switch], grid[grid > t_switch]
    kwargs = dict(rtol=rtol, atol=atol, max_steps=max_steps,
                  first_step=first_step)
    if driver_cls is DVERK:
        stops_t = phase_stops(tight_pts, t_init, t_switch)
        stops_f = phase_stops(full_pts, t_switch, tau_end)
        m_t = stops_t.size - (not _in(t_switch, tight_pts))
        m_f = stops_f.size - (not _in(tau_end, full_pts))
        out = system.evolve(y0, np.concatenate([stops_t, stops_f]),
                            (stops_t.size, stops_f.size, m_t, m_f),
                            t_init=t_init, t_switch=t_switch,
                            tau_end=tau_end, **kwargs)
        failure = phase_failure(out.status, out.t, out.h, max_steps)
        if failure is not None:
            raise IntegrationError(failure)
        for n_steps, n_rejected, n_rhs, _, n_bound in out.counters.tolist():
            _fold(stats, system, n_steps, n_rejected, n_rhs, n_bound)
        return (out.y, np.concatenate([stops_t[:m_t], stops_f[:m_f]]),
                out.rows, out.rec, m_t, out.walls)

    walls = [time.perf_counter()]
    y, taus, rows = y0, [], []
    for tight, t0, t1, pts in ((True, t_init, t_switch, tight_pts),
                               (False, t_switch, tau_end, full_pts)):
        y, tau, block = integrate_phase(system, tight, y, t0, t1, pts, stats,
                                        driver_cls=driver_cls, **kwargs)
        m = len(tau) - (not _in(t1, pts))
        taus.append(tau[:m])
        rows.append(block[:m])
        if tight:
            n_tight = m
            system.initialize_full_from_tca(y, t_switch)
        walls.append(time.perf_counter())
    rows = np.concatenate([*rows, y[None]])
    return (y, np.concatenate(taus), rows, system.record(rows, n_tight),
            n_tight, (walls[1] - walls[0], walls[2] - walls[1]))


def integrate_phase(
    system: PerturbationSystem,
    tight: bool,
    y0: np.ndarray,
    t0: float,
    t1: float,
    stop_points: np.ndarray,
    stats: IntegratorStats,
    *,
    rtol: float,
    atol: float,
    max_steps: int,
    first_step: float | None = None,
    driver_cls: type[RKDriver] = DVERK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tight-coupling or full-hierarchy phase; returns the state at
    ``t1``, the stop times reached (the stop points, then ``t1`` if
    that is not one of them) and the ``(n_stops, n_state)`` block of
    states there.

    One call of the compiled step loop, its counters folded into
    ``stats`` with the python driver's formulas, so recorders, monitors
    and telemetry cannot tell the difference; the full phase steps
    under the Thomson stability bound (``stiff_rate=system.thomson_rate``;
    see ``RKDriver``) and ``stats.n_stability_bound`` counts the
    attempts it set.  A call that stops early (max steps, step
    underflow) or ends on a non-finite state raises the
    :class:`~repro.errors.IntegrationError` the python driver raises,
    with its message.  Any ``driver_cls`` but DVERK steps the
    system's compiled right-hand side in python instead (a test seam).
    """
    if driver_cls is not DVERK:
        drv = driver_cls(system.rhs_tca if tight else system.rhs_full,
                         rtol=rtol, atol=atol, max_steps=max_steps,
                         first_step=first_step,
                         flops_per_rhs=system.flops_per_eval(),
                         # tight coupling has no Thomson terms to be
                         # stiff on
                         stiff_rate=None if tight else system.thomson_rate)
        res = drv.integrate(y0, t0, t1, stop_points=stop_points, stats=stats)
        return res.y, res.recorded_t, res.recorded_y
    out = system.integrate_phase(
        tight, y0, t0, t1, stop_points, rtol=rtol, atol=atol,
        max_steps=max_steps - stats.n_steps, first_step=first_step)
    failure = phase_failure(out.status or 4 * (not out.ok), out.t, out.h,
                            max_steps)
    if failure is not None:
        raise IntegrationError(failure)
    _fold(stats, system, out.n_steps, out.n_rejected, out.n_rhs,
          out.n_stability_bound)
    return out.y, out.stops, out.rows


def _fold(stats: IntegratorStats, system: PerturbationSystem, n_steps: int,
          n_rejected: int, n_rhs: int, n_bound: int) -> None:
    """One compiled phase's counters into ``stats``, the flop estimate
    by the python driver's formula (its first evaluation, then every
    attempted step)."""
    per_step = step_flops(VERNER_65_TABLEAU, system.layout.n_state,
                          system.flops_per_eval())
    stats.n_steps += n_steps
    stats.n_rejected += n_rejected
    stats.n_rhs += n_rhs
    stats.n_stability_bound += n_bound
    stats.n_flops += (per_step // VERNER_65_TABLEAU.n_stages
                      + per_step * (n_steps + n_rejected))


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
