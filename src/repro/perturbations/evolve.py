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
(one assembly and one ``pack()``), evolved start to finish: initial
conditions, the tight-coupling phase, the hand-off of the slaved
moments, the full phase.  A phase is one call of the compiled step loop
(:func:`integrate_phase`; the scalar python
:class:`~repro.integrators.DVERK` over the compiled right-hand side
only through the ``driver_cls`` test seam).  Either way a phase hands
back the states at its stop points as one ``(n_stops, n_state)`` block,
and :class:`_Recorder` turns both phases' blocks and the final state
into the recorded observables in one array pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..background import Background
from ..errors import IntegrationError, ParameterError
from ..integrators import DVERK, IntegratorStats
from ..integrators.dverk import RKDriver
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .gauges import newtonian_potentials
from .initial import (
    adiabatic_initial_conditions,
    isocurvature_initial_conditions,
)
from .state import StateLayout
from .system import PerturbationSystem, _exp_rows, _log_rows

__all__ = ["ModeResult", "evolve_mode", "default_record_grid",
           "record_grid_start", "tau_initial", "integrate_phase"]

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


class _Recorder:
    """Turns blocks of stop-point states into the recorded observables.

    :meth:`record` takes a block of rows from either phase (a mode
    passes all of its rows, the final state last, in one block) and
    evaluates every entry of :data:`RECORD_FIELDS` for all of them in
    one pass of array arithmetic.  The pass is part of the arithmetic
    contract: each field is the elementwise transcription of the scalar
    expression the RHS kernels use for the same quantity (same
    grouping), ``exp`` and ``log`` go through libm value by value, and
    the three massive-neutrino momentum sums stay one ``@`` per row — so
    a row's record does not depend on which other rows share its block
    (``tests/reference_recorder.py`` is the row-at-a-time original it
    is pinned to, bit for bit).
    """

    def __init__(self, system: PerturbationSystem, n: int) -> None:
        self.system = system
        self.arrays = {name: np.full(n, np.nan) for name in RECORD_FIELDS}
        self.tau = np.full(n, np.nan)
        self.i = 0

    def record(self, tight, tau: np.ndarray, rows: np.ndarray) -> None:
        """Record the states ``rows`` (C-contiguous ``(m, n_state)``)
        reached at times ``tau``; ``tight`` (one flag, or one per row)
        says which of them belong to the tight-coupling phase."""
        m = len(tau)
        if m == 0:
            return
        tight = np.broadcast_to(np.asarray(tight, dtype=bool), (m,))
        s = self.system
        lo, p, k = s.layout, s.params, s.k
        i_fg, i_gg, i_nl = lo.i_fg, lo.i_gg, lo.i_nl
        a = rows[:, lo.A]
        eta = rows[:, lo.ETA]
        delta_c = rows[:, lo.DELTA_C]
        delta_b = rows[:, lo.DELTA_B]
        theta_b = rows[:, lo.THETA_B]
        delta_g, f2 = rows[:, i_fg], rows[:, i_fg + 2]
        delta_nu = rows[:, i_nl]
        hc = s.conformal_hubble_rows(a)
        kappa_dot = _exp_rows(s._ln_kap_spline.vector(_log_rows(a)))

        # the Einstein constraints, as PerturbationSystem._metric_sources
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        gdrho = 1.5 * (
            (s._gr_c * delta_c + s._gr_b * delta_b) * inv_a
            + (s._gr_g * delta_g + s._gr_nl * delta_nu) * inv_a2
        )
        theta_g = 0.75 * k * rows[:, i_fg + 1]
        theta_nu = 0.75 * k * rows[:, i_nl + 1]
        gdq = 1.5 * (
            s._gr_b * theta_b * inv_a
            + (4.0 / 3.0) * (s._gr_g * theta_g + s._gr_nl * theta_nu)
            * inv_a2
        )
        if lo.nq > 0:
            # momentum sums over the massive hierarchy: one BLAS dot per
            # row, as the scalar kernels reduce them
            nu_rho, nu_q, nu_shear = np.empty((3, m))
            psi = rows[:, lo.sl_psi].reshape(m, lo.nq, -1)
            for i in range(m):
                eps = s.nu_eps(a[i])
                nu_rho[i] = (s._w_rho * eps) @ psi[i, :, 0]
                nu_q[i] = s._w_q3 @ psi[i, :, 1]
                nu_shear[i] = (s._w_q4 / eps) @ psi[i, :, 2]
            gdrho = gdrho + 1.5 * s._gr_nu_rel * inv_a2 * nu_rho
            gdq = gdq + 1.5 * s._gr_nu_rel * inv_a2 * k * nu_q
        hdot = 2.0 * (s.k2 * eta + gdrho) / hc
        etadot = gdq / s.k2

        sigma_g = 0.5 * f2
        pi_pol = f2 + rows[:, i_gg] + rows[:, i_gg + 2]
        if tight.any():
            sigma_g[tight] = s.sigma_gamma_tca(theta_g[tight], hdot[tight],
                                               etadot[tight],
                                               kappa_dot[tight])
            # Pi = 5/2 F2 in tight coupling
            pi_pol[tight] = 2.5 * 2.0 * sigma_g[tight]

        # total shear, as PerturbationSystem.shear_sum
        inv_aa = 1.0 / (a * a)
        gshear = 1.5 * (4.0 / 3.0) * (
            s._gr_g * sigma_g + s._gr_nl * (0.5 * rows[:, i_nl + 2])
        ) * inv_aa
        if lo.nq > 0:
            gshear = gshear + (1.5 * s._gr_nu_rel * inv_aa * (2.0 / 3.0)
                               * nu_shear)
        pots = newtonian_potentials(k, eta, hdot, etadot, hc, gshear)

        num = p.omega_c * delta_c + p.omega_b * delta_b
        if lo.nq > 0:
            delta_nu_m = nu_rho / s.rho_factor_rows(a)
            if p.omega_nu > 0:
                num = num + p.omega_nu * delta_nu_m
        else:
            delta_nu_m = np.nan

        values = {
            "a": a,
            "delta_g": delta_g,
            "theta_g": theta_g,
            "sigma_g": sigma_g,
            "delta_b": delta_b,
            "theta_b": theta_b,
            "delta_c": delta_c,
            "delta_nu": delta_nu,
            "theta_nu": theta_nu,
            "delta_nu_massive": delta_nu_m,
            "delta_m": num / p.omega_m,
            "pi": pi_pol,
            "eta": eta,
            "etadot": etadot,
            "hdot": hdot,
            "alpha": pots.alpha,
            "alpha_dot": pots.alpha_dot,
            "phi": pots.phi,
            "psi": pots.psi,
            "kappa_dot": kappa_dot,
        }
        block = slice(self.i, self.i + m)
        self.tau[block] = tau
        for name, arr in self.arrays.items():
            arr[block] = values[name]
        self.i += m


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
    rejected.  The switch time is still what ROADMAP item 6 waits on:
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
    hand-off of the slaved moments, the full hierarchy to ``tau_end`` —
    then one record pass over the record points of both phases and the
    final state (:attr:`ModeResult.final`).  The counters accumulate in
    one :class:`IntegratorStats` over both phases (``max_steps`` is its
    budget for the whole evolution).

    ``record_tau`` is None (no records) or the record grid.

    ``monitor`` is None or a callable ``monitor(tau, y, tight)`` invoked
    at every record point (never at the final state, unless it is
    one) — the hook ``repro.verify`` uses to sample
    Einstein-constraint residuals along the production trajectory — and
    is bound to the mode's system.  Like telemetry, a monitor is a pure
    observer: the integration is bit-identical with or without it.

    Both phases run on the compiled step loop: no RHS evaluation, step
    or stop runs python, and what is left is set-up, the hand-off of
    the slaved moments between the phases and the record pass; with
    the default driver each phase is bitwise the scalar
    ``DVERK`` on the mode's :class:`PerturbationSystem`.

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
    grid = (np.empty(0) if record_tau is None
            else np.asarray(record_tau, dtype=float))
    if grid.size and (grid.min() <= t_init
                      or grid.max() > tau_end * (1 + 1e-9)):
        raise ParameterError("record grid outside (tau_init, tau_end]")

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

    # no clock is read for a run nobody is timing (float() is 0.0)
    clock = time.perf_counter if telemetry.enabled else float
    walls = [clock()]
    # the record points of both phases, then the final state: the
    # block of the mode's one record pass
    block = np.empty((grid.size + 1, layout.n_state))
    block_tau = np.empty(grid.size + 1)
    n = n_tight = 0
    for tight, t0, t1 in ((True, t_init, t_switch),
                          (False, t_switch, tau_end)):
        stops = grid[grid <= t_switch] if tight else grid[grid > t_switch]
        y, tau, rows = integrate_phase(system, tight, y, t0, t1, stops,
                                       stats, rtol=rtol, atol=atol,
                                       max_steps=max_steps,
                                       first_step=first_step,
                                       driver_cls=driver_cls)
        # a driver's last stop is the phase end, which is recorded only
        # when it is a record point
        m = len(tau) if _in(tau[-1], stops) else len(tau) - 1
        block[n:n + m] = rows[:m]
        block_tau[n:n + m] = tau[:m]
        n += m
        del tau, rows
        if tight:
            n_tight = n
            system.initialize_full_from_tca(y, t_switch)
        walls.append(clock())

    block[n] = y
    block_tau[n] = tau_end
    tight = np.arange(n + 1) < n_tight
    recorder = _Recorder(system, n + 1)
    recorder.record(tight, block_tau[:n + 1], block[:n + 1])
    if monitor is not None:  # the record points, not the final state
        for t, row, flag in zip(block_tau[:n].tolist(), block,
                                tight[:n].tolist()):
            monitor(t, row, flag)
    mode = ModeResult(
        k=k,
        tau=recorder.tau[:n],
        records={name: arr[:n] for name, arr in recorder.arrays.items()},
        y_final=y,
        layout=layout,
        stats=stats,
        tau_init=t_init,
        tau_switch=t_switch,
        tau_end=tau_end,
        system=system,
        final={name: float(arr[n]) for name, arr in recorder.arrays.items()},
    )
    # only a mode that completed leaves rows: a failed one is retried
    # whole (linger.serial.compute_mode)
    if telemetry.enabled:
        tca_wall, full_wall = walls[1] - walls[0], walls[2] - walls[1]
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
    with its message; the ladder above (``linger.serial.compute_mode``)
    owns what happens next.  Any ``driver_cls`` but DVERK steps the
    system's compiled right-hand side in python instead (a test seam).
    """
    drv = driver_cls(system.rhs_tca if tight else system.rhs_full,
                     rtol=rtol, atol=atol, max_steps=max_steps,
                     first_step=first_step,
                     flops_per_rhs=system.flops_per_eval(),
                     # tight coupling has no Thomson terms to be stiff on
                     stiff_rate=None if tight else system.thomson_rate)
    if driver_cls is not DVERK:
        res = drv.integrate(y0, t0, t1, stop_points=stop_points, stats=stats)
        return res.y, res.recorded_t, res.recorded_y
    out = system.integrate_phase(
        tight, y0, t0, t1, stop_points, rtol=rtol, atol=atol,
        max_steps=max_steps - stats.n_steps, first_step=first_step)
    failure = out.failure(max_steps)
    if failure is not None:
        raise IntegrationError(failure)
    s = drv.tableau.n_stages
    step_flops = drv._flops_per_step(y0.size)
    stats.n_steps += out.n_steps
    stats.n_rejected += out.n_rejected
    stats.n_rhs += out.n_rhs
    stats.n_stability_bound += out.n_stability_bound
    stats.n_flops += (step_flops // s
                      + step_flops * (out.n_steps + out.n_rejected))
    return out.y, out.stops, out.rows


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
