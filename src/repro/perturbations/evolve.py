"""Per-mode evolution driver: the inner loop of LINGER.

:func:`evolve_mode` integrates one wavenumber from deep in the
radiation era to (by default) the present, in two phases:

1. tight coupling (MB95 first-order TCA) from ``tau_init`` until the
   Thomson time becomes a fraction ``tca_eps`` of min(1/k, 1/H_conf)
   or hydrogen starts recombining, then
2. the full hierarchy system to ``tau_end`` — in one compiled call when
   the resolved kernel is ``cext`` (:func:`integrate_full_phase`),

recording observables (potentials, fluid perturbations, the
polarization sum Pi, line-of-sight ingredients) on a caller-supplied
conformal-time grid.  This is exactly the work a PLINGER *worker*
performs for each wavenumber it receives from the master.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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
from .system import PerturbationSystem

__all__ = ["ModeResult", "evolve_mode", "default_record_grid", "tau_initial",
           "integrate_full_phase"]

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
    """Evolve one wavenumber and return its records and final state.

    This is the LINGER worker computation: everything from the series
    initial conditions at ``k tau = 0.03`` to the multipoles today.

    When ``telemetry`` is enabled, the per-phase wallclock (tight
    coupling vs full hierarchy), the TCA switch time, and the
    integrator cost counters are recorded as one
    :class:`~repro.telemetry.report.ModeMetrics`; the default no-op
    collector measures nothing and the integration is bit-identical
    either way.

    ``monitor`` (optional) is called as ``monitor(tau, y, tight)`` at
    every record point — the hook the Einstein-constraint verification
    subsystem (``repro.verify``) uses to sample residuals along the
    production trajectory.  Like telemetry, it is a pure observer: the
    integration is bit-identical with or without it.

    ``rhs_kernel`` selects the evaluation kernel for the full-hierarchy
    phase (``"python"``/``"numba"``/``"cext"``/``"auto"``; unavailable
    kernels fall back to python).  With ``cext`` (what ``auto`` resolves
    to when a C compiler exists) and the default ``driver_cls`` the
    whole phase runs in the compiled step loop, bitwise the python
    driver.  The per-kernel evaluation counts and wall-clock land in
    the telemetry ``RhsMetrics`` section.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    nq_eff = nq if background.params.omega_nu > 0 else 0
    layout = StateLayout(
        lmax_photon=lmax_photon,
        lmax_nu=lmax_nu,
        nq=nq_eff,
        lmax_massive_nu=lmax_massive_nu if nq_eff else 0,
    )
    system = PerturbationSystem(background, thermo, k, layout,
                               rhs_kernel=rhs_kernel,
                               instrument=telemetry.enabled)
    if monitor is not None and hasattr(monitor, "bind"):
        monitor.bind(system)

    t_init = tau_initial(k)
    if t_init >= tau_end:
        raise ParameterError("tau_end precedes the initial time")
    ic_builders = {
        "adiabatic": adiabatic_initial_conditions,
        "isocurvature": isocurvature_initial_conditions,
    }
    if initial_conditions not in ic_builders:
        raise ParameterError(
            f"unknown initial_conditions {initial_conditions!r}; "
            f"choose from {sorted(ic_builders)}"
        )
    y0 = ic_builders[initial_conditions](
        layout, background, k, t_init,
        q_nodes=system.q_nodes if nq_eff else None,
        amplitude=amplitude,
    )

    t_switch = find_tca_exit(background, thermo, k, tca_eps=tca_eps)
    t_switch = min(max(t_switch, t_init * 1.01), tau_end)

    if record_tau is None:
        record_tau = np.empty(0)
    record_tau = np.asarray(record_tau, dtype=float)
    if record_tau.size and (
        record_tau.min() <= t_init or record_tau.max() > tau_end * (1 + 1e-9)
    ):
        raise ParameterError("record grid outside (tau_init, tau_end]")

    recorder = _Recorder(system, record_tau.size, monitor=monitor)
    stats = IntegratorStats()

    # Phase 1: tight coupling ------------------------------------------
    wall0 = time.perf_counter() if telemetry.enabled else 0.0
    stops1 = record_tau[record_tau <= t_switch]
    drv1 = driver_cls(system.rhs_tca, rtol=rtol, atol=atol,
                      max_steps=max_steps, first_step=first_step,
                      flops_per_rhs=system.flops_per_eval())
    recorder.tight = True
    res1 = drv1.integrate(
        y0, t_init, t_switch,
        stop_points=stops1,
        on_stop=lambda t, y: recorder(t, y) if _in(t, stops1) else None,
        stats=stats,
    )
    y = res1.y
    system.initialize_full_from_tca(y, t_switch)
    wall1 = time.perf_counter() if telemetry.enabled else 0.0

    # Phase 2: full hierarchy ------------------------------------------
    recorder.tight = False
    stops2 = record_tau[record_tau > t_switch]
    y_final = integrate_full_phase(
        system, y, t_switch, tau_end, stops2,
        on_stop=lambda t, y_: recorder(t, y_) if _in(t, stops2) else None,
        stats=stats, rtol=rtol, atol=atol, max_steps=max_steps,
        first_step=first_step, driver_cls=driver_cls,
    )

    if telemetry.enabled:
        wall2 = time.perf_counter()
        telemetry.record_mode(
            k=k,
            lmax=layout.lmax_photon,
            n_rhs=stats.n_rhs,
            n_steps=stats.n_steps,
            n_rejected=stats.n_rejected,
            flops_est=stats.n_flops,
            tau_switch=t_switch,
            tca_wall_seconds=wall1 - wall0,
            full_wall_seconds=wall2 - wall1,
            wall_seconds=wall2 - wall0,
        )
        telemetry.record_rhs(
            requested=rhs_kernel,
            active=system.rhs_kernel,
            evals=dict(system.op.evals),
            seconds=dict(system.op.seconds),
        )

    for d in system.op.drain_demotions():
        telemetry.record_degradation(
            "kernel", "demotion", f"{d['from']}->{d['to']}: {d['reason']}"
        )

    records = {name: arr[: recorder.i] for name, arr in recorder.arrays.items()}
    return ModeResult(
        k=k,
        tau=recorder.tau[: recorder.i],
        records=records,
        y_final=y_final,
        layout=layout,
        stats=stats,
        tau_init=t_init,
        tau_switch=t_switch,
        tau_end=tau_end,
        system=system,
    )


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
