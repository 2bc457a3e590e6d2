"""Per-mode evolution in the conformal Newtonian gauge.

The CN twin of :func:`repro.perturbations.evolve.evolve_mode`.  Used
primarily for cross-gauge validation (PLINGER production work runs in
synchronous gauge, like the original LINGER's default), but it is a
complete driver: tight-coupling phase, full phase, recorded
observables, and the energy-constraint residual as a quality
diagnostic.
"""

from __future__ import annotations

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..integrators import DVERK, IntegratorStats
from ..thermo import ThermalHistory
from .evolve import ModeResult, _in, find_tca_exit, record_points, tau_initial
from .initial import adiabatic_initial_conditions_newtonian
from .state import StateLayout
from .system_newtonian import NewtonianPerturbationSystem

__all__ = ["evolve_mode_newtonian", "NEWTONIAN_RECORD_FIELDS"]

NEWTONIAN_RECORD_FIELDS = (
    "a",
    "delta_g",
    "theta_g",
    "sigma_g",
    "delta_b",
    "theta_b",
    "delta_c",
    "theta_c",
    "delta_nu",
    "pi",
    "phi",
    "psi",
    "phi_dot",
    "energy_residual",
)


class _NewtonianRecorder:
    def __init__(self, system: NewtonianPerturbationSystem, n: int) -> None:
        self.system = system
        self.arrays = {name: np.full(n, np.nan)
                       for name in NEWTONIAN_RECORD_FIELDS}
        self.tau = np.full(n, np.nan)
        self.i = 0
        self.tight = True

    def __call__(self, tau: float, y: np.ndarray) -> None:
        s = self.system
        lo = s.layout
        a = y[lo.A]
        hc = s.conformal_hubble(a)
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        theta_g = 0.75 * s.k * fg[1]
        if self.tight:
            kappa_dot = s.opacity(a)
            sigma_g = s.sigma_gamma_tca_cn(theta_g, kappa_dot)
            pi_pol = 2.5 * 2.0 * sigma_g
        else:
            sigma_g = 0.5 * fg[2]
            pi_pol = fg[2] + gg[0] + gg[2]
        phi, psi, phi_dot = s.potentials(y, a, hc, sigma_g)

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
        arr["theta_c"][i] = y[s.THETA_C]
        arr["delta_nu"][i] = y[lo.sl_nl][0]
        arr["pi"][i] = pi_pol
        arr["phi"][i] = phi
        arr["psi"][i] = psi
        arr["phi_dot"][i] = phi_dot
        arr["energy_residual"][i] = (
            s.energy_constraint_residual(y) if not self.tight else np.nan
        )
        self.i += 1


def evolve_mode_newtonian(
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
    tca_eps: float = 0.01,
    amplitude: float = 1.0,
    max_steps: int = 2_000_000,
) -> ModeResult:
    """Evolve one wavenumber in the conformal Newtonian gauge."""
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    nq_eff = nq if background.params.omega_nu > 0 else 0
    layout = StateLayout(
        lmax_photon=lmax_photon,
        lmax_nu=lmax_nu,
        nq=nq_eff,
        lmax_massive_nu=lmax_massive_nu if nq_eff else 0,
    )
    system = NewtonianPerturbationSystem(background, thermo, k, layout)

    t_init = tau_initial(k)
    if t_init >= tau_end:
        raise ParameterError("tau_end precedes the initial time")
    y0 = adiabatic_initial_conditions_newtonian(
        layout, background, k, t_init,
        q_nodes=system.q_nodes if nq_eff else None,
        amplitude=amplitude,
    )

    t_switch = find_tca_exit(thermo, k, tca_eps=tca_eps)
    t_switch = min(max(t_switch, t_init * 1.01), tau_end)

    record_tau = record_points(record_tau, t_init, tau_end)

    recorder = _NewtonianRecorder(system, record_tau.size)
    stats = IntegratorStats()

    stops1 = record_tau[record_tau <= t_switch]
    drv1 = DVERK(system.rhs_tca, rtol=rtol, atol=atol, max_steps=max_steps)
    recorder.tight = True
    res1 = drv1.integrate(
        y0, t_init, t_switch,
        stop_points=stops1,
        on_stop=lambda t, y: recorder(t, y) if _in(t, stops1) else None,
        stats=stats,
    )
    y = res1.y
    system.initialize_full_from_tca(y, t_switch)

    recorder.tight = False
    stops2 = record_tau[record_tau > t_switch]
    drv2 = DVERK(system.rhs_full, rtol=rtol, atol=atol, max_steps=max_steps)
    res2 = drv2.integrate(
        y, t_switch, tau_end,
        stop_points=stops2,
        on_stop=lambda t, y_: recorder(t, y_) if _in(t, stops2) else None,
        stats=stats,
    )

    records = {name: arr[: recorder.i] for name, arr in recorder.arrays.items()}
    return ModeResult(
        k=k,
        tau=recorder.tau[: recorder.i],
        records=records,
        y_final=res2.y,
        layout=layout,
        stats=stats,
        tau_init=t_init,
        tau_switch=t_switch,
        tau_end=tau_end,
    )
