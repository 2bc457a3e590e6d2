"""Adiabatic initial conditions deep in the radiation era.

Ma & Bertschinger (1995) eqs. (96)-(98): the growing adiabatic mode of
the synchronous-gauge system expanded to lowest order in ``k tau``.
The normalization constant ``C`` is conventional; the spectra module
re-normalizes to the COBE quadrupole, so we fix ``C = 1`` and keep
every downstream quantity linear in it.
"""

from __future__ import annotations

import numpy as np

from ..background import Background, dlnf0_dlnq
from ..errors import ParameterError
from .state import StateLayout

__all__ = [
    "adiabatic_initial_conditions",
    "isocurvature_initial_conditions",
    "neutrino_fraction",
]


def neutrino_fraction(background: Background) -> float:
    """R_nu = rho_nu / (rho_gamma + rho_nu) deep in the radiation era.

    Massive species count as relativistic at these epochs.
    """
    p = background.params
    omega_nu_rel = (
        (p.n_nu_massless + p.n_nu_massive)
        * (7.0 / 8.0)
        * (4.0 / 11.0) ** (4.0 / 3.0)
        * p.omega_gamma
    )
    return omega_nu_rel / (p.omega_gamma + omega_nu_rel)


def adiabatic_initial_conditions(
    layout: StateLayout,
    background: Background,
    k,
    tau_init,
    q_nodes: np.ndarray | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Growing-mode adiabatic initial state at conformal time ``tau_init``.

    Parameters
    ----------
    k:
        Comoving wavenumber [Mpc^-1], or an array (each its ``tau_init``).
    tau_init:
        Starting conformal time [Mpc]; must satisfy k tau << 1.
    q_nodes:
        Momentum nodes (required when the layout has a massive sector).
    amplitude:
        The MB95 normalization constant C.

    Returns
    -------
    The initial state vector (including the co-evolved scale factor),
    ``k.shape + (n_state,)``: elementwise, bitwise each k alone.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0.0):
        raise ParameterError("k must be positive")
    kt = k * tau_init
    if np.any(kt > 0.3):
        raise ParameterError(
            f"k tau_init = {np.max(kt):.3g} too large for the series initial conditions"
        )

    c = amplitude
    rnu = neutrino_fraction(background)
    a_init = background.a_of_tau(tau_init)
    kt2, kt3 = _pow(kt, 2), _pow(kt, 3)

    y = np.zeros(k.shape + (layout.n_state,))
    y[..., layout.A] = a_init

    delta_g = -(2.0 / 3.0) * c * kt2
    theta_g = -(c / 18.0) * kt3 * k
    theta_nu = theta_g * (23.0 + 4.0 * rnu) / (15.0 + 4.0 * rnu)
    sigma_nu = 4.0 * c / (3.0 * (15.0 + 4.0 * rnu)) * kt2

    y[..., layout.H] = c * kt2
    y[..., layout.ETA] = 2.0 * c - (5.0 + 4.0 * rnu) / (
        6.0 * (15.0 + 4.0 * rnu)
    ) * c * kt2
    y[..., layout.DELTA_C] = 0.75 * delta_g
    y[..., layout.DELTA_B] = 0.75 * delta_g
    y[..., layout.THETA_B] = theta_g

    i_fg, i_nl = layout.i_fg, layout.i_nl
    y[..., i_fg] = delta_g
    y[..., i_fg + 1] = 4.0 * theta_g / (3.0 * k)
    # polarization and l >= 2 temperature moments are generated by
    # scattering later; they start at zero (tight coupling).

    y[..., i_nl] = delta_g  # adiabatic: delta_nu = delta_gamma
    y[..., i_nl + 1] = 4.0 * theta_nu / (3.0 * k)
    y[..., i_nl + 2] = 2.0 * sigma_nu

    if layout.nq > 0:
        if q_nodes is None:
            raise ParameterError("massive sector requires q_nodes")
        if background.nu_tables is None:
            raise ParameterError("background has no massive-neutrino tables")
        q = np.asarray(q_nodes, dtype=float)
        if q.shape != (layout.nq,):
            raise ParameterError("q_nodes length must match layout.nq")
        x0 = background.nu_tables.x0
        col = (...,) + (None,)  # a wavenumber's value over its q nodes
        eps = np.sqrt(q**2 + _pow(a_init * x0, 2)[col])
        dlnf = dlnf0_dlnq(q)
        psi = np.zeros(k.shape + (layout.nq, layout.lmax_massive_nu + 1))
        psi[..., 0] = -0.25 * delta_g[col] * dlnf
        psi[..., 1] = -(eps / (3.0 * q * k[col])) * theta_nu[col] * dlnf
        psi[..., 2] = -0.5 * sigma_nu[col] * dlnf
        y[..., layout.sl_psi] = psi.reshape(k.shape + (-1,))

    return y


def _pow(x, p: int) -> np.ndarray:
    """``x ** p`` elementwise by libm ``pow`` (numpy's array power squares)."""
    x = np.asarray(x, dtype=float)
    return np.array([v ** p for v in x.ravel().tolist()]).reshape(x.shape)


def isocurvature_initial_conditions(
    layout: StateLayout,
    background: Background,
    k: float,
    tau_init: float,
    q_nodes: np.ndarray | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """CDM-isocurvature (entropy) growing mode at ``tau_init``.

    Deep in the radiation era only the CDM is perturbed
    (delta_c = amplitude, total curvature ~ 0); gravity then drags the
    other species in at O(omega tau), where
    ``omega = a' * delta-rho-coupling`` reduces to

        hdot = 3 H0 Omega_c delta_c / sqrt(Omega_r,early)   (constant),

    from the synchronous energy constraint with eta ~ 0.  The leading
    series used here (h = omega tau, delta_gamma = -(2/3) omega tau,
    delta_c = amplitude - omega tau / 2, theta ~ O((k tau)^2)) satisfies
    the MB95 equations to first order; the integrator relaxes onto the
    exact mode immediately.
    """
    if k <= 0.0:
        raise ParameterError("k must be positive")
    kt = k * tau_init
    if kt > 0.3:
        raise ParameterError(
            f"k tau_init = {kt:.3g} too large for the series initial conditions"
        )
    p = background.params
    a_init = float(background.a_of_tau(tau_init))
    if a_init > 0.03 * p.a_equality:
        raise ParameterError(
            "isocurvature series requires a start deep in the radiation era"
        )

    omega_r_early = p.omega_gamma + (
        p.n_nu_massless + p.n_nu_massive
    ) * (7.0 / 8.0) * (4.0 / 11.0) ** (4.0 / 3.0) * p.omega_gamma
    # hdot = 2 * (4 pi G a^2 rho_c delta_c) / H_conf in the radiation era
    omega = 3.0 * p.h0_mpc * p.omega_c * amplitude / np.sqrt(omega_r_early)

    y = layout.zeros()
    y[layout.A] = a_init
    wt = omega * tau_init

    y[layout.H] = wt
    y[layout.ETA] = -wt / 6.0
    y[layout.DELTA_C] = amplitude - 0.5 * wt
    delta_g = -(2.0 / 3.0) * wt
    y[layout.DELTA_B] = 0.75 * delta_g
    theta_g = -(1.0 / 12.0) * omega * k**2 * tau_init**2
    y[layout.THETA_B] = theta_g

    fg = y[layout.sl_fg]
    fg[0] = delta_g
    fg[1] = 4.0 * theta_g / (3.0 * k)
    nl = y[layout.sl_nl]
    nl[0] = delta_g
    nl[1] = fg[1]

    if layout.nq > 0:
        if q_nodes is None:
            raise ParameterError("massive sector requires q_nodes")
        if background.nu_tables is None:
            raise ParameterError("background has no massive-neutrino tables")
        q = np.asarray(q_nodes, dtype=float)
        x0 = background.nu_tables.x0
        eps = np.sqrt(q**2 + (a_init * x0) ** 2)
        dlnf = dlnf0_dlnq(q)
        psi = layout.psi_matrix(y)
        psi[:, 0] = -0.25 * delta_g * dlnf
        psi[:, 1] = -(eps / (3.0 * q * k)) * theta_g * dlnf

    return y


def adiabatic_initial_conditions_newtonian(
    layout: StateLayout,
    background: Background,
    k: float,
    tau_init: float,
    q_nodes: np.ndarray | None = None,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Adiabatic growing mode in the conformal Newtonian gauge.

    MB95 eq. (98): the same primordial mode as
    :func:`adiabatic_initial_conditions` (same normalization constant
    C), expressed in the CN-gauge variables used by
    :class:`~repro.perturbations.system_newtonian.NewtonianPerturbationSystem`:
    slot ``H`` holds phi and slot ``ETA`` holds theta_c.
    """
    if k <= 0.0:
        raise ParameterError("k must be positive")
    kt = k * tau_init
    if kt > 0.3:
        raise ParameterError(
            f"k tau_init = {kt:.3g} too large for the series initial conditions"
        )

    c = amplitude
    rnu = neutrino_fraction(background)
    a_init = float(background.a_of_tau(tau_init))

    psi = 20.0 * c / (15.0 + 4.0 * rnu)
    phi = (1.0 + 0.4 * rnu) * psi
    delta_g = -2.0 * psi
    theta = 0.5 * k**2 * tau_init * psi
    sigma_nu = kt**2 * psi / 15.0

    y = layout.zeros()
    y[layout.A] = a_init
    y[layout.H] = phi  # PHI slot
    y[layout.ETA] = theta  # THETA_C slot
    y[layout.DELTA_C] = -1.5 * psi
    y[layout.DELTA_B] = -1.5 * psi
    y[layout.THETA_B] = theta

    fg = y[layout.sl_fg]
    fg[0] = delta_g
    fg[1] = 4.0 * theta / (3.0 * k)
    nl = y[layout.sl_nl]
    nl[0] = delta_g
    nl[1] = fg[1]
    nl[2] = 2.0 * sigma_nu

    if layout.nq > 0:
        if q_nodes is None:
            raise ParameterError("massive sector requires q_nodes")
        if background.nu_tables is None:
            raise ParameterError("background has no massive-neutrino tables")
        q = np.asarray(q_nodes, dtype=float)
        x0 = background.nu_tables.x0
        eps = np.sqrt(q**2 + (a_init * x0) ** 2)
        dlnf = dlnf0_dlnq(q)
        psi_m = layout.psi_matrix(y)
        psi_m[:, 0] = -0.25 * delta_g * dlnf
        psi_m[:, 1] = -(eps / (3.0 * q * k)) * theta * dlnf
        psi_m[:, 2] = -0.5 * sigma_nu * dlnf

    return y
