"""The synchronous-gauge Einstein-Boltzmann right-hand side.

One :class:`PerturbationSystem` is bound to a single wavenumber ``k``
and provides two interchangeable right-hand sides:

* :meth:`rhs_full` — the complete Ma & Bertschinger (1995) system:
  metric (h, eta), CDM, baryons, photon temperature + polarization
  hierarchies with Thomson scattering, massless-neutrino hierarchy and
  the massive-neutrino momentum-grid hierarchy (MB95 eqs. 21, 42, 63-64,
  49, 56-58).

* :meth:`rhs_tca` — the same system with the photon-baryon sector
  replaced by the first-order tight-coupling approximation (MB95
  eqs. 74-75), valid while the Thomson time 1/kappa' is much shorter
  than both 1/k and the expansion time.  This is what makes an explicit
  integrator (DVERK) viable from the earliest times, exactly as in the
  original LINGER.

This class is a thin view of one lane of a
:class:`~repro.perturbations.operator.BoltzmannOperator`: the operator
owns the precomputed coefficient structure of a chunk of wavenumbers
and its compiled kernels, and this class binds one lane of it behind
the historical serial API — same constructor, same attribute surface
(the constraint monitor and the recorders reach into ``_gr_*``,
``_w_*``, ``_g_lo`` and friends), same ``rhs_full(tau, y)`` /
``rhs_tca(tau, y)`` signatures, each one call of the compiled kernel.
Which operator a lane is a view of never shows in its values: lane
``b`` of any operator is bitwise the one-lane operator built for
``ks[b]`` alone.
"""

from __future__ import annotations

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..thermo import ThermalHistory
from .operator import BoltzmannOperator
from .state import StateLayout

__all__ = ["PerturbationSystem"]


class PerturbationSystem:
    """RHS provider for one comoving wavenumber.

    Parameters
    ----------
    background, thermo:
        Precomputed background / thermal history (shared across modes).
    k:
        Comoving wavenumber [Mpc^-1].
    layout:
        The state-vector layout (multipole cutoffs, momentum nodes).
    q_max:
        Upper edge of the massive-neutrino momentum grid (units of
        T_nu0).
    operator, lane:
        Bind lane ``lane`` of an existing
        :class:`~repro.perturbations.operator.BoltzmannOperator`
        instead of assembling a fresh one-lane operator — how a chunk
        shares one coefficient structure, one ``pack()`` and one set of
        eval counters (``k`` is then read off the operator).
    instrument:
        Record the kernel's wall-clock on the operator (feeds the
        ``RhsMetrics`` telemetry section).
    """

    def __init__(
        self,
        background: Background,
        thermo: ThermalHistory,
        k: float,
        layout: StateLayout,
        q_max: float = 18.0,
        *,
        operator: BoltzmannOperator | None = None,
        lane: int = 0,
        instrument: bool = False,
    ) -> None:
        if operator is None:
            if k <= 0.0:
                raise ParameterError("k must be positive")
            operator = BoltzmannOperator(
                background, thermo, np.array([float(k)]), layout,
                q_max=q_max,
            )
            lane = 0
        elif not 0 <= lane < operator.B:
            raise ParameterError(
                f"lane {lane} out of range for an operator of "
                f"{operator.B} wavenumbers")
        op = operator
        self.op = op
        self.lane = int(lane)
        self.params = op.params
        self.background = background
        self.thermo = thermo
        self.k = float(op.ks[self.lane])
        self.k2 = float(op.k2[self.lane])
        self.layout = layout
        self.nq = layout.nq
        if instrument:
            op.instrument = True

        # Historical attribute surface: the constraint monitor, the
        # recorders and several tests reach into these directly.  All
        # are references into (or row views of) the shared operator
        # tables — nothing is recomputed per lane.
        self._gr_m = op._gr_m
        self._gr_c = op._gr_c
        self._gr_b = op._gr_b
        self._gr_g = op._gr_g
        self._gr_nl = op._gr_nl
        self._gr_lam = op._gr_lam
        self._gr_k = op._gr_k
        self._gr_nu_rel = op._gr_nu_rel
        self._r_coef = op._r_coef
        self._ln_kap_spline = op._ln_kap_spline
        self._ln_cs2_spline = op._ln_cs2_spline
        self.q_nodes = op.q_nodes
        if self.nq > 0:
            self._x0 = op._x0
            self._dlnf = op._dlnf
            self._w_rho = op._w_rho
            self._w_q3 = op._w_q3
            self._w_q4 = op._w_q4
        self._g_lo = op._g_lo[self.lane]
        self._g_hi = op._g_hi[self.lane]

        self._dy = np.zeros(layout.n_state)

    # ------------------------------------------------------------------
    # Background pieces (scalar)
    # ------------------------------------------------------------------

    def _grho83(self, a: float) -> float:
        """(8 pi G / 3) a^2 rho_total [Mpc^-2]."""
        return self.op.grho83_s(a)

    def _rho_factor(self, a: float) -> float:
        return self.op.rho_factor_s(a)

    def _pressure_factor(self, a: float) -> float:
        return self.op.pressure_factor_s(a)

    def _gpres83(self, a: float) -> float:
        """(8 pi G / 3) a^2 p_total [Mpc^-2]."""
        return self.op.gpres83_s(a)

    def conformal_hubble(self, a: float) -> float:
        return self.op.conformal_hubble_s(a)

    def opacity(self, a: float) -> float:
        """Thomson opacity kappa' [Mpc^-1] (fast scalar path)."""
        return self.op.opacity_s(a)

    def cs2(self, a: float) -> float:
        return self.op.cs2_s(a)

    def nu_eps(self, a: float) -> np.ndarray | None:
        """Comoving energy eps = sqrt(q^2 + (a m/T)^2) per momentum node."""
        return self.op.nu_eps_s(a)

    # ------------------------------------------------------------------
    # Shared source sums
    # ------------------------------------------------------------------

    def _metric_sources(self, y: np.ndarray, a: float, hc: float,
                        eps: np.ndarray | None = None):
        """hdot and etadot from the Einstein constraint equations.

        Returns (hdot, etadot, gdrho, gdq) where gdrho = 4 pi G a^2
        delta rho and gdq = 4 pi G a^2 (rho + p) theta.
        """
        return self.op.metric_sources_s(self.lane, y, a, hc, eps=eps)

    def shear_sum(self, y: np.ndarray, a: float, sigma_g: float,
                  eps: np.ndarray | None = None) -> float:
        """4 pi G a^2 (rho + p) sigma summed over species [Mpc^-2]."""
        return self.op.shear_sum_s(self.lane, y, a, sigma_g, eps=eps)

    def sigma_gamma_tca(self, theta_g: float, hdot: float, etadot: float,
                        kappa_dot: float) -> float:
        """Quasi-static photon shear in tight coupling (with polarization)."""
        return self.op.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)

    # ------------------------------------------------------------------
    # The two RHS phases
    # ------------------------------------------------------------------

    def rhs_full(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Full (post-TCA) RHS, by the compiled kernel."""
        return self.op.rhs_scalar(False, self.lane, tau, y, self._dy)

    def rhs_tca(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Tight-coupling RHS (MB95 eqs. 74/75), by the compiled kernel."""
        return self.op.rhs_scalar(True, self.lane, tau, y, self._dy)

    def thomson_rate(self, tau: float, y: np.ndarray) -> float:
        """kappa' (1 + r), r = 4 rho_gamma / 3 rho_b: the decay rate of
        the baryon-photon slip, the stiffest eigenvalue of
        :meth:`rhs_full` (photon damping, kappa', is 4-17x slower) — the
        ``stiff_rate`` the full phase hands its driver."""
        a = float(y[self.layout.A])
        return self.op.opacity_s(a) * (1.0 + self._r_coef / a)

    def initialize_full_from_tca(self, y: np.ndarray, tau: float) -> None:
        """Populate the slaved moments when leaving tight coupling."""
        self.op.initialize_full_from_tca_s(self.lane, y, tau)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def flops_per_eval(self) -> int:
        """Structure-derived flop census of one rhs_full evaluation."""
        return self.op.flops_per_eval()
