"""The synchronous-gauge RHS evaluated for B wavenumbers at once.

:class:`PerturbationSystemBatch` is the vectorized twin of
:class:`~repro.perturbations.system.PerturbationSystem`: the same Ma &
Bertschinger (1995) equations, but the state is a ``(B, n_state)``
matrix whose rows are independent k-modes.  Per-k coefficients (the
hierarchy advection factors ``k l/(2l+1)``, ``k``, ``k^2``) become
``(B, ...)`` arrays, the scalar background/thermo spline lookups become
one vectorized call over the batch, and every hierarchy update is the
same slice expression as the serial system with a leading batch axis.

Since the compiled-RHS refactor both twins are thin drivers over one
:class:`~repro.perturbations.operator.BoltzmannOperator`, which owns
the precomputed coefficient structure and the lane kernels this class
used to keep by hand — there is no longer a second copy of MB95 to
drift.  Row b of a batched python-kernel evaluation is *bitwise* equal
to the serial python kernel for ``ks[b]`` (same expression groupings,
same libm transcendentals); the equivalence tests and goldens pin it.

``rhs_kernel`` routes both right-hand sides through the optional
compiled kernel exactly as in the serial class; :meth:`lane_system` hands out
serial views that share this batch's operator (coefficient tables and
telemetry counters included), which is what the chunk evolution uses
for one-lane stepping, per-lane recording and hand-off.
"""

from __future__ import annotations

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..thermo import ThermalHistory
from .operator import BoltzmannOperator, resolve_kernel
from .state import StateLayout
from .system import PerturbationSystem

__all__ = ["PerturbationSystemBatch"]


class PerturbationSystemBatch:
    """RHS provider for a batch of wavenumbers.

    Parameters
    ----------
    background, thermo:
        Precomputed background / thermal history (shared across modes).
    ks:
        Comoving wavenumbers [Mpc^-1], shape (B,).
    layout:
        The state-vector layout, shared by every lane.
    q_max:
        Upper edge of the massive-neutrino momentum grid (units of
        T_nu0).
    operator:
        Drive an existing operator instead of assembling a new one.
    rhs_kernel:
        ``"python"`` (default), ``"cext"`` or ``"auto"``.
    instrument:
        Record per-kernel wall-clock on the operator.
    """

    def __init__(
        self,
        background: Background,
        thermo: ThermalHistory,
        ks: np.ndarray,
        layout: StateLayout,
        q_max: float = 18.0,
        *,
        operator: BoltzmannOperator | None = None,
        rhs_kernel: str = "python",
        instrument: bool = False,
    ) -> None:
        if operator is None:
            operator = BoltzmannOperator(background, thermo, ks, layout,
                                         q_max=q_max)
        op = operator
        self.op = op
        self.params = op.params
        self.background = background
        self.thermo = thermo
        self.ks = op.ks
        self.k2 = op.k2
        self.B = op.B
        self.layout = layout
        self.nq = layout.nq
        self.q_nodes = op.q_nodes
        self.rhs_kernel = resolve_kernel(rhs_kernel)
        if instrument:
            op.instrument = True
        self._dy = np.zeros((self.B, layout.n_state))

    # ------------------------------------------------------------------
    # Delegated pieces (kept for tests/diagnostics; the hot path goes
    # straight through the operator's lane kernels)
    # ------------------------------------------------------------------

    def _rho_factor(self, a: np.ndarray) -> np.ndarray:
        return self.op.rho_factor_lanes(a)

    def _pressure_factor(self, a: np.ndarray) -> np.ndarray:
        return self.op.pressure_factor_lanes(a)

    def _grho83(self, a: np.ndarray) -> np.ndarray:
        return self.op.grho83_lanes(a)

    def _gpres83(self, a: np.ndarray) -> np.ndarray:
        return self.op.gpres83_lanes(a)

    def conformal_hubble(self, a: np.ndarray) -> np.ndarray:
        return self.op.conformal_hubble_lanes(a)

    def _thermo_lookup(self, lna: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.op.thermo_lookup_lanes(lna)

    def nu_eps(self, a: np.ndarray) -> np.ndarray | None:
        return self.op.nu_eps_lanes(a)

    def _psi_matrix(self, Y: np.ndarray) -> np.ndarray:
        return self.op.psi_matrix_lanes(Y)

    def _metric_sources(self, Y, a, hc, eps=None):
        return self.op.metric_sources_lanes(Y, a, hc, eps=eps)

    def shear_sum(self, Y, a, sigma_g, eps=None):
        return self.op.shear_sum_lanes(Y, a, sigma_g, eps=eps)

    def sigma_gamma_tca(self, theta_g, hdot, etadot, kappa_dot):
        return self.op.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)

    def _fill_neutrinos(self, Y, dY, tau, hdot, etadot,
                        hdot23=None, src2=None, advect=True):
        self.op.fill_neutrinos_lanes(Y, dY, tau, hdot, etadot,
                                     hdot23=hdot23, src2=src2,
                                     advect=advect)

    def _fill_massive_nu(self, Y, dY, tau, a, hdot, etadot, eps=None):
        self.op.fill_massive_nu_lanes(Y, dY, tau, a, hdot, etadot, eps=eps)

    # ------------------------------------------------------------------
    # The two RHS phases
    # ------------------------------------------------------------------

    def rhs_full(self, tau: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Full (post-TCA) RHS for every lane, shape (B, n_state)."""
        return self.op.rhs_batch(False, tau, Y, self._dy, self.rhs_kernel)

    def rhs_tca(self, tau: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Tight-coupling RHS for every lane, shape (B, n_state)."""
        return self.op.rhs_batch(True, tau, Y, self._dy, self.rhs_kernel)

    # ------------------------------------------------------------------
    # Serial views
    # ------------------------------------------------------------------

    def lane_system(self, b: int) -> PerturbationSystem:
        """A serial :class:`PerturbationSystem` for lane ``b`` that
        shares this batch's operator and resolved kernel — no
        re-assembly, shared eval counters, bitwise-identical
        python-kernel values."""
        if not 0 <= b < self.B:
            raise ParameterError(f"lane {b} out of range for B={self.B}")
        return PerturbationSystem(
            self.background, self.thermo, float(self.ks[b]), self.layout,
            operator=self.op, lane=b, rhs_kernel=self.rhs_kernel,
        )

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def flops_per_eval(self) -> int:
        """Structure-derived flop census of one *lane's* rhs_full."""
        return self.op.flops_per_eval()
