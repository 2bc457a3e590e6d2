"""A from-scratch re-implementation of DVERK: Verner's 6(5) pair.

The original DVERK (Hull, Enright & Jackson 1976, distributed through
netlib) is the integrator the paper uses for the coupled Einstein-
Boltzmann system.  This module transcribes the same 8-stage Verner
6(5) tableau and drives it with an error-per-step controller.

The driver supports *stop points*: times the integrator must hit
exactly (used to record line-of-sight sources on a fixed conformal-time
grid, and to split the integration into tight-coupling / full phases).
Work buffers are pre-allocated once and reused every step, following
the NumPy in-place idioms for hot loops.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import IntegrationError
from .contract import ordered_weighted_sum, rms
from .controller import STABILITY_FRACTION, StepController
from .results import IntegrationResult, IntegratorStats
from .tableau import ButcherTableau

__all__ = ["VERNER_65_TABLEAU", "DVERK", "RKDriver"]


def _verner_65() -> ButcherTableau:
    a = np.zeros((8, 8))
    a[1, 0] = 1.0 / 6.0
    a[2, :2] = (4.0 / 75.0, 16.0 / 75.0)
    a[3, :3] = (5.0 / 6.0, -8.0 / 3.0, 5.0 / 2.0)
    a[4, :4] = (-165.0 / 64.0, 55.0 / 6.0, -425.0 / 64.0, 85.0 / 96.0)
    a[5, :5] = (12.0 / 5.0, -8.0, 4015.0 / 612.0, -11.0 / 36.0, 88.0 / 255.0)
    a[6, :6] = (
        -8263.0 / 15000.0,
        124.0 / 75.0,
        -643.0 / 680.0,
        -81.0 / 250.0,
        2484.0 / 10625.0,
        0.0,
    )
    a[7, :7] = (
        3501.0 / 1720.0,
        -300.0 / 43.0,
        297275.0 / 52632.0,
        -319.0 / 2322.0,
        24068.0 / 84065.0,
        0.0,
        3850.0 / 26703.0,
    )
    b6 = np.array(
        [3.0 / 40.0, 0.0, 875.0 / 2244.0, 23.0 / 72.0, 264.0 / 1955.0, 0.0,
         125.0 / 11592.0, 43.0 / 616.0]
    )
    b5 = np.array(
        [13.0 / 160.0, 0.0, 2375.0 / 5984.0, 5.0 / 16.0, 12.0 / 85.0,
         3.0 / 44.0, 0.0, 0.0]
    )
    c = np.array([0.0, 1.0 / 6.0, 4.0 / 15.0, 2.0 / 3.0, 5.0 / 6.0, 1.0,
                  1.0 / 15.0, 1.0])
    return ButcherTableau(a=a, b_high=b6, b_low=b5, c=c, order_high=6,
                          order_low=5, name="verner-6(5) [DVERK]")


#: The DVERK tableau (Verner 6(5), 8 stages).
VERNER_65_TABLEAU = _verner_65()


class RKDriver:
    """Generic adaptive driver over any embedded tableau.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, y) -> dy/dt`` (must return a new array or a
        buffer it owns; the driver copies stage results internally).
    tableau:
        The embedded pair to use.
    rtol, atol:
        Relative / absolute tolerances (atol may be a vector).
    max_step:
        Upper bound on the step size.
    max_steps:
        Abort (raise IntegrationError) after this many accepted steps.
    stiff_rate:
        Callable ``stiff_rate(t, y) -> lam``: an upper bound on how far
        the Jacobian's spectrum reaches along the negative real axis,
        asked once per attempt at the step's start.  The step is then
        kept at ``STABILITY_FRACTION`` of the tableau's stability
        boundary, ``h lam <= 0.96 real_stability``, instead of finding
        the boundary by rejected steps.
    """

    def __init__(
        self,
        rhs: Callable[[float, np.ndarray], np.ndarray],
        tableau: ButcherTableau = VERNER_65_TABLEAU,
        rtol: float = 1e-6,
        atol: float | np.ndarray = 1e-10,
        max_step: float = math.inf,
        min_step: float = 0.0,
        max_steps: int = 1_000_000,
        first_step: float | None = None,
        flops_per_rhs: float | None = None,
        stiff_rate: Callable[[float, np.ndarray], float] | None = None,
    ) -> None:
        self.rhs = rhs
        self.tableau = tableau
        self.rtol = float(rtol)
        self.atol = atol
        self.max_step = float(max_step)
        self.min_step = float(min_step)
        self.max_steps = int(max_steps)
        self.first_step = first_step
        self.flops_per_rhs = flops_per_rhs
        self.stiff_rate = stiff_rate
        self._k: np.ndarray | None = None  # stage buffer (s, n)
        self._prod: np.ndarray | None = None  # weight * stage products
        # tableau weights as columns broadcasting over a (s, n) buffer
        self._weights = tableau.contraction_weights()

    # ------------------------------------------------------------------

    def _flops_per_step(self, n: int) -> int:
        """Estimated flops of one attempted step: ``s`` RHS evaluations
        plus the tableau linear algebra (stage combinations, the two
        solution/error contractions, the error norm).

        The default RHS estimate (~12 flops per state entry plus a
        fixed metric/thermo overhead) matches the calibrated cost model
        in :mod:`repro.cluster.costmodel`.
        """
        s = self.tableau.n_stages
        rhs = self.flops_per_rhs
        if rhs is None:
            rhs = 12.0 * n + 300.0
        tableau = n * (2 * s * (s - 1) + 2 * (s - 1) + 4 * s + 9)
        return int(round(s * rhs + tableau))

    # ------------------------------------------------------------------

    def _initial_step(self, t0: float, y0: np.ndarray, f0: np.ndarray,
                      t1: float) -> float:
        """Crude but robust initial step-size heuristic."""
        if self.first_step is not None:
            return min(self.first_step, abs(t1 - t0))
        scale = np.abs(self.atol) + self.rtol * np.abs(y0)
        d0 = rms(y0 / scale)
        d1 = rms(f0 / scale)
        h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * (t1 - t0)
        return min(h, 0.1 * (t1 - t0), self.max_step)

    def _step(self, t: float, y: np.ndarray, h: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One trial step; returns (y_new, err, f_last).

        Every tableau contraction is a left-to-right sum over the
        non-zero weights (the arithmetic contract, rule 1), so the
        result does not depend on a BLAS kernel.
        """
        tb = self.tableau
        s = tb.n_stages
        n = y.shape[0]
        if self._k is None or self._k.shape != (s, n):
            self._k = np.empty((s, n))
            self._prod = np.empty((s, n))
        k, prod = self._k, self._prod
        w, terms = self._weights, tb.contraction_terms
        k[0] = self.rhs(t, y)
        for i in range(1, s):
            yi = y + h * ordered_weighted_sum(w[i], terms[i], k, prod)
            k[i] = self.rhs(t + tb.c[i] * h, yi)
        y_new = y + h * ordered_weighted_sum(w[s], terms[s], k, prod)
        err = h * ordered_weighted_sum(w[s + 1], terms[s + 1], k, prod)
        return y_new, err, k[0]

    def integrate(
        self,
        y0: np.ndarray,
        t0: float,
        t1: float,
        stop_points: Sequence[float] | None = None,
        on_stop: Callable[[float, np.ndarray], None] | None = None,
        stats: IntegratorStats | None = None,
    ) -> IntegrationResult:
        """Integrate from t0 to t1 (t1 > t0).

        ``stop_points`` are interior times that will be hit exactly; at
        each one (and at t1) ``on_stop(t, y)`` is invoked, letting the
        caller record source functions on a fixed grid.
        """
        if t1 <= t0:
            raise IntegrationError("RKDriver requires t1 > t0")
        y = np.array(y0, dtype=float, copy=True)
        t = float(t0)
        stats = stats if stats is not None else IntegratorStats()
        controller = StepController(order=self.tableau.order_low + 1)

        stops = [] if stop_points is None else sorted(
            float(s) for s in stop_points if t0 < s <= t1
        )
        if not stops or stops[-1] < t1:
            stops.append(t1)
        stop_iter = iter(stops)
        next_stop = next(stop_iter)

        f0 = self.rhs(t, y)
        stats.n_rhs += 1
        step_flops = self._flops_per_step(y.size)
        stats.n_flops += step_flops // self.tableau.n_stages  # the f0 eval
        h = self._initial_step(t, y, f0, t1)

        recorded_t: list[float] = []
        recorded_y: list[np.ndarray] = []
        stable_z = STABILITY_FRACTION * self.tableau.real_stability
        h_stable = math.inf

        while t < t1:
            if stats.n_steps >= self.max_steps:
                raise IntegrationError(
                    f"exceeded max_steps={self.max_steps} at t={t:.6g}"
                )
            if self.stiff_rate is not None:
                lam = self.stiff_rate(t, y)
                h_stable = stable_z / lam if lam > 0.0 else math.inf
            h = min(h, self.max_step, h_stable, next_stop - t)
            if h == h_stable:
                stats.n_stability_bound += 1
            if h <= 0.0 or t + h == t:
                raise IntegrationError(f"step size underflow at t={t:.6g}")

            y_new, err, _ = self._step(t, y, h)
            stats.n_rhs += self.tableau.n_stages
            stats.n_flops += step_flops
            if not np.all(np.isfinite(y_new)):
                err_norm = math.inf
            else:
                err_norm = controller.error_norm(err, y, y_new, self.rtol, self.atol)

            if controller.accept(err_norm):
                t += h
                y = y_new
                stats.n_steps += 1
                if t >= next_stop - 1e-12 * max(abs(t), 1.0):
                    t = next_stop
                    if on_stop is not None:
                        on_stop(t, y)
                    recorded_t.append(t)
                    recorded_y.append(y.copy())
                    if t < t1:
                        next_stop = next(stop_iter)
                h *= controller.factor(err_norm)
            else:
                stats.n_rejected += 1
                if err_norm is math.inf or not math.isfinite(err_norm):
                    h *= 0.1
                else:
                    # a rejected step at least halves: a marginal
                    # rejection's factor, ~0.9, would crawl down to the
                    # step that passes
                    h *= min(controller.factor(err_norm), 0.5)
                if h < self.min_step or h < 1e-14 * max(abs(t), 1.0):
                    raise IntegrationError(
                        f"step size underflow (h={h:.3g}) at t={t:.6g}"
                    )

        return IntegrationResult(
            t=t,
            y=y,
            stats=stats,
            recorded_t=np.array(recorded_t),
            recorded_y=np.array(recorded_y) if recorded_y else None,
        )


class DVERK(RKDriver):
    """The Verner 6(5) driver, named after the code the paper used."""

    def __init__(self, rhs, **kwargs) -> None:
        kwargs.setdefault("tableau", VERNER_65_TABLEAU)
        super().__init__(rhs, **kwargs)
