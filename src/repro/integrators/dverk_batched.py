"""Batched DVERK: one Verner 6(5) driver stepping B lanes in lockstep.

The serial :class:`~repro.integrators.dverk.RKDriver` spends most of its
wall-clock in Python-level bookkeeping — slicing, tableau contractions,
spline lookups — on vectors of only ~10^2 entries.  This driver runs the
*same* tableau and the *same* per-lane controller logic on a
``(B, n_state)`` state matrix, so every one of those interpreter-level
operations amortizes over B independent wavenumbers.

The price of lockstep is ragged progress: each lane keeps its own time,
step size, PI-controller memory and stop-point list, and a per-lane
accept/reject mask decides who advances on each vectorized *sweep*.
Rejected lanes retry with a shrunk step; lanes that reach their end
time *park* (their rows keep being evaluated — that is what makes the
arithmetic stay vectorized — but their state is frozen and the work is
booked as idle).  :class:`BatchStats` accounts for both overheads: lane
occupancy (active lane-slots over all lane-slots) and the wasted-step
fraction (rejected lane-steps over attempted ones).

Per lane the step sequence is *identical* to the serial driver's — the
clamping, snapping-to-stop, controller-factor and underflow rules below
are transcribed line for line, and every sum follows the arithmetic
contract of :mod:`repro.integrators.contract` — so a lane's trajectory
is bitwise the serial driver's, whichever lanes share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import IntegrationError
from .contract import ordered_weighted_sum
from .dverk import VERNER_65_TABLEAU
from .results import IntegratorStats
from .tableau import ButcherTableau

__all__ = ["BatchStats", "BatchIntegrationResult", "BatchedRKDriver",
           "BatchedDVERK"]


@dataclass
class BatchStats:
    """Occupancy accounting for a batched integration.

    A *sweep* is one vectorized step attempt over the whole batch; a
    *lane-step* is one lane's share of a sweep.  Lane-steps split into
    attempted (the lane was active) and idle (the lane was parked,
    riding along in the matrix without advancing).
    """

    n_lanes: int = 0
    n_sweeps: int = 0
    lane_steps_attempted: int = 0
    lane_steps_accepted: int = 0
    lane_steps_rejected: int = 0
    lane_slots_idle: int = 0

    @property
    def occupancy(self) -> float:
        """Fraction of lane-slots doing useful (active) work."""
        total = self.lane_steps_attempted + self.lane_slots_idle
        return self.lane_steps_attempted / total if total else 0.0

    @property
    def wasted_step_fraction(self) -> float:
        """Fraction of attempted lane-steps that were rejected."""
        att = self.lane_steps_attempted
        return self.lane_steps_rejected / att if att else 0.0

    def merge(self, other: "BatchStats") -> None:
        self.n_lanes = max(self.n_lanes, other.n_lanes)
        self.n_sweeps += other.n_sweeps
        self.lane_steps_attempted += other.lane_steps_attempted
        self.lane_steps_accepted += other.lane_steps_accepted
        self.lane_steps_rejected += other.lane_steps_rejected
        self.lane_slots_idle += other.lane_slots_idle


@dataclass
class BatchIntegrationResult:
    """Final state of all lanes plus per-lane cost counters."""

    t: np.ndarray  #: (B,) final times
    y: np.ndarray  #: (B, n) final states
    batch: BatchStats
    lane_n_rhs: np.ndarray  #: (B,) RHS evaluations attributed per lane
    lane_steps: np.ndarray  #: (B,) accepted steps per lane
    lane_rejected: np.ndarray  #: (B,) rejected steps per lane
    lane_flops: np.ndarray  #: (B,) estimated flops per lane

    def lane_stats(self, b: int) -> IntegratorStats:
        """One lane's counters in the serial-driver container."""
        return IntegratorStats(
            n_steps=int(self.lane_steps[b]),
            n_rejected=int(self.lane_rejected[b]),
            n_rhs=int(self.lane_n_rhs[b]),
            n_flops=int(self.lane_flops[b]),
        )


class BatchedRKDriver:
    """Adaptive driver over any embedded tableau, B lanes at a time.

    Parameters
    ----------
    rhs:
        Callable ``rhs(t, Y) -> dY/dt`` taking a ``(B,)`` time vector
        and a ``(B, n)`` state matrix (e.g.
        :meth:`PerturbationSystemBatch.rhs_full`).
    rtol, atol:
        Tolerances, shared across lanes (as the serial driver shares
        them across modes).
    max_steps:
        Per-lane cap on accepted steps.
    """

    def __init__(
        self,
        rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
        tableau: ButcherTableau = VERNER_65_TABLEAU,
        rtol: float = 1e-6,
        atol: float | np.ndarray = 1e-10,
        max_step: float = math.inf,
        min_step: float = 0.0,
        max_steps: int = 1_000_000,
        first_step: float | None = None,
        # controller constants (mirroring StepController's defaults)
        safety: float = 0.9,
        min_factor: float = 0.2,
        max_factor: float = 5.0,
        beta: float = 0.04,
        flops_per_rhs: float | None = None,
    ) -> None:
        self.rhs = rhs
        self.tableau = tableau
        self.rtol = float(rtol)
        self.atol = atol
        self.max_step = float(max_step)
        self.min_step = float(min_step)
        self.max_steps = int(max_steps)
        self.first_step = first_step
        self.safety = safety
        self.min_factor = min_factor
        self.max_factor = max_factor
        self.beta = beta
        self.flops_per_rhs = flops_per_rhs
        self._K: np.ndarray | None = None  # stage buffer (s, B, n)
        self._prod: np.ndarray | None = None  # weight * stage products

    # ------------------------------------------------------------------

    def _flops_per_step(self, n: int) -> int:
        """Per-lane estimate, matching RKDriver._flops_per_step.

        When the caller provides ``flops_per_rhs`` (e.g. the
        operator's structure census), the per-lane cost model is
        *identical* to the serial driver's — telemetry flop totals
        stay comparable across serial, batched and compiled paths.
        """
        s = self.tableau.n_stages
        rhs = self.flops_per_rhs
        if rhs is None:
            rhs = 12.0 * n + 300.0
        tableau = n * (2 * s * (s - 1) + 2 * (s - 1) + 4 * s + 9)
        return int(round(s * rhs + tableau))

    def _initial_steps(self, t0: np.ndarray, y0: np.ndarray,
                       f0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Per-lane version of the serial initial-step heuristic."""
        span = t1 - t0
        if self.first_step is not None:
            return np.minimum(self.first_step, np.abs(span))
        scale = np.abs(self.atol) + self.rtol * np.abs(y0)
        n = y0.shape[1]
        r0, r1 = y0 / scale, f0 / scale
        d0 = np.sqrt(np.add.reduce(r0 * r0, axis=1) / n)
        d1 = np.sqrt(np.add.reduce(r1 * r1, axis=1) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / d1,
                         1e-6 * span)
        return np.minimum(np.minimum(h, 0.1 * span), self.max_step)

    def _factor(self, err_norm: np.ndarray,
                prev_err: np.ndarray) -> np.ndarray:
        """Per-lane StepController.factor.

        Scalar ``**`` on purpose: numpy's array power differs from
        libm's by ulps, which would let batched step sizes drift off
        the serial trajectories.  B is small; this loop is cold.
        """
        k = 1.0 / (self.tableau.order_low + 1)
        fac = np.empty_like(err_norm)
        for b, (e, pe) in enumerate(zip(err_norm.tolist(),
                                        prev_err.tolist())):
            if e == 0.0:
                fac[b] = self.max_factor
            elif math.isfinite(e):
                f = (self.safety * e ** (-(k - self.beta))
                     * pe ** (-self.beta))
                fac[b] = min(max(f, self.min_factor), self.max_factor)
            else:
                fac[b] = self.min_factor
        return fac

    # ------------------------------------------------------------------

    def integrate(
        self,
        y0: np.ndarray,
        t0: np.ndarray,
        t1: np.ndarray,
        stop_points: Sequence[Sequence[float]] | None = None,
        on_stop: Callable[[int, float, np.ndarray], None] | None = None,
        stats: BatchStats | None = None,
    ) -> BatchIntegrationResult:
        """Integrate every lane b from t0[b] to t1[b] (t1 > t0).

        ``stop_points[b]`` are interior times lane b must hit exactly;
        at each one (and at t1[b]) ``on_stop(b, t, y_row)`` is invoked.
        Lanes park after reaching t1 and wait for the rest of the batch.
        """
        Y = np.array(y0, dtype=float, copy=True)
        if Y.ndim != 2:
            raise IntegrationError("batched driver needs a (B, n) state")
        B, n = Y.shape
        t = np.asarray(t0, dtype=float).copy()
        t_end = np.asarray(t1, dtype=float)
        if t.shape != (B,) or t_end.shape != (B,):
            raise IntegrationError("t0/t1 must have one entry per lane")
        if np.any(t_end <= t):
            raise IntegrationError("batched driver requires t1 > t0 per lane")

        stats = stats if stats is not None else BatchStats()
        stats.n_lanes = max(stats.n_lanes, B)

        # per-lane stop lists, each ending exactly at t1[b]
        stops: list[list[float]] = []
        for b in range(B):
            pts = [] if stop_points is None else sorted(
                float(s) for s in stop_points[b] if t[b] < s <= t_end[b]
            )
            if not pts or pts[-1] < t_end[b]:
                pts.append(float(t_end[b]))
            stops.append(pts)
        stop_idx = np.zeros(B, dtype=int)
        next_stop = np.array([stops[b][0] for b in range(B)])

        tb = self.tableau
        s = tb.n_stages
        # tableau weights broadcasting over the (s, B, n) stage buffer,
        # and the abscissae, hoisted out of the sweeps
        w = tb.contraction_weights(2)
        terms = tb.contraction_terms
        c_list = tb.c.tolist()
        if self._K is None or self._K.shape != (s, B, n):
            self._K = np.empty((s, B, n))
            self._prod = np.empty((s, B, n))
        K, prod = self._K, self._prod

        step_flops = self._flops_per_step(n)
        lane_n_rhs = np.ones(B, dtype=np.int64)  # the f0 evaluation
        lane_steps = np.zeros(B, dtype=np.int64)
        lane_rejected = np.zeros(B, dtype=np.int64)
        lane_flops = np.full(B, step_flops // s, dtype=np.int64)

        f0 = self.rhs(t, Y)
        h = self._initial_steps(t, Y, f0, t_end)
        prev_err = np.ones(B)
        active = t < t_end

        # float-error state: the loop body guards every place that can
        # produce non-finite trial steps, so hoist the (slow) errstate
        # context out of the sweep loop entirely
        old_err = np.seterr(invalid="ignore", over="ignore",
                            divide="ignore")
        # lane_steps grows by at most 1 per sweep, so the exact
        # max-steps check only needs to run once the sweep count itself
        # could have reached the cap
        n_sweeps = 0
        # min(h, inf) is the identity; skip the ufunc when uncapped
        cap_h = math.isfinite(self.max_step)
        try:
            while active.any():
                if (n_sweeps >= self.max_steps
                        and int(lane_steps.max()) >= self.max_steps):
                    raise IntegrationError(
                        f"a lane exceeded max_steps={self.max_steps}"
                    )
                n_sweeps += 1
                if cap_h:
                    h_eff = np.minimum(np.minimum(h, self.max_step),
                                       next_stop - t)
                else:
                    h_eff = np.minimum(h, next_stop - t)
                h_eff = np.where(active, h_eff, 0.0)
                bad = active & ((h_eff <= 0.0) | (t + h_eff == t))
                if bad.any():
                    b = int(np.nonzero(bad)[0][0])
                    raise IntegrationError(
                        f"step size underflow in lane {b} at t={t[b]:.6g}"
                    )

                # one vectorized trial step over the whole batch; the
                # tableau contractions are elementwise left-to-right
                # sums (contract rule 1), never a gemv over the batch:
                # a lane's bits must not depend on its batch-mates
                hcol = h_eff[:, None]
                K[0] = self.rhs(t, Y)
                for i in range(1, s):
                    Yi = Y + hcol * ordered_weighted_sum(w[i], terms[i],
                                                         K, prod)
                    K[i] = self.rhs(t + c_list[i] * h_eff, Yi)
                Y_new = Y + hcol * ordered_weighted_sum(w[s], terms[s],
                                                        K, prod)
                err = hcol * ordered_weighted_sum(w[s + 1], terms[s + 1],
                                                  K, prod)

                finite = np.isfinite(Y_new).all(axis=1)
                scale = self.atol + self.rtol * np.maximum(np.abs(Y),
                                                           np.abs(Y_new))
                if finite.all():
                    # fast path: masking out non-finite lanes is a no-op
                    ratio = err / scale
                    err_norm = np.sqrt(
                        np.add.reduce(ratio * ratio, axis=1) / n
                    )
                else:
                    ratio = np.where(finite[:, None], err / scale, 0.0)
                    # add.reduce/n is bitwise np.mean(axis=1), minus the
                    # _methods dispatch overhead
                    err_norm = np.sqrt(
                        np.add.reduce(ratio * ratio, axis=1) / n
                    )
                    err_norm = np.where(finite, err_norm, np.inf)

                ok = err_norm <= 1.0
                accept = active & ok
                reject = active & ~accept

                n_active = int(np.count_nonzero(active))
                n_accept = int(np.count_nonzero(accept))
                stats.n_sweeps += 1
                stats.lane_steps_attempted += n_active
                stats.lane_slots_idle += B - n_active
                stats.lane_steps_accepted += n_accept
                stats.lane_steps_rejected += n_active - n_accept
                # bool arithmetic instead of fancy-index updates: the
                # counters only grow where the mask is True
                lane_n_rhs += s * active
                lane_flops += step_flops * active

                # StepController.accept() commits _prev_err =
                # max(err, 1e-10) *before* factor() is read, so the
                # accept-side factor sees the current step's error in
                # the integral term while a rejection keeps the last
                # accepted one.
                errc = np.maximum(err_norm, 1e-10)
                prev_for_factor = np.where(ok, errc, prev_err)
                fac = self._factor(err_norm, prev_for_factor)

                if n_accept == n_active:
                    # every active lane accepted (the common sweep).
                    # h_eff is exactly 0.0 on parked lanes, so plain
                    # arithmetic updates them as no-ops (t + 0, h = 0,
                    # prev_err unread) — same result as the masked
                    # np.where updates below, minus five masked ops.
                    t = t + h_eff
                    if n_active == B:
                        Y = Y_new
                    else:
                        np.copyto(Y, Y_new, where=active[:, None])
                    lane_steps += active
                    h = h_eff * fac
                    prev_err = np.where(active, errc, prev_err)
                    hit = active & (
                        t >= next_stop - 1e-12 * np.maximum(np.abs(t), 1.0)
                    )
                elif n_accept:
                    t = np.where(accept, t + h_eff, t)
                    np.copyto(Y, Y_new, where=accept[:, None])
                    lane_steps += accept
                    h = np.where(accept, h_eff * fac, h)
                    prev_err = np.where(accept, errc, prev_err)
                    hit = accept & (
                        t >= next_stop - 1e-12 * np.maximum(np.abs(t), 1.0)
                    )
                else:
                    hit = None
                if hit is not None:
                    for b in np.nonzero(hit)[0]:
                        t[b] = next_stop[b]
                        if on_stop is not None:
                            on_stop(int(b), float(t[b]), Y[b])
                        if t[b] < t_end[b]:
                            stop_idx[b] += 1
                            next_stop[b] = stops[b][stop_idx[b]]
                    active = active & (t < t_end)

                if n_accept < n_active:
                    lane_rejected += reject
                    # a rejected step must always shrink (see RKDriver)
                    shrink = np.where(np.isfinite(err_norm),
                                      np.minimum(fac, 0.5), 0.1)
                    h = np.where(reject, h_eff * shrink, h)
                    bad = reject & (
                        (h < self.min_step)
                        | (h < 1e-14 * np.maximum(np.abs(t), 1.0))
                    )
                    if bad.any():
                        b = int(np.nonzero(bad)[0][0])
                        raise IntegrationError(
                            f"step size underflow (h={h[b]:.3g}) in "
                            f"lane {b} at t={t[b]:.6g}"
                        )
        finally:
            np.seterr(**old_err)

        return BatchIntegrationResult(
            t=t,
            y=Y,
            batch=stats,
            lane_n_rhs=lane_n_rhs,
            lane_steps=lane_steps,
            lane_rejected=lane_rejected,
            lane_flops=lane_flops,
        )


class BatchedDVERK(BatchedRKDriver):
    """The batched Verner 6(5) driver (same tableau as DVERK)."""

    def __init__(self, rhs, **kwargs) -> None:
        kwargs.setdefault("tableau", VERNER_65_TABLEAU)
        super().__init__(rhs, **kwargs)
