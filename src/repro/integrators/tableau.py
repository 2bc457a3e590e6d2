"""Butcher tableaux for embedded Runge-Kutta pairs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ButcherTableau"]


@dataclass(frozen=True)
class ButcherTableau:
    """An embedded explicit Runge-Kutta pair.

    Attributes
    ----------
    a:
        Strictly lower-triangular stage matrix, shape (s, s).
    b_high:
        Weights of the higher-order solution (the one propagated).
    b_low:
        Weights of the embedded lower-order solution (error estimate).
    c:
        Stage abscissae.
    order_high, order_low:
        Classical orders of the two solutions.
    name:
        Human-readable identifier.
    """

    a: np.ndarray
    b_high: np.ndarray
    b_low: np.ndarray
    c: np.ndarray
    order_high: int
    order_low: int
    name: str = "rk-pair"

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        s = a.shape[0]
        if a.shape != (s, s):
            raise ValueError("stage matrix must be square")
        if np.any(np.triu(a) != 0.0):
            raise ValueError("explicit tableau requires strictly lower-triangular a")
        for arr, nm in ((self.b_high, "b_high"), (self.b_low, "b_low"), (self.c, "c")):
            if np.asarray(arr).shape != (s,):
                raise ValueError(f"{nm} must have length {s}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_high", np.asarray(self.b_high, dtype=float))
        object.__setattr__(self, "b_low", np.asarray(self.b_low, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @property
    def n_stages(self) -> int:
        return self.a.shape[0]

    @cached_property
    def error_weights(self) -> np.ndarray:
        """b_high - b_low: weights of the embedded error estimator."""
        return self.b_high - self.b_low

    @cached_property
    def contraction_terms(self) -> tuple[tuple[int, ...], ...]:
        """The structurally non-zero terms of every tableau contraction,
        in the order the arithmetic contract sums them: one tuple per
        stage row ``a[i]`` (``i = 0 .. s-1``, row 0 empty), then
        ``b_high``, then ``error_weights``."""
        rows = [*self.a, self.b_high, self.error_weights]
        return tuple(tuple(int(j) for j in np.flatnonzero(r)) for r in rows)

    @cached_property
    def real_stability(self) -> float:
        """Extent of the propagated solution's stability interval on the
        negative real axis: the smallest ``x > 0`` with ``|R(-x)| = 1``,
        ``R(z) = 1 + sum_k z^(k+1) b_high . A^k . 1`` the stability
        polynomial.  A step ``h`` of ``y' = -lam y`` decays iff
        ``h lam < x``.  Found from the coefficients alone: a scan outward
        in steps of 1/64, then bisection."""
        coeffs, v = [1.0], np.ones(self.n_stages)
        for _ in range(self.n_stages):
            coeffs.append(float(self.b_high @ v))
            v = self.a @ v

        def growth(x: float) -> float:
            r = 0.0
            for c in reversed(coeffs):
                r = r * -x + c
            return abs(r) - 1.0

        lo = hi = 1.0 / 64.0
        while growth(hi) < 0.0:
            lo, hi = hi, hi + 1.0 / 64.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if growth(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    def contraction_weights(self) -> list[np.ndarray]:
        """The weight vectors of :attr:`contraction_terms`, same order,
        each a ``(s, 1)`` column broadcasting over a ``(s, n)`` stage
        buffer."""
        return [w.reshape(-1, 1)
                for w in (*self.a, self.b_high, self.error_weights)]

    def check_order_conditions(self, max_order: int = 3) -> dict[str, float]:
        """Residuals of the first few classical order conditions.

        Returns a mapping from condition name to |residual| for the
        high-order weights; used by the test-suite to validate the
        transcribed coefficients.
        """
        b, c, a = self.b_high, self.c, self.a
        res = {
            "sum_b=1": abs(float(np.sum(b)) - 1.0),
            "row_sum=c": float(np.max(np.abs(np.sum(a, axis=1) - c))),
        }
        if max_order >= 2:
            res["b.c=1/2"] = abs(float(b @ c) - 0.5)
        if max_order >= 3:
            res["b.c^2=1/3"] = abs(float(b @ c**2) - 1.0 / 3.0)
            res["b.A.c=1/6"] = abs(float(b @ (a @ c)) - 1.0 / 6.0)
        if max_order >= 4:
            res["b.c^3=1/4"] = abs(float(b @ c**3) - 0.25)
            res["b.(c*Ac)=1/8"] = abs(float(b @ (c * (a @ c))) - 0.125)
            res["b.A.c^2=1/12"] = abs(float(b @ (a @ c**2)) - 1.0 / 12.0)
            res["b.A.A.c=1/24"] = abs(float(b @ (a @ (a @ c))) - 1.0 / 24.0)
        return res
