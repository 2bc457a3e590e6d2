"""Adaptive step-size control for embedded Runge-Kutta pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contract import rms

__all__ = ["StepController", "STABILITY_FRACTION"]

#: How much of the tableau's real stability interval a step bounded by a
#: ``stiff_rate`` may use (see ``RKDriver``): at 0.96 of Verner's boundary
#: |R(z)| is 0.718, so a parasitic mode on the stiffest eigenvalue decays
#: 28 % a step instead of growing until the error test trips.
STABILITY_FRACTION = 0.96


@dataclass
class StepController:
    """The classical integral step-size controller,
    ``h_new = h * safety * err^(-1/order)``.

    The error norm is the RMS of the componentwise error divided by the
    tolerance scale ``atol + rtol * max(|y|, |y_new|)``; a step is
    accepted when the norm is <= 1.

    Attributes
    ----------
    order:
        Order of the *lower* solution + 1 (the exponent base used in
        classical controllers: err ~ h^(order)).
    safety:
        Multiplicative safety factor on the predicted step.
    min_factor, max_factor:
        Clamp on the step-size change per step.
    n_accepted, n_rejected:
        Running decision counts, read by the run telemetry layer.
    """

    order: int
    safety: float = 0.9
    min_factor: float = 0.2
    max_factor: float = 5.0
    n_accepted: int = 0
    n_rejected: int = 0

    def error_norm(
        self,
        err: np.ndarray,
        y_old: np.ndarray,
        y_new: np.ndarray,
        rtol: float,
        atol: float | np.ndarray,
    ) -> float:
        scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
        return rms(err / scale)

    def factor(self, err_norm: float) -> float:
        """Step-size multiplier after a step with the given error norm."""
        if err_norm == 0.0:
            return self.max_factor
        fac = self.safety * err_norm ** (-(1.0 / self.order))
        return float(np.clip(fac, self.min_factor, self.max_factor))

    def accept(self, err_norm: float) -> bool:
        ok = err_norm <= 1.0
        if ok:
            self.n_accepted += 1
        else:
            self.n_rejected += 1
        return ok
