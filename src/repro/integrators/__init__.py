"""Adaptive Runge-Kutta integrators.

LINGER's time integration uses DVERK, the classic Verner 6(5)
Runge-Kutta code from netlib.  :mod:`repro.integrators.dverk`
re-implements that pair from scratch on NumPy state vectors with an
error-per-step controller; :mod:`repro.integrators.rkf45` provides the
Fehlberg 4(5) pair as a cross-check of both the tableau machinery and
the perturbation results.
"""

from .controller import StepController
from .dverk import DVERK, VERNER_65_TABLEAU
from .results import IntegrationResult, IntegratorStats
from .rkf45 import RKF45, FEHLBERG_45_TABLEAU
from .tableau import ButcherTableau

__all__ = [
    "DVERK",
    "RKF45",
    "VERNER_65_TABLEAU",
    "FEHLBERG_45_TABLEAU",
    "ButcherTableau",
    "StepController",
    "IntegrationResult",
    "IntegratorStats",
]
