"""repro.verify — the Einstein-constraint verification subsystem.

Redundant-physics checks for the LINGER/PLINGER integrations, in four
layers:

* :mod:`~repro.verify.tolerances` — the tolerance-budget registry:
  every rtol/atol the suite asserts, with provenance;
* :mod:`~repro.verify.constraints` — runtime constraint monitors that
  rebuild the redundant synchronous-gauge Einstein equations (MB95
  eqs. 21c/21d), the Thomson momentum-exchange identity and the
  hierarchy-truncation diagnostics per-term from the coded RHS at every
  record point of an integration;
* :mod:`~repro.verify.oracles` / :mod:`~repro.verify.analytic` —
  differential oracles (serial vs PLINGER paths, synchronous
  vs conformal-Newtonian gauges) and closed-form-limit oracles
  (super-horizon conservation, acoustic phase, matter-era growth,
  Sachs-Wolfe plateau);
* :mod:`~repro.verify.runner` — :func:`verify_run` executes the whole
  suite and reports every (measured, threshold) pair; the CLI exposes
  it as ``python -m repro verify``.

Attach monitors to a production run with
``run_linger(..., monitor_constraints=True)``; the residual histories
land in ``LingerResult.constraints`` and the telemetry report.
"""

from .analytic import (
    acoustic_phase_deviation,
    adiabatic_ratio_deviation,
    matter_growth_slope,
    sachs_wolfe_ratio,
    superhorizon_eta_drift,
)
from .constraints import (
    ConstraintMonitor,
    ModeConstraintResiduals,
    quality_residuals,
)
from .oracles import (
    batch_invariance_oracle,
    gauge_oracle,
    paths_oracle,
    rhs_kernel_oracle,
    sockets_world_oracle,
    sparse_cl_oracle,
)
from .runner import VerificationCheck, VerificationReport, verify_run
from .tolerances import TOLERANCES, Tolerance, budget

__all__ = [
    "Tolerance",
    "TOLERANCES",
    "budget",
    "ConstraintMonitor",
    "ModeConstraintResiduals",
    "quality_residuals",
    "paths_oracle",
    "gauge_oracle",
    "sparse_cl_oracle",
    "rhs_kernel_oracle",
    "batch_invariance_oracle",
    "sockets_world_oracle",
    "superhorizon_eta_drift",
    "adiabatic_ratio_deviation",
    "acoustic_phase_deviation",
    "matter_growth_slope",
    "sachs_wolfe_ratio",
    "VerificationCheck",
    "VerificationReport",
    "verify_run",
]
