"""Result containers for the RK integrators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IntegratorStats", "IntegrationResult"]


@dataclass
class IntegratorStats:
    """Operation counts accumulated over an integration.

    ``n_rhs`` is the number the cluster cost model calibrates against:
    total work per mode is (RHS evaluations) x (flops per evaluation).
    ``n_flops`` is the driver's estimate of that total (RHS cost plus
    the tableau linear algebra), the observable the paper's flop-rate
    tables are built from.
    """

    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    n_flops: int = 0
    #: attempts whose step was set by the driver's stability bound
    n_stability_bound: int = 0

    def merge(self, other: "IntegratorStats") -> None:
        self.n_steps += other.n_steps
        self.n_rejected += other.n_rejected
        self.n_rhs += other.n_rhs
        self.n_flops += other.n_flops
        self.n_stability_bound += other.n_stability_bound


@dataclass
class IntegrationResult:
    """Final state of an integration plus any recorded snapshots."""

    t: float
    y: np.ndarray
    stats: IntegratorStats
    recorded_t: np.ndarray | None = None
    recorded_y: np.ndarray | None = None  # shape (n_records, n_state)

    @property
    def success(self) -> bool:
        return True  # failures raise IntegrationError instead
