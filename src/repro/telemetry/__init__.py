"""repro.telemetry — run telemetry: metrics, traffic and cost reports.

The subsystem the paper's evaluation tables rest on: per-mode
integrator metrics (RHS evaluations, accepted/rejected steps, estimated
flops), per-tag message accounting across the PLINGER transports, and
per-worker busy/idle time, all aggregated into a JSON-serializable
:class:`RunReport`.

Telemetry is off by default.  Instrumented call sites take a
``telemetry`` argument defaulting to :data:`NULL_TELEMETRY` (a no-op
collector); pass ``Telemetry()`` — or use ``python -m repro run
--report out.json`` — to switch it on for one run.
"""

from .core import NULL_TELEMETRY, NullTelemetry, Telemetry
from .metrics import Counter, Histogram, Timer
from .report import (
    SCHEMA,
    ConstraintMetrics,
    DegradationMetrics,
    FaultReport,
    ModeMetrics,
    RankTraffic,
    RunReport,
    RhsMetrics,
    SparseMetrics,
    WorkerMetrics,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Counter",
    "Timer",
    "Histogram",
    "ModeMetrics",
    "ConstraintMetrics",
    "RankTraffic",
    "WorkerMetrics",
    "FaultReport",
    "DegradationMetrics",
    "RhsMetrics",
    "SparseMetrics",
    "RunReport",
    "SCHEMA",
]
