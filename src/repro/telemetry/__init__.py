"""repro.telemetry — run telemetry: metrics, traffic and cost reports.

The subsystem the paper's evaluation tables rest on: per-mode
integrator metrics (RHS evaluations, accepted/rejected steps, estimated
flops), per-tag message accounting across the PLINGER transports, and
per-worker busy/idle time, all held by one :class:`Telemetry` — the
collector a run threads through its layers, the document a PLINGER
worker hands its master, and the JSON report ``save`` writes and
``load`` reads back (``schema`` = ``repro.telemetry.RunReport/v1``).

Telemetry is off by default.  Instrumented call sites take a
``telemetry`` argument defaulting to :data:`NULL_TELEMETRY` (a no-op
collector); pass ``Telemetry()`` — or use ``python -m repro run
--report out.json`` — to switch it on for one run.
"""

from .core import NULL_TELEMETRY, NullTelemetry, Telemetry, Timer
from .report import (
    SCHEMA,
    ConstraintMetrics,
    DegradationMetrics,
    FaultReport,
    ModeMetrics,
    RankTraffic,
    ServeMetrics,
    SparseMetrics,
    WorkerMetrics,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Timer",
    "ModeMetrics",
    "ConstraintMetrics",
    "RankTraffic",
    "WorkerMetrics",
    "FaultReport",
    "DegradationMetrics",
    "SparseMetrics",
    "ServeMetrics",
    "SCHEMA",
]
