"""repro.resilience — shared graceful-degradation machinery.

One home for the retry/backoff/degradation primitives that PR 3 grew
inside the PLINGER package and every later subsystem (cache, compiled
kernels, chaos engine) turned out to need:

* :class:`RetryPolicy` — bounded retries + exponential backoff + an
  optional deadline, reused by cache loads, ``.so`` compilation and
  PLINGER reassignment.
* :class:`FaultTolerance` — the run-level policy (deadlines,
  heartbeats, retry bounds); :meth:`FaultTolerance.retry_policy`
  derives the matching :class:`RetryPolicy`.
* :class:`HeartbeatThread`, :func:`escalation_ladder`,
  :func:`run_with_ladder` — the PLINGER liveness/compute ladder
  (:func:`repro.plinger.worker.chunk_compute` wraps a worker's unit
  of work in it).
"""

from .ladder import (
    LADDER_FIRST_STEP,
    LADDER_RTOL_SCALE,
    FaultTolerance,
    HeartbeatThread,
    escalation_ladder,
    run_with_ladder,
)
from .retry import RetryPolicy

__all__ = [
    "FaultTolerance",
    "HeartbeatThread",
    "RetryPolicy",
    "escalation_ladder",
    "run_with_ladder",
    "LADDER_FIRST_STEP",
    "LADDER_RTOL_SCALE",
]
