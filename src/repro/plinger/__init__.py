"""PLINGER: the parallel master/worker driver.

A faithful transcription of the paper's Appendix A into Python on the
message-passing wrapper API: the master broadcasts the run setup
(tag 1), workers request wavenumbers (tag 2), the master replies with
work (tag 3) or stop (tag 6), and each completed mode comes back as a
21-value header (tag 4) followed by a ``2 lmax + 8``-value multipole
payload (tag 5).  Work is handed out largest-k-first.

That exchange is the whole wire of a fault-free run.  Around it the
one loop on each side keeps a run alive: deadlines on every wait,
heartbeats (tag 7) from a worker silent for an interval,
quarantine and work reassignment with bounded retries, an integration
escalation ladder, and full fault accounting in a
:class:`~repro.telemetry.report.FaultReport`; a :class:`FaultTolerance`
policy sets the deadlines and bounds.
"""

from ..resilience import FaultTolerance
from .tags import Tag
from .checkpoint import ModeJournal, run_plinger_checkpointed
from .driver import PlingerRunStats, run_plinger
from .master import master_subroutine
from .worker import worker_subroutine

__all__ = [
    "Tag",
    "run_plinger",
    "run_plinger_checkpointed",
    "ModeJournal",
    "PlingerRunStats",
    "FaultTolerance",
    "master_subroutine",
    "worker_subroutine",
]
