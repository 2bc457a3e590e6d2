"""Fault-tolerance policy and graceful-degradation building blocks.

The cache, compiled kernels, and chaos engine need the same machinery
as the master/worker protocol, so it lives here.  The paper's design
assumes every worker survives a ~75 CPU-hour run; this module supplies
what a production deployment needs when they don't:

* :class:`FaultTolerance` — the knobs of the PLINGER loop: liveness
  deadlines, the heartbeat cadence, retry/backoff bounds.  Every run
  has one (:func:`~repro.plinger.driver.run_plinger` and the
  master/worker subroutines default to ``FaultTolerance()``); its
  :meth:`~FaultTolerance.retry_policy` hands the same backoff contract
  to the cache path.
* :class:`HeartbeatThread` — a worker-side timer emitting
  ``Tag.HEARTBEAT`` messages so the master can tell a busy worker from
  a dead one while a long integration holds the main thread.
* :func:`escalation_ladder` / :func:`run_with_ladder` — graceful
  degradation of the *compute* path: an ``IntegrationError`` retries
  the mode with a tighter initial step, then a looser relative
  tolerance, before giving up; the chosen level travels back to the
  master in the result header so degraded modes are auditable.
  ``transient_retries`` allows extra same-config level-0 attempts
  first, so a transient fault (a chaos-injected step collapse, a
  scheduler hiccup) recovers *bitwise* instead of degrading.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import numpy as np

from ..errors import IntegrationError
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..mp.api import MessagePassing

__all__ = [
    "FaultTolerance",
    "HeartbeatThread",
    "escalation_ladder",
    "run_with_ladder",
    "LADDER_FIRST_STEP",
    "LADDER_RTOL_SCALE",
]

#: Level-1 retry: force the integrator to open with this initial step
#: (a too-greedy first step is the classic stiff-start failure).
LADDER_FIRST_STEP = 1e-4

#: Level-2 retry: loosen rtol by this factor (still well inside the
#: golden-regression tolerance for a handful of modes).
LADDER_RTOL_SCALE = 10.0


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance policy for a PLINGER run.

    ``worker_timeout``
        Worker side: how long to wait for the master's reply before
        re-requesting work.  Master side: how long a rank has to make
        first contact, and — only when heartbeats are off — the
        silence after which a rank is declared dead.
    ``max_retries``
        Bound on re-dispatches per wavenumber and on a worker's
        consecutive unanswered READY re-sends.
    ``heartbeat_interval``
        Seconds between the heartbeats of a worker that has sent
        nothing else for one interval — in a long mode, or on the
        bench — so a run of shorter modes sends none; 0 disables them
        (liveness then rests on ``worker_timeout``, i.e. on how long a
        mode may take).
    ``missed_heartbeats``
        K: a rank is declared dead after K intervals of silence (at
        least 3: the first beat can come almost two intervals after
        the rank's last message).
    ``poll_seconds``
        The master's probe tick — the granularity of deadline checks.
    ``payload_timeout``
        How long the master waits for the tag-5 payload after its
        tag-4 header before declaring the result torn.
    ``backoff_base``
        Worker READY-retry backoff: sleep ``base * 2**attempt`` before
        each re-send.
    """

    worker_timeout: float = 30.0
    max_retries: int = 5
    heartbeat_interval: float = 2.0
    missed_heartbeats: int = 3
    poll_seconds: float = 0.05
    payload_timeout: float = 2.0
    backoff_base: float = 0.05

    @property
    def silence_seconds(self) -> float:
        """Silence after which a worker is presumed dead."""
        if self.heartbeat_interval > 0:
            return self.heartbeat_interval * self.missed_heartbeats
        return self.worker_timeout

    def retry_policy(self) -> RetryPolicy:
        """The same bounds/backoff as a reusable :class:`RetryPolicy`.

        The worker's READY resync, the master's per-wavenumber
        re-dispatch bound and the cache quarantine rebuild all draw on
        this one contract.
        """
        return RetryPolicy(max_retries=self.max_retries,
                           backoff_base=self.backoff_base,
                           backoff_factor=2.0, backoff_cap=1.0)


class HeartbeatThread:
    """Emits ``Tag.HEARTBEAT`` to ``target`` every ``interval`` seconds
    while the worker has had nothing else to say for that long.

    The worker calls :meth:`spoke` whenever it sends a message of its
    own; a tick less than one interval after that sends nothing — so
    short modes cost no message and a fault-free run of them keeps to
    the paper's six tags, while a long mode, or a long wait on the
    bench, is accompanied by heartbeats.  Runs as a
    daemon thread beside the worker's compute loop; sends are
    serialized with the main thread by the handle's send lock.  A
    transport error (e.g. the rank was killed by fault injection) ends
    the thread quietly — the master's silence detector takes over from
    there.
    """

    def __init__(self, mp: "MessagePassing", target: int,
                 interval: float) -> None:
        self._mp = mp
        self._target = target
        self._interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._spoke = time.monotonic()
        self.beats = 0

    def start(self) -> "HeartbeatThread":
        if self._interval <= 0:
            return self
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        from ..plinger.tags import Tag

        while not self._stop.wait(self._interval):
            if time.monotonic() - self._spoke < self._interval:
                continue
            try:
                self._mp.mysendreal(np.array([float(self.beats)]),
                                    Tag.HEARTBEAT, self._target)
            except Exception:
                return
            self.beats += 1

    def spoke(self) -> None:
        """The worker just sent a message: the silence starts over."""
        self._spoke = time.monotonic()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval + 1.0)
            self._thread = None


T = TypeVar("T")


def escalation_ladder(config) -> Iterator[tuple[int, object]]:
    """Yield ``(level, config)`` attempts for one mode integration.

    Level 0 is the run configuration as given; level 1 forces a tight
    initial step (:data:`LADDER_FIRST_STEP`); level 2 additionally
    loosens rtol by :data:`LADDER_RTOL_SCALE`.  The caller reports any
    level > 0 as a *degraded* mode.
    """
    yield 0, config
    yield 1, replace(config, first_step=LADDER_FIRST_STEP)
    yield 2, replace(config, first_step=LADDER_FIRST_STEP,
                     rtol=config.rtol * LADDER_RTOL_SCALE)


def run_with_ladder(
    config,
    attempt: Callable[[object], T],
    enabled: bool = True,
    transient_retries: int = 0,
    on_retry: Callable[[int, IntegrationError], None] | None = None,
) -> tuple[T, int]:
    """Run ``attempt(config)`` through the escalation ladder.

    Returns ``(result, level)`` from the first level that succeeds;
    re-raises the last :class:`~repro.errors.IntegrationError` when
    every rung fails.  ``enabled=False`` collapses to a single plain
    attempt.

    ``transient_retries`` grants that many *extra* level-0 attempts
    with the unmodified config before the ladder escalates — a success
    there is bit-identical to a clean run and reports level 0.
    ``on_retry(level, exc)`` fires after each failed attempt (at the
    level that just failed), so callers can log the degradation
    without changing the result contract.
    """
    if not enabled:
        return attempt(config), 0
    last: IntegrationError | None = None
    for level, cfg in escalation_ladder(config):
        tries = 1 + (transient_retries if level == 0 else 0)
        for _ in range(tries):
            try:
                return attempt(cfg), level
            except IntegrationError as exc:
                last = exc
                if on_retry is not None:
                    on_retry(level, exc)
    assert last is not None
    raise last
