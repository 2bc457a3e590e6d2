"""Fault-injecting transport wrapper (testing substrate).

Wraps any world and perturbs deliveries according to a policy: drop,
duplicate, truncate, re-tag, delay, hold forever, corrupt, or kill the
sending rank outright.  Under any of them the PLINGER loop must
*recover* — detect the dead rank or lost message, reassign the
wavenumbers, and reproduce the fault-free records — or raise
ProtocolError / MessagePassingError within the policy's bounds; never
mis-assemble a run quietly.  The chaos suite proves that.

Every injected fault is tallied in ``faults_injected`` and per-tag in
``faults_by_tag`` (bookkeeping happens *before* the action dispatch, so
every action — including ones added later — is accounted identically);
tests pin recovery telemetry against these exact counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...errors import MessagePassingError
from ..api import MessagePassing, World
from ..message import Message

__all__ = ["FaultPolicy", "FaultyWorld"]

#: Every fault mode the policy understands.
ACTIONS = (
    "drop",            # message vanishes in flight
    "duplicate",       # message delivered twice
    "truncate",        # message delivered one real short
    "retag",           # message delivered under the wrong tag
    "delay",           # message delivered late (delay_seconds)
    "hang",            # message held forever (sender believes it sent)
    "kill_rank",       # the sending rank dies: message lost, rank dead
    "corrupt_payload",  # message delivered with garbled values
)


@dataclass
class FaultPolicy:
    """What to do to each delivered message.

    ``selector(msg, count)`` picks victims (count = running index of
    deliveries); exactly one action applies to a selected message.
    ``max_faults`` bounds the total injections (None = unlimited).
    """

    selector: Callable[[Message, int], bool]
    action: str = "drop"
    retag_to: int = 99
    delay_seconds: float = 0.05
    max_faults: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")

    @staticmethod
    def every_nth(n: int, tags=None, action: str = "drop",
                  **kwargs) -> "FaultPolicy":
        """Deterministic rate-based policy: fault every ``n``-th
        delivery of the given tags (e.g. ``n=20`` ≈ a 5% fault rate) —
        reproducible, unlike a seeded RNG shared across threads."""
        tagset = None if tags is None else {int(t) for t in tags}
        hits = {"n": 0}

        def select(msg: Message, count: int) -> bool:
            if tagset is not None and msg.tag not in tagset:
                return False
            hits["n"] += 1
            return hits["n"] % n == 0

        return FaultPolicy(selector=select, action=action, **kwargs)


class FaultyWorld(World):
    """A world whose deliveries pass through a fault policy.

    Accepts a single policy or a list of policies; the first policy
    whose selector fires claims the message (at most one fault per
    delivery).  All bookkeeping is lock-guarded: concurrent worker
    threads deliver through one shared counter.
    """

    def __init__(self, inner: World,
                 policy: "FaultPolicy | list[FaultPolicy]") -> None:
        super().__init__(inner.nproc)
        self._inner = inner
        self.policies = list(policy) if isinstance(policy, (list, tuple)) \
            else [policy]
        self.delivery_count = 0
        self.faults_injected = 0
        #: faults per message tag, for exact accounting in tests
        self.faults_by_tag: dict[int, int] = {}
        #: messages held forever by the ``hang`` action
        self.held: list[tuple[int, Message]] = []
        #: ranks killed by the ``kill_rank`` action
        self.dead_ranks: set[int] = set()
        self._lock = threading.Lock()
        #: injections per policy (keyed by id(policy)), for max_faults
        self._per_policy: dict[int, int] = {}

    def faults_for(self, policy: FaultPolicy) -> int:
        """Injections attributed to one policy of a multi-policy world
        (chaos tests pin recovery telemetry against these)."""
        return self._per_policy.get(id(policy), 0)

    def handle(self, rank: int) -> "FaultyHandle":
        return FaultyHandle(self, self._inner.handle(rank))

    def collect_telemetry(self) -> dict[int, dict]:
        return self._inner.collect_telemetry()

    def kill_rank(self, rank: int) -> None:
        """Declare ``rank`` dead: its future sends are swallowed and its
        probes raise (the in-process analogue of SIGKILL)."""
        with self._lock:
            self.dead_ranks.add(rank)

    def is_dead(self, rank: int) -> bool:
        return rank in self.dead_ranks

    def _apply(self, target: int, msg: Message,
               deliver: Callable[[int, Message], None]) -> None:
        with self._lock:
            if msg.source in self.dead_ranks:
                # a dead rank's messages never reach the network
                return
            pol = None
            count = self.delivery_count
            self.delivery_count += 1
            for p in self.policies:
                if p.max_faults is not None and \
                        self._per_policy.get(id(p), 0) >= p.max_faults:
                    continue
                if p.selector(msg, count):
                    pol = p
                    break
            if pol is None:
                faulted = False
            else:
                faulted = True
                self.faults_injected += 1
                self.faults_by_tag[msg.tag] = \
                    self.faults_by_tag.get(msg.tag, 0) + 1
                self._per_policy[id(pol)] = \
                    self._per_policy.get(id(pol), 0) + 1
                if pol.action == "kill_rank":
                    self.dead_ranks.add(msg.source)
                if pol.action == "hang":
                    self.held.append((target, msg))
        if not faulted:
            deliver(target, msg)
            return
        action = pol.action
        if action in ("drop", "hang", "kill_rank"):
            return  # never delivered
        if action == "duplicate":
            deliver(target, msg)
            deliver(target, msg)
            return
        if action == "truncate":
            deliver(target, Message(source=msg.source, tag=msg.tag,
                                    data=msg.data[:-1],
                                    sent_unix=msg.sent_unix))
            return
        if action == "retag":
            deliver(target, Message(source=msg.source,
                                    tag=pol.retag_to,
                                    data=msg.data,
                                    sent_unix=msg.sent_unix))
            return
        if action == "delay":
            timer = threading.Timer(
                pol.delay_seconds, deliver, args=(target, msg)
            )
            timer.daemon = True
            timer.start()
            return
        if action == "corrupt_payload":
            deliver(target, Message(source=msg.source, tag=msg.tag,
                                    data=_garble(msg.data),
                                    sent_unix=msg.sent_unix))


def _garble(data: np.ndarray) -> np.ndarray:
    """Deterministically corrupt a payload: reverse and shift so every
    slot (including the integer-valued identity fields a validator
    checks) becomes wrong, while staying finite."""
    return data[::-1] * 1.000976563 + 7.7


class FaultyHandle(MessagePassing):
    def __init__(self, world: FaultyWorld, inner: MessagePassing) -> None:
        super().__init__(inner.mytid, world.nproc, inner.mastid)
        self._world = world
        self._inner = inner

    def initpass(self):
        self._inner.initpass()
        return super().initpass()

    def endpass(self) -> None:
        self._inner.endpass()
        super().endpass()

    def _check_alive(self) -> None:
        if self._world.is_dead(self._rank):
            raise MessagePassingError(
                f"rank {self._rank} was killed by fault injection"
            )

    def _deliver(self, target: int, msg: Message) -> None:
        self._check_alive()
        self._world._apply(target, msg, self._inner._deliver)

    def _probe(self, tag, source) -> Message:
        self._check_alive()
        return self._inner._probe(tag, source)

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        self._check_alive()
        return self._inner._probe_deadline(tag, source, timeout)

    def _consume(self, tag, source) -> Message:
        self._check_alive()
        return self._inner._consume(tag, source)

    def publish_telemetry(self, payload: dict) -> None:
        self._inner.publish_telemetry(payload)
