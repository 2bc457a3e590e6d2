"""Message-accounting conservation laws.

Every protocol message a worker sends is received by the master (and
vice versa), so the per-tag counters kept by :class:`TrafficStats` on
each side must balance exactly.  This is checked as a property over
grid size and worker count on the in-process backend, once on the
forked-process backend (where the worker-side counters travel home over
the out-of-band telemetry channel), and under fault injection — where a
duplicated delivery (the transport-level picture of a retry) must show
up in the books as exactly one surplus message, never silently vanish.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import KGrid
from repro.mp.backends.faulty import FaultPolicy, FaultyWorld
from repro.mp.backends.inprocess import InProcessWorld
from repro.mp.backends.procs import ProcsWorld
from repro.plinger import Tag, master_subroutine, worker_subroutine
from tests.test_plinger import fake_compute

ALL_TAGS = [int(t) for t in Tag]


def _counts(traffic: dict, direction: str) -> dict[int, int]:
    """{tag: count} from a TrafficStats.as_dict() section."""
    return {int(t): v["count"] for t, v in traffic[direction].items()}


def _bytes(traffic: dict, direction: str) -> dict[int, int]:
    return {int(t): v["bytes"] for t, v in traffic[direction].items()}


def _sum_over_workers(blobs: dict, direction: str) -> dict[int, int]:
    total: dict[int, int] = {}
    for payload in blobs.values():
        for tag, n in _counts(payload["traffic"], direction).items():
            total[tag] = total.get(tag, 0) + n
    return total


def _run_exchange(world, nk: int):
    """Drive the PLINGER protocol with fake work over ``world`` using
    threads; workers publish their traffic counters out of band."""
    kgrid = KGrid.from_k(0.01 * np.arange(1, nk + 1))

    def worker(rank):
        mp = world.handle(rank)
        mp.initpass()
        try:
            worker_subroutine(
                mp, fake_compute)
        finally:
            mp.publish_telemetry({"traffic": mp.stats.as_dict()})
            mp.endpass()

    threads = [threading.Thread(target=worker, args=(r,), daemon=True)
               for r in range(1, world.nproc)]
    for t in threads:
        t.start()
    mp0 = world.handle(0)
    mp0.initpass()
    log = master_subroutine(mp0, kgrid)
    for t in threads:
        t.join(20.0)
        assert not t.is_alive()
    return mp0.stats.as_dict(), world.collect_telemetry(), log


class TestInProcessConservation:
    @settings(max_examples=10, deadline=None)
    @given(nk=st.integers(1, 8), nworkers=st.integers(1, 3))
    def test_per_tag_counts_balance(self, nk, nworkers):
        world = InProcessWorld(nworkers + 1)
        master, blobs, _ = _run_exchange(world, nk)

        assert set(blobs) == set(range(1, nworkers + 1))
        # what the master received is exactly what the workers sent ...
        assert _counts(master, "received_by_tag") == \
            _sum_over_workers(blobs, "sent_by_tag")
        # ... and what the workers received is what the master sent
        assert _counts(master, "sent_by_tag") == \
            _sum_over_workers(blobs, "received_by_tag")
        # nothing in flight at exit
        assert all(not box for box in world._mailboxes)

    @settings(max_examples=10, deadline=None)
    @given(nk=st.integers(1, 8), nworkers=st.integers(1, 3))
    def test_bytes_balance_and_protocol_shape(self, nk, nworkers):
        world = InProcessWorld(nworkers + 1)
        master, blobs, _ = _run_exchange(world, nk)

        assert _bytes(master, "received_by_tag") == {
            tag: sum(_bytes(p["traffic"], "sent_by_tag").get(tag, 0)
                     for p in blobs.values())
            for tag in _bytes(master, "received_by_tag")
        }
        recv = _counts(master, "received_by_tag")
        sent = _counts(master, "sent_by_tag")
        assert recv[Tag.READY] == nworkers
        assert recv[Tag.HEADER] == recv[Tag.PAYLOAD] == nk
        assert sent[Tag.INIT] == nworkers
        assert sent[Tag.WORK] == nk
        assert sent[Tag.STOP] == nworkers


class TestProcsConservation:
    def test_per_tag_counts_balance_across_fork(self):
        """Same law when workers are forked processes: their counters
        ride the telemetry side channel, which itself must not appear
        in any traffic count."""
        nk, nproc = 5, 3
        world = ProcsWorld(nproc, timeout=60.0)
        kgrid = KGrid.from_k(0.01 * np.arange(1, nk + 1))
        world.launch(_procs_worker_entry)
        mp0 = world.handle(0)
        mp0.initpass()
        master_subroutine(mp0, kgrid)
        world.join(60.0)
        blobs = world.collect_telemetry()
        master = mp0.stats.as_dict()

        assert set(blobs) == {1, 2}
        assert _counts(master, "received_by_tag") == \
            _sum_over_workers(blobs, "sent_by_tag")
        assert _counts(master, "sent_by_tag") == \
            _sum_over_workers(blobs, "received_by_tag")
        # the side channel added nothing to the protocol totals
        assert master["messages_sent"] == (nproc - 1) + nk + (nproc - 1)
        assert master["messages_received"] == (nproc - 1) + 2 * nk

    def test_thread_hosted_ranks_keep_the_books(self):
        """A procs world that is never launched (FaultyWorld has no
        ``launch``) hosts its ranks as threads over the same pipes."""
        nk = 5
        world = FaultyWorld(ProcsWorld(3, timeout=60.0),
                            FaultPolicy(selector=lambda m, c: False))
        master, blobs, log = _run_exchange(world, nk)

        assert set(blobs) == {1, 2}
        assert _counts(master, "received_by_tag") == \
            _sum_over_workers(blobs, "sent_by_tag")
        assert _counts(master, "sent_by_tag") == \
            _sum_over_workers(blobs, "received_by_tag")
        assert sorted(h.ik for h in log.headers) == list(range(1, nk + 1))


class TestFaultyConservation:
    """A duplicated delivery (a transport retry) keeps the books exact:
    the surplus message appears on the receive side or as a pending
    leftover, and its count equals ``faults_injected`` — it can never
    disappear from the accounting."""

    @settings(max_examples=6, deadline=None)
    @given(nk=st.integers(1, 6))
    def test_duplicated_ready_is_fully_accounted(self, nk):
        inner = InProcessWorld(2)
        world = FaultyWorld(inner, FaultPolicy(
            selector=lambda m, c: m.tag == Tag.READY, action="duplicate"))
        master, blobs, log = _run_exchange(world, nk)

        assert world.faults_injected == 1
        assert world.faults_by_tag == {int(Tag.READY): 1}
        w_sent = _counts(blobs[1]["traffic"], "sent_by_tag")
        w_recv = _counts(blobs[1]["traffic"], "received_by_tag")
        m_sent = _counts(master, "sent_by_tag")
        m_recv = _counts(master, "received_by_tag")

        # the worker sent one READY; the master consumed both copies
        assert w_sent[Tag.READY] == 1
        assert m_recv[Tag.READY] == w_sent[Tag.READY] + 1
        # results are untouched by the fault
        assert m_recv[Tag.HEADER] == w_sent[Tag.HEADER] == nk
        assert m_recv[Tag.PAYLOAD] == w_sent[Tag.PAYLOAD] == nk
        # the extra READY earned the master one extra reply; the worker
        # had already stopped, so it sits unconsumed in its mailbox
        assert m_sent[Tag.WORK] == w_recv[Tag.WORK] == nk
        assert m_sent[Tag.STOP] == w_recv[Tag.STOP] + 1
        leftover = [m.tag for m in inner._mailboxes[1]]
        assert leftover == [Tag.STOP]
        # all modes still computed exactly once
        assert sorted(h.ik for h in log.headers) == list(range(1, nk + 1))


def _procs_worker_entry(mp):
    mp.initpass()
    worker_subroutine(mp, fake_compute)
    mp.publish_telemetry({"traffic": mp.stats.as_dict()})
    mp.endpass()
