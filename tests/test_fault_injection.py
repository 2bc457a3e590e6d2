"""Failure injection: the protocol must fail loudly, never silently.

A dropped, truncated, duplicated or mis-tagged message in a PLINGER run
must surface as a MessagePassingError / ProtocolError / timeout — not
as a quietly wrong spectrum.
"""

import threading

import numpy as np
import pytest

from repro import KGrid
from repro.errors import MessagePassingError, ProtocolError
from repro.mp.backends.faulty import FaultPolicy, FaultyWorld
from repro.mp.backends.inprocess import InProcessWorld
from repro.plinger import Tag, master_subroutine, worker_subroutine
from tests.test_plinger import fake_compute


def run_faulty(policy, nk=4, nproc=2, master_timeout=2.0):
    """Run a PLINGER exchange through a faulty world; returns
    (master_error, worker_errors, world)."""
    inner = InProcessWorld(nproc)
    # cap probe waits so dropped messages become timeouts, not hangs
    orig_find = inner.find
    inner.find = lambda *a, **kw: orig_find(
        *a, **{**kw, "timeout": master_timeout}
    )
    world = FaultyWorld(inner, policy)
    kgrid = KGrid.from_k(0.01 * np.arange(1, nk + 1))
    worker_errors = []

    def worker(rank):
        mp = world.handle(rank)
        mp.initpass()
        try:
            worker_subroutine(
                mp, lambda iks: [fake_compute(ik) for ik in iks])
        except (MessagePassingError, ProtocolError) as e:
            worker_errors.append(e)

    threads = [threading.Thread(target=worker, args=(r,), daemon=True)
               for r in range(1, nproc)]
    for t in threads:
        t.start()
    mp0 = world.handle(0)
    mp0.initpass()
    master_error = None
    try:
        master_subroutine(mp0, kgrid)
    except (MessagePassingError, ProtocolError) as e:
        master_error = e
    for t in threads:
        t.join(5.0)
    return master_error, worker_errors, world


class TestFaultPolicy:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(selector=lambda m, c: True, action="scramble")

    def test_no_faults_when_selector_never_fires(self):
        err, werrs, world = run_faulty(
            FaultPolicy(selector=lambda m, c: False, action="drop")
        )
        assert err is None and not werrs
        assert world.faults_injected == 0


class TestDrop:
    def test_dropped_result_times_out_master(self):
        policy = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.HEADER and c > 0,
            action="drop",
        )
        err, _, world = run_faulty(policy, master_timeout=0.5)
        assert world.faults_injected >= 1
        assert err is not None  # master probe timed out


class TestTruncate:
    def test_truncated_header_detected(self):
        policy = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.HEADER,
            action="truncate",
        )
        err, _, world = run_faulty(policy, master_timeout=1.0)
        assert world.faults_injected >= 1
        assert isinstance(err, (MessagePassingError, ProtocolError))


class TestRetag:
    def test_unknown_tag_raises_protocol_error(self):
        policy = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.READY,
            action="retag",
            retag_to=42,
        )
        err, _, world = run_faulty(policy, master_timeout=1.0)
        assert world.faults_injected >= 1
        assert err is not None


class TestDuplicate:
    def test_duplicated_ready_is_harmless_or_detected(self):
        """A duplicated ready-request earns a second reply; the worker
        left with an unconsumed message must not corrupt results —
        either everything completes (extra WORK absorbed as the
        worker's next assignment) or someone raises."""
        policy = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.READY,
            action="duplicate",
        )
        err, werrs, world = run_faulty(policy, nk=4, master_timeout=1.0)
        assert world.faults_injected >= 1
        # the run must terminate within the timeout either way (join
        # succeeded above); silence with missing modes is impossible
        # because the master counts completions before stopping.
