"""The message-passing wrapper API and its backends."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import MessagePassingError
from repro.mp import Message, available_backends, get_backend
from repro.mp.backends.inprocess import InProcessWorld
from repro.mp.backends.procs import ProcsWorld
from repro.mp.backends.serial import SerialWorld


class TestMessage:
    def test_payload_copied_on_make(self):
        buf = np.array([1.0, 2.0])
        msg = Message.make(0, 3, buf)
        buf[0] = 99.0
        assert msg.data[0] == 1.0

    def test_nbytes_eight_per_real(self):
        assert Message.make(0, 1, np.zeros(21)).nbytes == 168

    def test_flattens(self):
        msg = Message.make(0, 1, np.zeros((2, 3)))
        assert msg.length == 6


class TestBackendRegistry:
    def test_available(self):
        assert set(available_backends()) == {
            "serial", "inprocess", "procs", "sockets",
        }

    def test_unknown_rejected(self):
        with pytest.raises(MessagePassingError):
            get_backend("mpi", 4)

    def test_serial_requires_one_rank(self):
        with pytest.raises(MessagePassingError):
            SerialWorld(2)


class TestSerialLoopback:
    def test_self_send_receive(self):
        mp = SerialWorld().handle(0)
        mp.initpass()
        mp.mysendreal(np.array([1.0, 2.0]), 5, 0)
        tag, src = mp.mycheckany()
        assert (tag, src) == (5, 0)
        out = mp.myrecvreal(2, 5, 0)
        assert np.allclose(out, [1.0, 2.0])

    def test_probe_empty_raises_not_deadlocks(self):
        mp = SerialWorld().handle(0)
        mp.initpass()
        with pytest.raises(MessagePassingError):
            mp.mycheckany()

    def test_uninitialized_rejected(self):
        mp = SerialWorld().handle(0)
        with pytest.raises(MessagePassingError):
            mp.mysendreal(np.zeros(1), 1, 0)

    def test_length_mismatch_rejected(self):
        mp = SerialWorld().handle(0)
        mp.initpass()
        mp.mysendreal(np.zeros(3), 1, 0)
        with pytest.raises(MessagePassingError):
            mp.myrecvreal(4, 1, 0)

    def test_stats_counted(self):
        mp = SerialWorld().handle(0)
        mp.initpass()
        mp.mysendreal(np.zeros(10), 1, 0)
        mp.myrecvreal(10, 1, 0)
        assert mp.stats.messages_sent == 1
        assert mp.stats.bytes_sent == 80
        assert mp.stats.bytes_received == 80


class TestInProcess:
    def test_ping_pong_between_threads(self):
        world = InProcessWorld(2)
        results = {}

        def worker():
            mp = world.handle(1)
            mp.initpass()
            mp.mycheckone(7, 0)
            data = mp.myrecvreal(3, 7, 0)
            mp.mysendreal(data * 2, 8, 0)
            mp.endpass()

        t = threading.Thread(target=worker)
        t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mysendreal(np.array([1.0, 2.0, 3.0]), 7, 1)
        tag = mp0.mychecktid(1)
        assert tag == 8
        results["reply"] = mp0.myrecvreal(3, 8, 1)
        t.join(10.0)
        assert np.allclose(results["reply"], [2.0, 4.0, 6.0])

    def test_broadcast_reaches_all_workers(self):
        world = InProcessWorld(4)
        got = {}
        barrier = threading.Barrier(4)

        def worker(rank):
            mp = world.handle(rank)
            mp.initpass()
            mp.mycheckone(1, 0)
            got[rank] = mp.myrecvreal(5, 1, 0)
            barrier.wait(10.0)

        threads = [threading.Thread(target=worker, args=(r,))
                   for r in range(1, 4)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mybcastreal(np.arange(5.0), 1)
        barrier.wait(10.0)
        for t in threads:
            t.join(10.0)
        assert set(got) == {1, 2, 3}
        for v in got.values():
            assert np.allclose(v, np.arange(5.0))
        # broadcast = nproc-1 sends
        assert mp0.stats.messages_sent == 3

    def test_fifo_within_matching_subset(self):
        world = InProcessWorld(2)
        mp0 = world.handle(0)
        mp1 = world.handle(1)
        mp0.initpass()
        mp1.initpass()
        mp1.mysendreal(np.array([1.0]), 4, 0)
        mp1.mysendreal(np.array([2.0]), 4, 0)
        first = mp0.myrecvreal(1, 4, 1)
        second = mp0.myrecvreal(1, 4, 1)
        assert first[0] == 1.0 and second[0] == 2.0

    def test_probe_does_not_consume(self):
        world = InProcessWorld(2)
        mp0, mp1 = world.handle(0), world.handle(1)
        mp0.initpass(); mp1.initpass()
        mp1.mysendreal(np.array([5.0]), 9, 0)
        assert mp0.mycheckany() == (9, 1)
        assert mp0.mycheckany() == (9, 1)  # still there
        assert mp0.myrecvreal(1, 9, 1)[0] == 5.0

    def test_invalid_target_rejected(self):
        world = InProcessWorld(2)
        mp0 = world.handle(0)
        mp0.initpass()
        with pytest.raises(MessagePassingError):
            mp0.mysendreal(np.zeros(1), 1, 5)


class TestProcs:
    def test_ping_pong_across_processes(self):
        world = ProcsWorld(2, timeout=30.0)

        def worker(mp):
            mp.initpass()
            mp.mycheckone(7, 0)
            data = mp.myrecvreal(4, 7, 0)
            mp.mysendreal(data[::-1], 8, 0)
            mp.endpass()

        world.launch(worker)
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mysendreal(np.array([1.0, 2.0, 3.0, 4.0]), 7, 1)
        mp0.mycheckone(8, 1)
        reply = mp0.myrecvreal(4, 8, 1)
        world.join(30.0)
        assert np.allclose(reply, [4.0, 3.0, 2.0, 1.0])

    def test_multiple_workers_tagged_routing(self):
        world = ProcsWorld(3, timeout=30.0)

        def worker(mp):
            mp.initpass()
            mp.mycheckone(1, 0)
            data = mp.myrecvreal(1, 1, 0)
            mp.mysendreal(np.array([data[0] * mp.mytid]), 2, 0)
            mp.endpass()

        world.launch(worker)
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mybcastreal(np.array([10.0]), 1)
        got = {}
        for _ in range(2):
            tag, src = mp0.mycheckany()
            got[src] = mp0.myrecvreal(1, 2, src)[0]
        world.join(30.0)
        assert got == {1: 10.0, 2: 20.0}

    def test_a_large_telemetry_blob_does_not_hold_up_join(self):
        """A child's blob far past the pipe buffer is drained while
        ``join`` waits, not after it."""
        blob = {"x": "y" * 300_000}
        world = ProcsWorld(2, timeout=30.0)
        world.launch(lambda mp: mp.publish_telemetry(blob))
        t0 = time.monotonic()
        world.join(5.0)
        assert time.monotonic() - t0 < 2.0
        assert world.collect_telemetry() == {1: blob}

    def test_join_keeps_one_deadline_for_all_ranks(self):
        """Three ranks that never exit cost one timeout, not three."""
        for strict in (False, True):
            world = ProcsWorld(4, timeout=30.0)
            world.launch(lambda mp: time.sleep(60.0))
            t0 = time.monotonic()
            if strict:
                with pytest.raises(MessagePassingError, match="3 worker"):
                    world.join(0.5)
            else:
                world.join(0.5, strict=False)
            assert time.monotonic() - t0 < 1.5

    def test_join_leaves_no_descriptor_and_no_child(self):
        before = len(os.listdir("/proc/self/fd"))
        world = ProcsWorld(3, timeout=30.0)

        def worker(mp):
            mp.initpass()
            mp.mysendreal(np.arange(3.0), 2, 0)
            mp.endpass()

        world.launch(worker)
        pids = [world.child_pid(rank) for rank in (1, 2)]
        mp0 = world.handle(0)
        mp0.initpass()
        for rank in (1, 2):
            mp0.myrecvreal(3, 2, rank)
        world.join(30.0)
        assert len(os.listdir("/proc/self/fd")) == before
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_a_probe_on_a_gone_sender_ends_at_once(self):
        """EOF on the master's pipe ends a worker's wait on the master
        now, not at the world's timeout: no worker outlives its master
        by long."""
        world = ProcsWorld(2, timeout=30.0)

        def worker(mp):
            mp.initpass()
            try:
                mp.mycheckone(9, 0)
            except MessagePassingError as exc:
                mp.publish_telemetry({"error": str(exc)})

        world.launch(worker)
        # close the master's only copy of its write end, as its death would
        os.close(world._write_ends.pop((0, 1)))
        t0 = time.monotonic()
        world.join(5.0)
        assert time.monotonic() - t0 < 2.0
        assert "sender is gone" in world.collect_telemetry()[1]["error"]

    def test_sends_to_a_killed_rank_are_dropped(self):
        world = ProcsWorld(2, timeout=30.0)

        def worker(mp):
            mp.initpass()
            mp.mycheckone(9, 0)

        world.launch(worker)
        os.kill(world.child_pid(1), signal.SIGKILL)
        mp0 = world.handle(0)
        mp0.initpass()

        def flood():
            # 80 x 8000 bytes: past any pipe buffer
            for _ in range(80):
                mp0.mysendreal(np.zeros(1000), 1, 1)

        sender = threading.Thread(target=flood, daemon=True)
        sender.start()
        sender.join(10.0)
        assert not sender.is_alive()
        assert mp0.stats.messages_sent == 80
        world.join(10.0)
