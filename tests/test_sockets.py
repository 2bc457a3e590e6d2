"""The TCP-sockets backend: wire codec and elastic world.

Two layers, tested bottom-up:

* the **frame codec** — length-prefixed binary frames must round-trip
  every float64 payload bit-identically through arbitrary stream
  chunking, and must reject corruption (bad magic, unknown kind,
  oversized or ragged bodies) loudly rather than resynchronize;
* the **world** — real OS processes over real localhost TCP, including
  the elastic paths: a rank joining mid-run and a rank SIGKILLed
  mid-run, both finishing with the fault-free golden spectrum.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linger.kgrid import KGrid
from repro.linger.serial import LingerConfig, run_linger
from repro.mp.backends.sockets import (
    FRAME_MSG,
    FRAME_TELEMETRY,
    FrameDecoder,
    FrameError,
    MAGIC,
    SocketsWorld,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.mp.message import Message
from repro.params import CosmologyParams
from repro.plinger import run_plinger
from repro.plinger.tags import Tag
from repro.resilience import FaultTolerance
from repro.spectra import cl_from_hierarchy

#: Snappy fault tolerance for the elastic tests: SIGKILL detection must
#: land well inside the ~2 s of real integration work.
SNAPPY_FT = dict(worker_timeout=2.0, heartbeat_interval=0.25,
                 missed_heartbeats=4, poll_seconds=0.02,
                 payload_timeout=5.0, max_retries=10)


def _msg(data, source=1, tag=5, sent=123.25):
    return Message(source=source, tag=tag,
                   data=np.asarray(data, dtype=np.float64),
                   sent_unix=sent)


# -- frame codec -------------------------------------------------------------

class TestFrameCodec:
    def test_message_round_trip_bit_exact(self):
        vals = np.array([1.5, -0.0, np.nan, np.inf, -np.inf,
                         5e-324, 1.7976931348623157e308])
        frames = FrameDecoder().feed(encode_message(_msg(vals), target=0))
        (kind, body), = frames
        assert kind == FRAME_MSG
        out, target = decode_message(body)
        assert target == 0
        assert (out.source, out.tag, out.sent_unix) == (1, 5, 123.25)
        assert out.data.tobytes() == vals.tobytes()

    def test_zero_length_payload(self):
        (kind, body), = FrameDecoder().feed(
            encode_message(_msg([]), target=2))
        out, target = decode_message(body)
        assert (target, out.data.size) == (2, 0)

    def test_byte_at_a_time_reassembly(self):
        wire = encode_message(_msg(np.arange(16.0)), target=1)
        dec = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames += dec.feed(wire[i:i + 1])
        assert len(frames) == 1
        assert dec.pending_bytes == 0
        out, _ = decode_message(frames[0][1])
        assert np.array_equal(out.data, np.arange(16.0))

    def test_two_frames_one_feed(self):
        wire = (encode_frame(FRAME_TELEMETRY, b"\x00\x00\x00\x00")
                + encode_message(_msg([7.0]), target=1))
        kinds = [k for k, _ in FrameDecoder().feed(wire)]
        assert kinds == [FRAME_TELEMETRY, FRAME_MSG]

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_message(_msg([1.0]), target=0))
        wire[:4] = b"HTTP"
        with pytest.raises(FrameError):
            FrameDecoder().feed(bytes(wire))

    def test_unknown_kind_rejected_encoding_and_decoding(self):
        with pytest.raises(FrameError):
            encode_frame(99, b"")
        wire = bytearray(encode_frame(FRAME_MSG, b""))
        wire[4] = 99
        with pytest.raises(FrameError):
            FrameDecoder().feed(bytes(wire))

    def test_oversized_rejected_both_sides(self):
        with pytest.raises(FrameError):
            encode_frame(FRAME_MSG, b"x" * 65, max_bytes=64)
        # a peer ignoring our cap still cannot make us buffer the body
        wire = encode_frame(FRAME_MSG, b"x" * 65, max_bytes=1 << 20)
        with pytest.raises(FrameError):
            FrameDecoder(max_bytes=64).feed(wire)

    def test_exactly_max_passes(self):
        wire = encode_frame(FRAME_MSG, b"x" * 64, max_bytes=64)
        (kind, body), = FrameDecoder(max_bytes=64).feed(wire)
        assert len(body) == 64

    def test_truncated_msg_prefix_rejected(self):
        with pytest.raises(FrameError):
            decode_message(b"\x01\x02\x03")

    def test_ragged_payload_rejected(self):
        body = encode_message(_msg([1.0]), target=0)[9:]  # strip header
        with pytest.raises(FrameError):
            decode_message(body + b"\x00")  # 8k+1 payload bytes

    def test_incomplete_frame_stays_pending(self):
        wire = encode_message(_msg(np.arange(4.0)), target=0)
        dec = FrameDecoder()
        assert dec.feed(wire[:-1]) == []
        assert dec.pending_bytes == len(wire) - 1
        assert len(dec.feed(wire[-1:])) == 1


# -- codec properties (hypothesis) -------------------------------------------

finite_or_not = st.floats(width=64)  # anything float64, NaN/inf included


@pytest.mark.property
class TestCodecProperties:
    @given(
        payload=st.lists(finite_or_not, min_size=0, max_size=64),
        source=st.integers(0, 2**15),
        target=st.integers(0, 2**15),
        tag=st.integers(1, 64),
        sent=st.floats(min_value=0.0, max_value=2e9,
                       allow_nan=False, allow_infinity=False),
        chunk=st.integers(1, 37),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_payload_survives_chunked_round_trip(
            self, payload, source, target, tag, sent, chunk):
        msg = Message(source=source, tag=tag,
                      data=np.asarray(payload, dtype=np.float64),
                      sent_unix=sent)
        wire = encode_message(msg, target)
        dec = FrameDecoder()
        frames = []
        for i in range(0, len(wire), chunk):
            frames += dec.feed(wire[i:i + chunk])
        assert len(frames) == 1
        assert dec.pending_bytes == 0
        out, out_target = decode_message(frames[0][1])
        # bit-identical, not allclose: the wire must never perturb
        # physics values (NaN payload bits and signed zeros included)
        assert out.data.tobytes() == msg.data.tobytes()
        assert (out.source, out_target, out.tag) == (source, target, tag)
        assert out.sent_unix == sent

    @given(
        bodies=st.lists(st.binary(min_size=0, max_size=80),
                        min_size=1, max_size=6),
        chunk=st.integers(1, 23),
    )
    @settings(max_examples=150, deadline=None)
    def test_frame_stream_reassembles_regardless_of_chunking(
            self, bodies, chunk):
        wire = b"".join(encode_frame(FRAME_TELEMETRY, b) for b in bodies)
        dec = FrameDecoder()
        frames = []
        for i in range(0, len(wire), chunk):
            frames += dec.feed(wire[i:i + chunk])
        assert [b for _, b in frames] == bodies
        assert dec.pending_bytes == 0


# -- the world: real processes over real TCP ---------------------------------

def _echo_worker(mp):
    mp.initpass()
    mp.mycheckone(Tag.INIT, 0)
    data = mp.myrecvreal(3, Tag.INIT, 0)
    mp.mysendreal(data * mp.mytid, Tag.HEADER, 0)
    mp.publish_telemetry({"rank": mp.mytid, "pid": os.getpid()})
    mp.mycheckone(Tag.STOP, 0)
    mp.myrecvreal(1, Tag.STOP, 0)
    mp.endpass()


class TestSocketsWorld:
    def test_exchange_over_real_processes(self):
        world = SocketsWorld(3)
        world.launch(_echo_worker)
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mybcastreal(np.array([1.0, 2.0, 3.0]), Tag.INIT)
        got = {}
        for _ in range(2):
            tag, src = mp0.mycheckany()
            assert tag == Tag.HEADER
            got[src] = mp0.myrecvreal(3, Tag.HEADER, src)
        mp0.mybcastreal(np.zeros(1), Tag.STOP)
        world.join(30.0)
        assert np.array_equal(got[1], [1.0, 2.0, 3.0])
        assert np.array_equal(got[2], [2.0, 4.0, 6.0])
        # genuinely multi-process: two distinct non-master pids, both
        # reported identically by the HELLO handshake and telemetry
        tele = world.collect_telemetry()
        pids = {tele[r]["pid"] for r in (1, 2)}
        assert len(pids) == 2 and os.getpid() not in pids
        assert world.rank_pids[1] == tele[1]["pid"]
        # bytes genuinely crossed the TCP wire, frame overhead included
        stats = world.wire_stats()
        assert all(s["sent"] > 0 and s["received"] > 0
                   for s in stats.values())

    def test_send_to_unknown_rank_swallowed_not_fatal(self):
        world = SocketsWorld(2)
        try:
            world.route(7, Message.make(0, Tag.WORK, np.zeros(1)))
            assert world.dropped_sends == 1
        finally:
            world.close()


class TestSocketsElasticPhysics:
    """Join and kill mid-run; both must land on the fault-free golden."""

    @pytest.fixture(scope="class")
    def golden(self):
        params = CosmologyParams()
        kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
        # 2000 multipoles on purpose, and a tight rtol: a join or a
        # SIGKILL can only land "mid-run" if the run outlasts the 0.3 s
        # head start plus a fork and a handshake, and the compiled step
        # loop finishes a small hierarchy in a few milliseconds a mode
        config = LingerConfig(lmax_photon=2000, lmax_nu=2000, rtol=1e-5,
                              record_sources=False,
                              keep_mode_results=False)
        serial = run_linger(params, kgrid, config)
        _l, cl_ref = cl_from_hierarchy(serial)
        return params, kgrid, config, cl_ref

    def test_mid_run_join(self, golden):
        params, kgrid, config, cl_ref = golden
        world = SocketsWorld(2)

        def late_joiner():
            # "mid-run" means after the master has opened its books: a
            # newcomer that connects while the world is still assembling
            # is seated as a founder and never counted as joined
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if [r for r in world.rank_pids if r != 0]:
                    time.sleep(0.3)  # let the run get under way
                    world.spawn_extra_worker()
                    return
                time.sleep(0.02)

        t = threading.Thread(target=late_joiner, daemon=True)
        t.start()
        result, stats = run_plinger(
            params, kgrid, config, nproc=2, backend="sockets",
            world=world, fault_tolerance=FaultTolerance(**SNAPPY_FT))
        t.join(30.0)
        fr = stats.fault_report
        assert fr is not None and fr.ranks_joined >= 1
        _l, cl = cl_from_hierarchy(result)
        assert np.array_equal(cl, cl_ref)

    def test_sigkill_recovery(self, golden):
        params, kgrid, config, cl_ref = golden

        # The kill must land while the run is still in flight; on a
        # loaded box a fixed sleep races both worker startup and run
        # completion, so the killer waits for a *connected* victim and
        # the whole leg retries if the run still finished fault-free.
        for attempt in range(3):
            world = SocketsWorld(3)

            def killer():
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    ranks = [r for r in world.rank_pids if r != 0]
                    if len(ranks) == 2:
                        time.sleep(0.3)  # let the run get under way
                        try:
                            os.kill(world.child_pid(max(ranks)),
                                    signal.SIGKILL)
                        except (KeyError, ProcessLookupError):
                            pass
                        return
                    time.sleep(0.02)

            t = threading.Thread(target=killer, daemon=True)
            t.start()
            result, stats = run_plinger(
                params, kgrid, config, nproc=3, backend="sockets",
                world=world, fault_tolerance=FaultTolerance(**SNAPPY_FT))
            t.join(30.0)
            # faulted or not, the spectrum must match the serial run
            _l, cl = cl_from_hierarchy(result)
            assert np.array_equal(cl, cl_ref)
            fr = stats.fault_report
            if fr is not None and len(fr.dead_workers) > 0:
                break
        else:
            pytest.fail("SIGKILL never produced a quarantined rank "
                        "in 3 attempts")
