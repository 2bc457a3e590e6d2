"""The TCP-sockets backend: wire codec and a world fixed at launch.

Two layers, tested bottom-up:

* the **frame codec** — length-prefixed binary frames must round-trip
  every float64 payload bit-identically through arbitrary stream
  chunking, and must reject corruption (bad magic, unknown kind,
  oversized or ragged bodies) loudly rather than resynchronize;
* the **world** — real OS processes over real localhost TCP: a
  stranger dialing a full world and a malformed WELCOME are refused,
  and a rank SIGKILLed mid-run or one whose frame claims another
  rank's name is dropped, the run finishing with the fault-free
  golden spectrum.
"""

import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MessagePassingError
from repro.linger.kgrid import KGrid
from repro.linger.serial import LingerConfig, build_tables, run_linger
from repro.mp.backends.sockets import (
    FRAME_HELLO,
    FRAME_MSG,
    FRAME_TELEMETRY,
    FRAME_WELCOME,
    FrameDecoder,
    FrameError,
    MAGIC,
    PROTOCOL_VERSION,
    SocketsWorld,
    connect_worker,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.mp.message import Message
from repro.params import CosmologyParams
from repro.plinger import run_plinger
from repro.plinger.driver import _worker_entry
from repro.plinger.tags import Tag
from repro.resilience import FaultTolerance
from repro.spectra import cl_from_hierarchy

#: Snappy fault tolerance for the lost-rank tests: SIGKILL detection
#: must land well inside the ~2 s of real integration work.
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

    def test_a_stranger_is_refused(self):
        """A world's ranks are fixed at launch: once its complement is
        seated, a HELLO gets a closed connection, not a rank."""
        world = SocketsWorld(2, spawn_workers=False)
        seated = connect_worker(*world.address)
        try:
            assert (seated.mytid, seated.nproc) == (1, 2)
            with pytest.raises(MessagePassingError):
                connect_worker(*world.address, timeout=10.0)
            assert world.nproc == 2
            assert sorted(world.rank_pids) == [1]
        finally:
            seated.close()
            world.close()

    @pytest.mark.parametrize("body", [
        b"\x01\x00\x00\x00",                # wrong size
        struct.pack("<iii", 2, 2, 0),       # rank outside 1 .. nproc-1
        struct.pack("<iii", 1, 2, 1),       # a master other than rank 0
    ], ids=["short-body", "rank-out-of-range", "mastid"])
    def test_a_malformed_welcome_is_refused(self, body):
        """``connect_worker`` raises ``MessagePassingError`` on a WELCOME
        that does not seat it as a worker — never ``struct.error``, and
        never a handle."""
        listener = socket.create_server(("127.0.0.1", 0))

        def welcome():
            conn, _ = listener.accept()
            with conn:
                dec = FrameDecoder()
                frames = []
                while not frames:
                    frames = dec.feed(conn.recv(4096))
                assert frames[0][0] == FRAME_HELLO
                conn.sendall(encode_frame(FRAME_WELCOME, body))
                conn.recv(4096)  # until the worker hangs up

        t = threading.Thread(target=welcome, daemon=True)
        t.start()
        try:
            with pytest.raises(MessagePassingError):
                connect_worker(*listener.getsockname()[:2], timeout=10.0)
        finally:
            t.join(10.0)
            listener.close()


class TestSocketsFaultPhysics:
    """A rank lost mid-run, to SIGKILL or to a frame claiming another
    rank; either way the run lands on the fault-free golden."""

    @pytest.fixture(scope="class")
    def golden(self):
        params = CosmologyParams()
        kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
        # 2000 multipoles on purpose, and a tight rtol: a SIGKILL can
        # only land "mid-run" if the run outlasts the 0.3 s head start
        # plus a fork and a handshake, and the compiled step loop
        # finishes a small hierarchy in a few milliseconds a mode
        config = LingerConfig(lmax_photon=2000, lmax_nu=2000, rtol=1e-5,
                              record_sources=False,
                              keep_mode_results=False)
        serial = run_linger(params, kgrid, config)
        _l, cl_ref = cl_from_hierarchy(serial)
        return params, kgrid, config, cl_ref

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

    def test_a_frame_claiming_another_rank_is_refused(self, golden):
        """A seated peer whose READY claims to come from rank 7 loses
        its connection; the master quarantines the silent rank and the
        honest one computes the whole grid."""
        params, kgrid, config, cl_ref = golden
        bg, thermo = build_tables(params)
        world = SocketsWorld(3, spawn_workers=False)
        host, port = world.address

        def spoofer():
            sock = socket.create_connection((host, port), timeout=30.0)
            with sock:
                sock.sendall(encode_frame(FRAME_HELLO, struct.pack(
                    "<Ii", PROTOCOL_VERSION, os.getpid())))
                dec = FrameDecoder()
                frames = []
                # seated, then wait for the master's INIT: the run is
                # under way and the world complete
                while not any(kind == FRAME_MSG
                              and decode_message(body)[0].tag == Tag.INIT
                              for kind, body in frames):
                    data = sock.recv(4096)
                    if not data:
                        return
                    frames += dec.feed(data)
                forged = Message.make(7, Tag.READY, np.zeros(1))
                sock.sendall(encode_message(forged, target=0))
                while sock.recv(4096):  # until the hub hangs up
                    pass

        def honest():
            _worker_entry(connect_worker(host, port), bg, thermo, kgrid,
                          config, fault_tolerance=FaultTolerance(**SNAPPY_FT))

        t_spoof = threading.Thread(target=spoofer, daemon=True)
        t_spoof.start()
        while not world.rank_pids:
            time.sleep(0.01)
        t_honest = threading.Thread(target=honest, daemon=True)
        t_honest.start()
        try:
            result, stats = run_plinger(
                params, kgrid, config, nproc=3, backend="sockets",
                world=world, background=bg, thermo=thermo,
                fault_tolerance=FaultTolerance(**SNAPPY_FT))
        finally:
            world.close()
            t_spoof.join(30.0)
            t_honest.join(30.0)
        assert stats.fault_report.dead_workers == [1]
        _l, cl = cl_from_hierarchy(result)
        assert np.array_equal(cl, cl_ref)


# -- a world built for a run that cannot happen ------------------------------

def _listening():
    """This process's sockets worlds' accept threads, and its open
    sockets."""
    threads = sum(t.name == "sockets-accept" for t in threading.enumerate())
    fds = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return threads, fds


class TestNoWorldLeftBehind:
    """A run that fails after its world was built must not leave
    the listener and its accept thread up."""

    def test_a_failed_run_closes_the_world_it_built(self, scdm, bg_scdm,
                                                    thermo_scdm,
                                                    monkeypatch):
        def no_workers(self, entry, *args):
            raise MessagePassingError("only 0 of 2 sockets workers "
                                      "connected")

        monkeypatch.setattr(SocketsWorld, "launch", no_workers)
        before = _listening()
        config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-3,
                              record_sources=False, keep_mode_results=False)
        with pytest.raises(MessagePassingError, match="connected"):
            run_plinger(scdm, KGrid.from_k([1e-3, 2e-3]), config, nproc=3,
                        backend="sockets", background=bg_scdm,
                        thermo=thermo_scdm)
        deadline = time.monotonic() + 5.0
        while _listening() != before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _listening() == before
