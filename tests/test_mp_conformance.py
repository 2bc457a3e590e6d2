"""Cross-backend conformance: one protocol, four transports.

Every mp backend — serial loopback, in-process thread mailboxes,
forked processes on pipes, and TCP sockets — implements the same 8-routine
PLINGER wrapper.  Conformance means more than "each one works": the
*books must match*.  The same exchange must produce identical traffic
accounting (message counts, byte counts, per-tag breakdowns) on every
transport, and a PLINGER spectrum must come out bitwise identical to
the serial reference no matter which wire carried it.  Any divergence
is a transport leaking into the physics or into the paper's
message-economics table.
"""

import threading

import numpy as np
import pytest

from repro.linger.kgrid import KGrid
from repro.linger.serial import LingerConfig, run_linger
from repro.mp import available_backends, get_backend
from repro.mp.api import MessagePassing
from repro.plinger import run_plinger
from repro.plinger.tags import Tag
from repro.spectra import cl_from_hierarchy
from repro.telemetry import Telemetry

#: Multi-rank backends (serial is the 1-rank degenerate case).
MP_BACKENDS = ("inprocess", "procs", "sockets")

WRAPPER_ROUTINES = (
    "initpass", "endpass", "mysendreal", "mybcastreal",
    "mycheckany", "mycheckone", "mychecktid", "myrecvreal",
)


def _world(backend: str, nproc: int = 3):
    return get_backend(backend, 1 if backend == "serial" else nproc)


# -- the shared exchange -----------------------------------------------------
#
# Module-level entry so fork-based backends can host it: receive the
# 5-real INIT broadcast, echo it doubled as a HEADER, wait for STOP,
# publish a telemetry blob carrying the rank's own traffic books.

def _echo_entry(mp):
    mp.initpass()
    mp.mycheckone(Tag.INIT, 0)
    data = mp.myrecvreal(5, Tag.INIT, 0)
    mp.mysendreal(data * 2.0, Tag.HEADER, 0)
    mp.mycheckone(Tag.STOP, 0)
    mp.myrecvreal(1, Tag.STOP, 0)
    mp.publish_telemetry({"rank": mp.mytid,
                          "traffic": mp.stats.as_dict()})
    mp.endpass()


def _run_exchange(backend: str, nproc: int = 3):
    """Drive the bcast/echo/stop exchange; return the master's books,
    the replies, and the collected telemetry."""
    world = _world(backend, nproc)
    threads = []
    if backend == "inprocess":
        threads = [threading.Thread(target=_echo_entry,
                                    args=(world.handle(r),))
                   for r in range(1, nproc)]
        for t in threads:
            t.start()
    else:
        world.launch(_echo_entry)
    mp0 = world.handle(0)
    mp0.initpass()
    mp0.mybcastreal(np.arange(5.0), Tag.INIT)
    replies = {}
    for _ in range(nproc - 1):
        tag, src = mp0.mycheckany()
        assert tag == Tag.HEADER
        assert mp0.mychecktid(src) == Tag.HEADER
        replies[src] = mp0.myrecvreal(5, Tag.HEADER, src)
    mp0.mybcastreal(np.zeros(1), Tag.STOP)
    for t in threads:
        t.join(30.0)
    if not threads:
        world.join(30.0)
    telemetry = world.collect_telemetry()
    mp0.endpass()
    return mp0.stats, replies, telemetry


# -- registry contract -------------------------------------------------------

class TestRegistryContract:
    def test_every_advertised_backend_constructs(self):
        for name in available_backends():
            world = _world(name)
            assert world.nproc >= 1

    def test_every_handle_speaks_the_wrapper_api(self):
        for name in available_backends():
            mp = _world(name).handle(0)
            for routine in WRAPPER_ROUTINES:
                assert callable(getattr(mp, routine)), (name, routine)

    def test_initpass_identity_conforms(self):
        for name in available_backends():
            mp = _world(name).handle(0)
            assert mp.initpass() == (0, 0), name
            assert (mp.mytid, mp.mastid) == (0, 0), name


# -- loopback: the one exchange every backend supports -----------------------

class TestLoopbackConformance:
    @pytest.mark.parametrize("backend",
                             ("serial",) + MP_BACKENDS)
    def test_self_exchange_books_identical(self, backend):
        mp = _world(backend).handle(0)
        mp.initpass()
        mp.mysendreal(np.arange(10.0), 5, 0)
        assert mp.mycheckany() == (5, 0)
        out = mp.myrecvreal(10, 5, 0)
        assert np.array_equal(out, np.arange(10.0))
        book = mp.stats.as_dict()
        # the identical books on every transport
        assert book["messages_sent"] == 1
        assert book["messages_received"] == 1
        assert book["bytes_sent"] == 80
        assert book["bytes_received"] == 80
        assert book["sent_by_tag"] == {"5": {"count": 1, "bytes": 80}}
        assert book["received_by_tag"] == {"5": {"count": 1, "bytes": 80}}


# -- multi-rank exchange: identical accounting and telemetry -----------------

class TestExchangeConformance:
    def test_books_replies_telemetry_identical_across_backends(self):
        books, all_replies, all_telemetry = {}, {}, {}
        for backend in MP_BACKENDS:
            stats, replies, telemetry = _run_exchange(backend)
            books[backend] = stats.as_dict()
            all_replies[backend] = replies
            all_telemetry[backend] = telemetry

        ref = books[MP_BACKENDS[0]]
        # 2 broadcasts x 2 workers sent; 2 echoes received
        assert ref["messages_sent"] == 4
        assert ref["messages_received"] == 2
        for backend in MP_BACKENDS[1:]:
            assert books[backend] == ref, backend

        for backend in MP_BACKENDS:
            replies = all_replies[backend]
            assert set(replies) == {1, 2}, backend
            for reply in replies.values():
                assert np.array_equal(reply, 2.0 * np.arange(5.0))

        for backend in MP_BACKENDS:
            telemetry = all_telemetry[backend]
            assert set(telemetry) == {1, 2}, backend
            for rank, blob in telemetry.items():
                assert blob["rank"] == rank
        # each worker's own books match across transports too
        ref_t = all_telemetry[MP_BACKENDS[0]]
        for backend in MP_BACKENDS[1:]:
            for rank in (1, 2):
                assert (all_telemetry[backend][rank]["traffic"]
                        == ref_t[rank]["traffic"]), (backend, rank)


# -- the physics: bitwise C_l and identical message economics ----------------

class TestPlingerConformance:
    @pytest.fixture(scope="class")
    def reference(self):
        kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
        config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4,
                              record_sources=False,
                              keep_mode_results=False)
        from repro.params import CosmologyParams
        params = CosmologyParams()
        serial = run_linger(params, kgrid, config)
        _l, cl_ref = cl_from_hierarchy(serial)
        return params, kgrid, config, cl_ref

    @pytest.mark.parametrize("backend", MP_BACKENDS)
    def test_cl_bitwise_and_message_count(self, reference, backend,
                                          monkeypatch):
        params, kgrid, config, cl_ref = reference
        broadcasts = []
        bcast = MessagePassing.mybcastreal

        def recording_bcast(mp, buffer, msgtype):
            broadcasts.append((int(msgtype), np.array(buffer)))
            bcast(mp, buffer, msgtype)

        # the master runs in this process on every backend
        monkeypatch.setattr(MessagePassing, "mybcastreal", recording_bcast)
        telemetry = Telemetry()
        result, stats = run_plinger(
            params, kgrid, config, nproc=3, backend=backend,
            telemetry=telemetry)
        _l, cl = cl_from_hierarchy(result)
        assert np.array_equal(cl, cl_ref), backend
        # message economics identical on every transport: one READY
        # per worker plus one HEADER + one
        # PAYLOAD per mode in; INIT and STOP per worker plus one WORK
        # per mode out
        assert stats.master_messages_received == 2 + 2 * kgrid.nk
        assert stats.master_messages_sent == 2 + kgrid.nk + 2
        assert stats.backend == backend
        # one broadcast, the paper's five reals, fifth slot 0
        (tag, init), = broadcasts
        assert tag == Tag.INIT
        assert init.tolist() == [kgrid.nk, kgrid.k[0], kgrid.k[-1], 0, 0]
        # and nothing but the paper's six tags on a clean run
        sent = telemetry.totals["messages_sent_by_tag"]
        assert set(sent) == {"INIT", "READY", "WORK", "HEADER", "PAYLOAD",
                             "STOP"}
        assert max(Tag[name] for name in sent) < Tag.HEARTBEAT
