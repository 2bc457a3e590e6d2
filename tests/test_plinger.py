"""The PLINGER master/worker protocol, with fake and real work."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import KGrid, LingerConfig, ProtocolError
from repro.linger.records import HEADER_LENGTH, ModeHeader, ModePayload
from repro.mp.backends.inprocess import InProcessWorld
from repro.plinger import Tag, master_subroutine, run_plinger, worker_subroutine


def fake_compute(ik: int, lmax: int = 8):
    """A deterministic stand-in for the Boltzmann integration."""
    header = ModeHeader(
        ik=ik, k=0.01 * ik, tau_end=100.0, a_end=1.0, delta_c=-float(ik),
        delta_b=0.0, delta_g=0.0, delta_nu=0.0, delta_nu_massive=0.0,
        theta_b=0.0, theta_g=0.0, theta_nu=0.0, eta=0.0, hdot=0.0,
        etadot=0.0, phi=0.0, psi=0.0, delta_m=-float(ik), cpu_seconds=0.0,
        n_rhs=1.0, lmax=lmax,
    )
    payload = ModePayload(
        ik=ik, k=0.01 * ik, tau_end=100.0, a_end=1.0, amplitude=1.0,
        n_steps=1.0, f_gamma=np.full(lmax + 1, float(ik)),
        g_gamma=np.zeros(lmax + 1),
    )
    return header, payload


class TestTags:
    def test_paper_values(self):
        assert Tag.INIT == 1
        assert Tag.READY == 2
        assert Tag.WORK == 3
        assert Tag.HEADER == 4
        assert Tag.PAYLOAD == 5
        assert Tag.STOP == 6


class TestProtocolFakeWork:
    def run_world(self, nproc, nk, lmax_by_ik=None):
        world = InProcessWorld(nproc)
        kgrid = KGrid.from_k(0.01 * np.arange(1, nk + 1))
        logs = {}

        def worker(rank):
            mp = world.handle(rank)
            mp.initpass()
            logs[rank] = worker_subroutine(
                mp, lambda ik: fake_compute(
                    ik, lmax_by_ik(ik) if lmax_by_ik else 8))
            mp.endpass()

        threads = [threading.Thread(target=worker, args=(r,))
                   for r in range(1, nproc)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        master_log = master_subroutine(mp0, kgrid)
        for t in threads:
            t.join(20.0)
            assert not t.is_alive()
        return kgrid, master_log, logs, mp0

    def test_all_modes_completed_once(self):
        kgrid, log, worker_logs, _ = self.run_world(nproc=4, nk=11)
        assert sorted(h.ik for h in log.headers) == list(range(1, 12))
        assert sum(wl.modes_done for wl in worker_logs.values()) == 11

    def test_largest_k_dispatched_first(self):
        kgrid, log, _, _ = self.run_world(nproc=2, nk=7)
        # single worker -> dispatch order fully observable
        assert log.dispatched == [7, 6, 5, 4, 3, 2, 1]

    def test_all_workers_stopped(self):
        _, log, _, _ = self.run_world(nproc=5, nk=3)
        assert log.stops_sent == 4

    def test_more_workers_than_work(self):
        _, log, worker_logs, _ = self.run_world(nproc=6, nk=2)
        assert sorted(h.ik for h in log.headers) == [1, 2]
        assert log.stops_sent == 5

    def test_variable_message_lengths(self):
        """lmax (and so the tag-5 length) varies per mode, as in the
        paper where larger k needs more moments."""
        _, log, _, _ = self.run_world(
            nproc=3, nk=6, lmax_by_ik=lambda ik: 4 + 3 * ik
        )
        lengths = sorted(p.wire_length for p in log.payloads)
        assert lengths == sorted(2 * (4 + 3 * ik) + 8 for ik in range(1, 7))

    def test_init_broadcast_received(self):
        _, _, worker_logs, _ = self.run_world(nproc=3, nk=2)
        for wl in worker_logs.values():
            assert wl.init_data is not None and wl.init_data.size == 5

    def test_master_traffic_accounting(self):
        nk, nproc = 5, 3
        _, log, _, mp0 = self.run_world(nproc=nproc, nk=nk)
        # sent: (nproc-1) INIT + nk WORK + (nproc-1) STOP
        assert mp0.stats.messages_sent == (nproc - 1) + nk + (nproc - 1)
        # received: (nproc-1) READY + nk (HEADER + PAYLOAD)
        assert mp0.stats.messages_received == (nproc - 1) + 2 * nk


class TestWorkerErrors:
    def test_worker_rejects_bad_ik(self):
        """A WORK message that names no valid wavenumber is computed by
        nobody: the worker counts it and asks again, and its second
        READY says it is a re-send (1, where the first ask carries 0)."""
        world = InProcessWorld(2)
        mp0, mp1 = world.handle(0), world.handle(1)
        mp0.initpass()
        computed, logs = [], []

        def worker():
            mp1.initpass()
            logs.append(worker_subroutine(
                mp1, lambda ik: computed.append(ik) or fake_compute(ik)))

        t = threading.Thread(target=worker, daemon=True)
        t.start()
        mp0.mybcastreal(np.zeros(5), Tag.INIT)
        mp0.mycheckone(Tag.READY, 1)
        assert mp0.myrecvreal(1, Tag.READY, 1).tolist() == [0.0]
        mp0.mysendreal(np.array([-3.0]), Tag.WORK, 1)  # invalid ik
        mp0.mycheckone(Tag.READY, 1)
        assert mp0.myrecvreal(1, Tag.READY, 1).tolist() == [1.0]
        mp0.mysendreal(np.array([0.0]), Tag.STOP, 1)
        t.join(10.0)
        assert not t.is_alive() and not computed
        assert (logs[0].bad_work_messages, logs[0].ready_retries) == (1, 1)


class TestChunkCompute:
    """The one compute callable a worker takes, over a WORK stream that
    mixes multi-k messages — what a master re-sends when a rank lost
    its reply — and one-k messages, driven here by hand."""

    STREAM = [[5, 4], [3], [2, 1]]  # wavenumber indices, 1-based
    CONFIG = LingerConfig(lmax_photon=6, lmax_nu=6, rtol=1e-3,
                          record_sources=False, keep_mode_results=False)
    KGRID = KGrid.from_k(np.geomspace(2e-3, 0.04, 5))

    def run_stream(self, bg, thermo, config, telemetry=None):
        """The banked headers and payloads, in arrival order."""
        from repro.plinger.worker import mode_compute
        from repro.telemetry import NULL_TELEMETRY

        world = InProcessWorld(2)
        compute = mode_compute(
            bg, thermo, self.KGRID, config, telemetry or NULL_TELEMETRY)
        calls = []

        def worker():
            mp = world.handle(1)
            mp.initpass()
            worker_subroutine(mp, lambda ik: calls.append(ik) or compute(ik))
            mp.endpass()

        t = threading.Thread(target=worker, daemon=True)
        t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mybcastreal(np.zeros(5), Tag.INIT)
        mp0.mycheckone(Tag.READY, 1)
        mp0.myrecvraw(Tag.READY, 1)
        banked = []
        for iks in self.STREAM:
            mp0.mysendreal(np.array(iks, dtype=float), Tag.WORK, 1)
            for _ in iks:
                mp0.mycheckone(Tag.HEADER, 1)
                buf = mp0.myrecvraw(Tag.HEADER, 1)
                header = ModeHeader.unpack(buf[:HEADER_LENGTH])
                if buf.size > HEADER_LENGTH:
                    header = replace(header, retry_level=int(buf[-1]))
                mp0.mycheckone(Tag.PAYLOAD, 1)
                payload = ModePayload.unpack(mp0.myrecvraw(Tag.PAYLOAD, 1),
                                             header.lmax)
                banked.append((header, payload))
        mp0.mysendreal(np.zeros(1), Tag.STOP, 1)
        mp0.endpass()
        t.join(30.0)
        assert not t.is_alive()
        assert calls == [5, 4, 3, 2, 1]
        assert [h.ik for h, _ in banked] == [5, 4, 3, 2, 1]
        return banked

    @staticmethod
    def physics(banked):
        """Every wire field but cpu_seconds, by ik."""
        return {h.ik: (np.delete(h.pack(), 18).tobytes(), p.pack().tobytes())
                for h, p in banked}

    def test_one_callable_serves_one_k_and_multi_k_messages(
            self, bg_scdm, thermo_scdm):
        from repro.linger.serial import compute_mode

        banked = self.run_stream(bg_scdm, thermo_scdm, self.CONFIG)
        alone = {}
        for ik in range(1, 6):
            h, p, _ = compute_mode(bg_scdm, thermo_scdm,
                                   float(self.KGRID.k[ik - 1]), ik,
                                   self.CONFIG)
            alone[ik] = (np.delete(h.pack(), 18).tobytes(),
                         p.pack().tobytes())
        assert self.physics(banked) == alone

    def test_ladder_levels_reach_the_headers(self, bg_scdm, thermo_scdm):
        from repro.chaos import ChaosPolicy, active
        from repro.telemetry import Telemetry

        clean = self.run_stream(bg_scdm, thermo_scdm, self.CONFIG)
        assert {h.retry_level for h, _ in clean} == {0}

        # forced collapses, once each, of iks 5, 4 (sent together) and 3:
        # each mode recovers on its own transient retry, ladder level 0
        telemetry = Telemetry()
        with active(ChaosPolicy(integrator_faults=3)):
            banked = self.run_stream(bg_scdm, thermo_scdm, self.CONFIG,
                                     telemetry=telemetry)
        assert {h.retry_level for h, _ in banked} == {0}
        assert self.physics(banked) == self.physics(clean)
        events = telemetry.degradation.events
        assert [e["event"] for e in events] == ["transient_retry"] * 3
        assert [e["detail"].split()[0] for e in events] == [
            "ik=5", "ik=4", "ik=3"]

        # a fault that outlives the retry climbs the ladder: a hopeless
        # opening step fails level 0, level 1 replaces it
        hopeless = replace(self.CONFIG, first_step=1e-300)
        banked = self.run_stream(bg_scdm, thermo_scdm, hopeless)
        assert {h.retry_level for h, _ in banked} == {1}


@pytest.mark.parametrize("backend", ["inprocess", "procs"])
class TestEndToEnd:
    def test_plinger_matches_linger(self, backend, scdm, bg_scdm,
                                    thermo_scdm, linger_small):
        """PLINGER over real integrations reproduces the serial run's
        records exactly (same code, different transport)."""
        kg = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
        cfg = LingerConfig(record_sources=False, keep_mode_results=False,
                           rtol=1e-4)
        from repro.linger import run_linger

        serial = run_linger(scdm, kg, cfg, background=bg_scdm,
                            thermo=thermo_scdm)
        par, stats = run_plinger(scdm, kg, cfg, nproc=3, backend=backend,
                                 background=bg_scdm, thermo=thermo_scdm)
        assert np.allclose(par.delta_m, serial.delta_m, rtol=1e-12)
        for ps, pp in zip(serial.payloads, par.payloads):
            assert np.allclose(ps.f_gamma, pp.f_gamma, rtol=1e-12)
        assert stats.nproc == 3
        assert stats.master_messages_received == 2 + 2 * kg.nk


def test_forked_ranks_inherit_a_resolved_kernel(monkeypatch, tmp_path, scdm,
                                                bg_scdm, thermo_scdm):
    """With the tables handed in nothing on the master touches the
    compiled kernel before the fork; it resolves it anyway, once,
    instead of every child doing so first thing on its critical path."""
    import os

    from repro import _cext

    pids = tmp_path / "pids"
    build = _cext._build

    def recording_build():
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build()

    monkeypatch.setattr(_cext, "_build", recording_build)
    _cext.reset_cext()
    kg = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
    cfg = LingerConfig(record_sources=False, keep_mode_results=False,
                       rtol=1e-3, lmax_photon=8, lmax_nu=8)
    run_plinger(scdm, kg, cfg, nproc=3, backend="procs",
                background=bg_scdm, thermo=thermo_scdm)
    assert pids.read_text().split() == [str(os.getpid())]


class TestDriverValidation:
    def test_needs_two_ranks(self, scdm):
        kg = KGrid.from_k([0.01])
        from repro.errors import MessagePassingError

        with pytest.raises(MessagePassingError):
            run_plinger(scdm, kg, nproc=1)

    def test_rejects_mode_keeping_config(self, scdm):
        kg = KGrid.from_k([0.01])
        cfg = LingerConfig(keep_mode_results=True)
        with pytest.raises(ProtocolError):
            run_plinger(scdm, kg, cfg, nproc=2)
