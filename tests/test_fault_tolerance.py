"""Chaos suite: the fault-tolerant PLINGER layer under injected faults.

Three layers of coverage:

* protocol-level recovery with fake (instant, deterministic) compute —
  kill a worker mid-run, drop/delay/corrupt result messages — with the
  :class:`FaultReport` accounting pinned against the exact injection
  counts the :class:`FaultyWorld` tallies;
* the building blocks in isolation — fault-policy bookkeeping per
  action type, the integration escalation ladder, the hardened
  checkpoint journal, FaultReport serialization;
* an end-to-end acceptance run with real physics: one of four workers
  killed mid-flight plus a deterministic result-message drop rate, and
  the final spectrum must match the fault-free run at rtol=1e-8.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import KGrid, LingerConfig, ProtocolError, run_linger
from repro.errors import IntegrationError, MessagePassingError
from repro.linger.records import ModeHeader, ModePayload
from repro.mp.backends.faulty import ACTIONS, FaultPolicy, FaultyWorld
from repro.mp.backends.inprocess import InProcessWorld
from repro.plinger import (
    FaultTolerance,
    ModeJournal,
    Tag,
    master_subroutine,
    run_plinger,
    worker_subroutine,
)
from repro.resilience import (
    LADDER_FIRST_STEP,
    LADDER_RTOL_SCALE,
    escalation_ladder,
    run_with_ladder,
)
from repro.telemetry.report import FaultReport, RunReport

NK = 12
KGRID = KGrid.from_k(np.logspace(-4, -1, NK))

#: Snappy policy for the protocol tests (fake compute is instant).
FT_FAST = FaultTolerance(
    worker_timeout=0.3,
    heartbeat_interval=0.05,
    missed_heartbeats=3,
    poll_seconds=0.02,
    payload_timeout=0.4,
    max_retries=10,
    backoff_base=0.01,
)


def fake_compute_factory(kgrid, delay=0.0, lmax=8):
    """Deterministic stand-in records keyed to the grid's k values
    (so the master's header validation has something to check)."""

    def fake_compute(ik: int):
        if delay:
            time.sleep(delay)
        k = float(kgrid.k[ik - 1])
        header = ModeHeader(
            ik=ik, k=k, tau_end=100.0, a_end=1.0, delta_c=-float(ik),
            delta_b=0.0, delta_g=0.0, delta_nu=0.0, delta_nu_massive=0.0,
            theta_b=0.0, theta_g=0.0, theta_nu=0.0, eta=0.0, hdot=0.0,
            etadot=0.0, phi=0.0, psi=0.0, delta_m=-float(ik),
            cpu_seconds=0.0, n_rhs=1.0, lmax=lmax,
        )
        payload = ModePayload(
            ik=ik, k=k, tau_end=100.0, a_end=1.0, amplitude=1.0,
            n_steps=1.0, f_gamma=np.full(lmax + 1, float(ik)),
            g_gamma=np.arange(lmax + 1, dtype=float),
        )
        return header, payload

    return fake_compute


def run_chaos(world, kgrid=KGRID, ft=FT_FAST, compute=None, kill_rank_at=None):
    """Drive a full FT protocol round on ``world`` with fake compute.

    ``kill_rank_at=(rank, seconds)`` schedules an in-process SIGKILL
    analogue.  Worker exceptions are swallowed (a dismissed or killed
    worker dying loudly is expected); the master's log is the oracle.
    """
    compute = compute or fake_compute_factory(kgrid)
    nproc = world.nproc
    logs = {}

    def worker(rank):
        mp = world.handle(rank)
        try:
            mp.initpass()
            logs[rank] = worker_subroutine(mp, compute,
                                           fault_tolerance=ft)
            mp.endpass()
        except Exception:
            pass

    threads = [threading.Thread(target=worker, args=(r,), daemon=True)
               for r in range(1, nproc)]
    for t in threads:
        t.start()
    if kill_rank_at is not None:
        rank, after = kill_rank_at
        timer = threading.Timer(after, world.kill_rank, args=(rank,))
        timer.daemon = True
        timer.start()
    mp0 = world.handle(0)
    mp0.initpass()
    master_log = master_subroutine(mp0, kgrid, fault_tolerance=ft)
    mp0.endpass()
    for t in threads:
        t.join(10.0)
    return master_log, logs


def assert_complete(master_log, kgrid=KGRID):
    assert sorted(h.ik for h in master_log.headers) == \
        list(range(1, kgrid.nk + 1))
    assert sorted(p.ik for p in master_log.payloads) == \
        list(range(1, kgrid.nk + 1))


class TestFaultFreeBaseline:
    def test_ft_run_without_faults_is_clean(self):
        world = FaultyWorld(InProcessWorld(4),
                            FaultPolicy(selector=lambda m, c: False))
        # a compute that outlasts the heartbeat interval, so the
        # timers get to fire
        compute = fake_compute_factory(KGRID, delay=0.12)
        log, worker_logs = run_chaos(world, compute=compute)
        assert_complete(log)
        fr = log.fault
        assert fr is not None
        assert fr.dead_workers == []
        assert fr.reassignments == 0
        assert fr.corrupt_results == 0
        assert fr.orphan_payloads == 0
        assert fr.duplicate_results == 0
        assert not fr.any_faults
        assert fr.heartbeats_received > 0
        assert sum(wl.modes_done for wl in worker_logs.values()) == NK

    def test_default_policy_run_has_a_clean_fault_report(self):
        world = InProcessWorld(3)
        compute = fake_compute_factory(KGRID)
        logs = {}

        def worker(rank):
            mp = world.handle(rank)
            mp.initpass()
            logs[rank] = worker_subroutine(mp, compute)
            mp.endpass()

        threads = [threading.Thread(target=worker, args=(r,))
                   for r in (1, 2)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        log = master_subroutine(mp0, KGRID)
        for t in threads:
            t.join(10.0)
        assert_complete(log)
        assert not log.fault.any_faults
        assert log.fault.heartbeats_received == 0

    def test_busy_is_not_dead_on_the_default_policy(self):
        """Liveness comes from heartbeats, not from how long a mode
        takes: a mode three silence deadlines long is waited for, and
        the rank benched beside it is not mistaken for dead either."""
        ft = FaultTolerance()
        kgrid = KGrid.from_k(np.logspace(-3, -2, 3))
        base = fake_compute_factory(kgrid)

        def compute(ik):
            if ik == 1:  # the last wavenumber out
                time.sleep(3 * ft.silence_seconds)
            return base(ik)

        log, _ = run_chaos(InProcessWorld(3), kgrid=kgrid, ft=ft,
                           compute=compute)
        assert_complete(log, kgrid)
        assert log.fault.dead_workers == []
        assert log.fault.heartbeats_received >= 2  # the busy and the benched
        assert not log.fault.any_faults

    def test_a_benched_worker_outwaits_its_retry_budget(self, bg_scdm,
                                                        thermo_scdm):
        """A rank on the bench re-sends READY every ``worker_timeout``;
        the master answers each with a HEARTBEAT, so the rank waits out
        a mode (lmax 2000, about a second) far longer than its whole
        retry budget instead of giving up on a live master."""
        from repro.plinger.driver import _worker_entry

        ft = FaultTolerance(worker_timeout=0.2, max_retries=1,
                            heartbeat_interval=0.1)
        kgrid = KGrid.from_k([0.3])
        config = LingerConfig(lmax_photon=2000, lmax_nu=2000, rtol=1e-4,
                              record_sources=False, keep_mode_results=False)
        world = InProcessWorld(3)
        errors = {}

        def worker(rank):
            errors[rank] = _worker_entry(world.handle(rank), bg_scdm,
                                         thermo_scdm, kgrid, config,
                                         fault_tolerance=ft)

        threads = [threading.Thread(target=worker, args=(r,), daemon=True)
                   for r in (1, 2)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        log = master_subroutine(mp0, kgrid, fault_tolerance=ft)
        mp0.endpass()
        for t in threads:
            t.join(10.0)
        assert errors == {1: None, 2: None}
        assert log.fault.dead_workers == []
        assert [h.ik for h in log.headers] == [1]


class TestEveryAction:
    """Whatever the transport does to whichever message, a run ends in
    the fault-free records, bit for bit, or in a ProtocolError /
    MessagePassingError inside the policy's bounds — never in a quietly
    wrong or incomplete result, and never in a hang.  (The fail-loudly
    loop's TestDrop / TestTruncate / TestRetag / TestDuplicate of
    ``tests/test_fault_injection.py`` are the drop-HEADER,
    truncate-HEADER, retag-READY and duplicate-READY cells.)"""

    @pytest.mark.parametrize("tag", [Tag.READY, Tag.WORK, Tag.HEADER,
                                     Tag.PAYLOAD], ids=lambda t: t.name)
    @pytest.mark.parametrize("action", ACTIONS)
    def test_recovers_bitwise_or_raises(self, action, tag):
        policy = FaultPolicy.every_nth(2, tags=[tag], action=action,
                                       max_faults=2, retag_to=42)
        world = FaultyWorld(InProcessWorld(4), policy)
        compute = fake_compute_factory(KGRID)
        t0 = time.monotonic()
        try:
            log, _ = run_chaos(world, compute=compute)
        except (ProtocolError, MessagePassingError):
            # only a dead master cannot finish: kill_rank takes the
            # sender, and rank 0 sends the WORK
            assert (action, tag) == ("kill_rank", Tag.WORK)
        else:
            assert_complete(log)
            for h, p in zip(log.headers, log.payloads):
                h_ref, p_ref = compute(h.ik)
                assert h.pack().tobytes() == h_ref.pack().tobytes()
                assert p.pack().tobytes() == p_ref.pack().tobytes()
        assert world.faults_injected >= 1
        assert time.monotonic() - t0 < 20.0


class TestWorkerDeath:
    def test_killed_worker_is_quarantined_and_work_reassigned(self):
        world = FaultyWorld(InProcessWorld(4),
                            FaultPolicy(selector=lambda m, c: False))
        compute = fake_compute_factory(KGRID, delay=0.05)
        log, _ = run_chaos(world, compute=compute, kill_rank_at=(2, 0.06))
        assert_complete(log)
        fr = log.fault
        assert fr.dead_workers == [2]
        assert fr.reassignments >= 1
        assert fr.reassigned_modes >= 1
        assert fr.retries_by_tag.get("WORK", 0) >= 1
        assert fr.recovery_wall_seconds > 0.0

    def test_kill_via_fault_action_on_first_result(self):
        # the kill_rank action murders the sender of a selected message:
        # rank 2 dies the moment it ships its first header
        kill = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.HEADER and m.source == 2,
            action="kill_rank", max_faults=1,
        )
        world = FaultyWorld(InProcessWorld(4), kill)
        compute = fake_compute_factory(KGRID, delay=0.02)
        log, _ = run_chaos(world, compute=compute)
        assert_complete(log)
        assert log.fault.dead_workers == [2]
        assert world.faults_for(kill) == 1
        assert world.dead_ranks == {2}

    def test_all_workers_lost_raises(self):
        world = FaultyWorld(InProcessWorld(3),
                            FaultPolicy(selector=lambda m, c: False))
        compute = fake_compute_factory(KGRID, delay=0.05)
        for rank in (1, 2):
            threading.Timer(0.05 * rank, world.kill_rank, (rank,)).start()
        logs = {}

        def worker(rank):
            mp = world.handle(rank)
            try:
                mp.initpass()
                logs[rank] = worker_subroutine(mp, compute,
                                               fault_tolerance=FT_FAST)
                mp.endpass()
            except Exception:
                pass

        threads = [threading.Thread(target=worker, args=(r,), daemon=True)
                   for r in (1, 2)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        with pytest.raises(ProtocolError, match="all workers lost"):
            master_subroutine(mp0, KGRID, fault_tolerance=FT_FAST)


class TestLostAndCorruptResults:
    def test_dropped_headers_are_recovered_and_accounted(self):
        drop = FaultPolicy.every_nth(5, tags=[Tag.HEADER], action="drop")
        world = FaultyWorld(InProcessWorld(4), drop)
        log, _ = run_chaos(world)
        assert_complete(log)
        fr = log.fault
        n_dropped = world.faults_by_tag[int(Tag.HEADER)]
        assert n_dropped > 0
        # every dropped header leaves its payload orphaned, exactly once
        assert fr.orphan_payloads == n_dropped
        assert fr.ready_resyncs >= 1
        assert fr.retries_by_tag.get("WORK", 0) >= n_dropped

    def test_dropped_payloads_are_recovered(self):
        drop = FaultPolicy.every_nth(6, tags=[Tag.PAYLOAD], action="drop")
        world = FaultyWorld(InProcessWorld(4), drop)
        log, _ = run_chaos(world)
        assert_complete(log)
        fr = log.fault
        assert world.faults_by_tag[int(Tag.PAYLOAD)] > 0
        assert fr.payload_timeouts >= 1

    def test_delayed_results_are_absorbed(self):
        delay = FaultPolicy.every_nth(
            4, tags=[Tag.HEADER, Tag.PAYLOAD], action="delay",
            delay_seconds=0.05,
        )
        world = FaultyWorld(InProcessWorld(4), delay)
        log, _ = run_chaos(world)
        assert_complete(log)
        fr = log.fault
        assert world.faults_injected > 0
        # a delay inside the payload deadline costs nothing
        assert fr.dead_workers == []
        assert fr.corrupt_results == 0

    def test_corrupt_headers_are_detected_and_recomputed(self):
        corrupt = FaultPolicy.every_nth(6, tags=[Tag.HEADER],
                                        action="corrupt_payload")
        world = FaultyWorld(InProcessWorld(4), corrupt)
        log, _ = run_chaos(world)
        assert_complete(log)
        fr = log.fault
        n_corrupt = world.faults_by_tag[int(Tag.HEADER)]
        assert n_corrupt > 0
        assert fr.corrupt_results == n_corrupt
        # and none of the recorded headers carry garbled values
        for h in log.headers:
            assert h.k == pytest.approx(float(KGRID.k[h.ik - 1]))

    def test_corrupt_payloads_are_detected(self):
        corrupt = FaultPolicy.every_nth(6, tags=[Tag.PAYLOAD],
                                        action="corrupt_payload")
        world = FaultyWorld(InProcessWorld(4), corrupt)
        log, _ = run_chaos(world)
        assert_complete(log)
        fr = log.fault
        assert world.faults_by_tag[int(Tag.PAYLOAD)] > 0
        assert fr.corrupt_results >= 1
        for p in log.payloads:
            assert p.k == pytest.approx(float(KGRID.k[p.ik - 1]))

    def test_truncated_ready_messages_survive(self):
        # only the initial READY per worker is guaranteed, so truncate
        # every 2nd to land at least one fault with two workers
        trunc = FaultPolicy.every_nth(2, tags=[Tag.READY], action="truncate")
        world = FaultyWorld(InProcessWorld(3), trunc)
        log, _ = run_chaos(world)
        assert_complete(log)
        assert world.faults_by_tag[int(Tag.READY)] >= 1

    def test_retry_exhaustion_raises(self):
        # every header vanishes: the same mode keeps being reassigned
        # until its retry budget runs out
        drop_all = FaultPolicy(selector=lambda m, c: m.tag == Tag.HEADER,
                               action="drop")
        world = FaultyWorld(InProcessWorld(3), drop_all)
        ft = FaultTolerance(
            worker_timeout=0.2, heartbeat_interval=0.05, poll_seconds=0.02,
            payload_timeout=0.2, max_retries=2, backoff_base=0.01,
        )
        compute = fake_compute_factory(KGRID)
        logs = {}

        def worker(rank):
            mp = world.handle(rank)
            try:
                mp.initpass()
                logs[rank] = worker_subroutine(mp, compute,
                                               fault_tolerance=ft)
                mp.endpass()
            except Exception:
                pass

        threads = [threading.Thread(target=worker, args=(r,), daemon=True)
                   for r in (1, 2)]
        for t in threads:
            t.start()
        mp0 = world.handle(0)
        mp0.initpass()
        with pytest.raises(ProtocolError, match="max_retries"):
            master_subroutine(mp0, KGRID, fault_tolerance=ft)

    def test_a_reply_during_the_backoff_is_not_crossed_by_a_ready(self):
        """A worker whose wait timed out backs off *listening*: WORK
        that lands in the backoff window is taken at once, and no READY
        goes out to earn the same assignment a second time (the master
        answers a READY from a rank with work outstanding by re-sending
        it, so a crossed READY computes the mode twice)."""
        ft = FaultTolerance(worker_timeout=0.1, poll_seconds=0.02,
                            payload_timeout=0.4, max_retries=5,
                            backoff_base=1.0)
        world = InProcessWorld(2)
        logs = {}

        def worker():
            mp = world.handle(1)
            mp.initpass()
            logs[1] = worker_subroutine(
                mp, fake_compute_factory(KGRID),
                fault_tolerance=ft)
            mp.endpass()

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        mp0 = world.handle(0)
        mp0.initpass()
        mp0.mysendreal(np.array([NK, KGRID.k[0], KGRID.k[-1], 0.0, 0.0]),
                       Tag.INIT, 1)
        mp0.myrecvraw(Tag.READY, 1)
        time.sleep(0.3)  # the worker's 0.1 s wait is over: 1 s backoff
        sent = time.monotonic()
        mp0.mysendreal(np.array([3.0]), Tag.WORK, 1)
        assert mp0.myprobe(Tag.HEADER, 1, timeout=0.5) is not None
        assert time.monotonic() - sent < 0.5  # not slept out
        mp0.myrecvraw(Tag.HEADER, 1)
        mp0.myrecvraw(Tag.PAYLOAD, 1)
        mp0.mysendreal(np.array([0.0]), Tag.STOP, 1)
        thread.join(5.0)
        assert not thread.is_alive()
        assert logs[1].modes_done == 1 and logs[1].ready_retries == 0
        assert mp0.myprobe(Tag.READY, 1, timeout=0.0) is None


class TestFaultPolicyAccounting:
    """Satellite: every fault action tallies faults_by_tag identically."""

    def _pump(self, policies, messages):
        """Deliver ``messages`` (tag, payload-length) from rank 1 to
        rank 0 through a FaultyWorld and return it."""
        world = FaultyWorld(InProcessWorld(2), policies)
        h0, h1 = world.handle(0), world.handle(1)
        h0.initpass()
        h1.initpass()
        for tag, n in messages:
            h1.mysendreal(np.arange(float(n)), tag, 0)
        return world, h0

    @pytest.mark.parametrize("action", [
        "drop", "duplicate", "truncate", "retag", "delay", "hang",
        "corrupt_payload",
    ])
    def test_every_action_counts_once_per_injection(self, action):
        pol = FaultPolicy(selector=lambda m, c: m.tag == 3,
                          action=action, max_faults=2, delay_seconds=0.01)
        world, h0 = self._pump(pol, [(3, 4)] * 5 + [(2, 1)] * 3)
        assert world.faults_injected == 2
        assert world.faults_by_tag == {3: 2}
        assert world.faults_for(pol) == 2
        assert world.delivery_count == 8
        if action == "hang":
            assert len(world.held) == 2

    def test_kill_rank_counts_once_then_swallows_the_sender(self):
        pol = FaultPolicy(selector=lambda m, c: m.tag == 3,
                          action="kill_rank", max_faults=2)
        world = FaultyWorld(InProcessWorld(2), pol)
        h0, h1 = world.handle(0), world.handle(1)
        h0.initpass()
        h1.initpass()
        h1.mysendreal(np.arange(2.0), 2, 0)
        h1.mysendreal(np.arange(4.0), 3, 0)  # first tag-3: rank 1 dies
        with pytest.raises(MessagePassingError, match="killed"):
            h1.mysendreal(np.arange(4.0), 3, 0)
        assert world.faults_injected == 1
        assert world.faults_by_tag == {3: 1}
        assert world.faults_for(pol) == 1
        assert world.dead_ranks == {1}

    def test_exact_counts_per_action_type(self):
        """The regression pin: a fixed message stream through a fixed
        policy stack must inject exactly these counts per action."""
        drop = FaultPolicy(selector=lambda m, c: m.tag == 4,
                           action="drop", max_faults=3)
        dup = FaultPolicy(selector=lambda m, c: m.tag == 5,
                          action="duplicate", max_faults=2)
        trunc = FaultPolicy(selector=lambda m, c: m.tag == 2,
                            action="truncate", max_faults=1)
        world, h0 = self._pump(
            [drop, dup, trunc],
            [(4, 21)] * 5 + [(5, 24)] * 4 + [(2, 1)] * 3 + [(6, 1)] * 2,
        )
        assert world.faults_for(drop) == 3
        assert world.faults_for(dup) == 2
        assert world.faults_for(trunc) == 1
        assert world.faults_injected == 6
        assert world.faults_by_tag == {4: 3, 5: 2, 2: 1}
        # and the deliveries that actually landed reflect the actions:
        # 5-3=2 headers, 4+2=6 payloads, 3 readys (one short), 2 stops
        def drain(tag):
            out = []
            while h0.myprobe(tag, 1, timeout=0.05) is not None:
                out.append(h0.myrecvraw(tag, 1))
            return out
        assert len(drain(4)) == 2
        assert len(drain(5)) == 6
        readys = drain(2)
        assert len(readys) == 3
        assert sorted(r.size for r in readys) == [0, 1, 1]
        assert len(drain(6)) == 2

    def test_every_nth_is_deterministic_per_tag(self):
        pol = FaultPolicy.every_nth(3, tags=[4], action="drop")
        world, _ = self._pump(pol, [(4, 2), (2, 1)] * 9)
        # 9 tag-4 deliveries, every 3rd faulted -> exactly 3
        assert world.faults_by_tag == {4: 3}
        assert world.faults_injected == 3


class TestEscalationLadder:
    def test_ladder_levels(self):
        cfg = LingerConfig(rtol=1e-5)
        rungs = list(escalation_ladder(cfg))
        assert [lvl for lvl, _ in rungs] == [0, 1, 2]
        assert rungs[0][1] is cfg
        assert rungs[1][1].first_step == LADDER_FIRST_STEP
        assert rungs[1][1].rtol == cfg.rtol
        assert rungs[2][1].first_step == LADDER_FIRST_STEP
        assert rungs[2][1].rtol == pytest.approx(
            cfg.rtol * LADDER_RTOL_SCALE)

    def test_succeeds_at_first_working_rung(self):
        cfg = LingerConfig()
        calls = []

        def attempt(c):
            calls.append(c)
            if len(calls) < 3:
                raise IntegrationError("boom")
            return "ok"

        result, level = run_with_ladder(cfg, attempt)
        assert result == "ok"
        assert level == 2
        assert len(calls) == 3

    def test_level_zero_success_reports_no_degradation(self):
        result, level = run_with_ladder(LingerConfig(), lambda c: "fine")
        assert (result, level) == ("fine", 0)

    def test_exhausted_ladder_reraises(self):
        def attempt(c):
            raise IntegrationError("always")

        with pytest.raises(IntegrationError, match="always"):
            run_with_ladder(LingerConfig(), attempt)

    def test_degraded_mode_reported_in_fault_report(self):
        # a compute that returns retry_level=2 must land in
        # degraded_modes with its ik and level
        base = fake_compute_factory(KGRID)

        def degraded_compute(ik):
            header, payload = base(ik)
            if ik == 3:
                from dataclasses import replace
                header = replace(header, retry_level=2)
            return header, payload

        world = FaultyWorld(InProcessWorld(3),
                            FaultPolicy(selector=lambda m, c: False))
        log, _ = run_chaos(world, compute=degraded_compute)
        assert_complete(log)
        assert log.fault.degraded_modes == [{"ik": 3, "level": 2}]
        recorded = {h.ik: h.retry_level for h in log.headers}
        assert recorded[3] == 2
        assert all(lvl == 0 for ik, lvl in recorded.items() if ik != 3)


    @pytest.mark.parametrize("backend", ["inprocess", "procs"])
    def test_degraded_level_rides_as_a_22nd_real(
            self, backend, scdm, bg_scdm, thermo_scdm):
        """A header is 21 reals unless the mode needed the ladder; the
        level then rides behind them and lands in the fault report,
        whatever hosts the ranks and with no policy asked for."""
        from repro.telemetry import Telemetry

        kgrid = KGrid.from_k(np.geomspace(2e-3, 0.02, 3))
        # a hopeless opening step fails level 0; level 1 replaces it
        config = LingerConfig(lmax_photon=6, lmax_nu=6, rtol=1e-3,
                              first_step=1e-300, record_sources=False,
                              keep_mode_results=False)
        telemetry = Telemetry()
        result, stats = run_plinger(
            scdm, kgrid, config, nproc=3, backend=backend,
            background=bg_scdm, thermo=thermo_scdm, telemetry=telemetry)
        assert [h.retry_level for h in result.headers] == [1, 1, 1]
        assert sorted(stats.fault_report.degraded_modes,
                      key=lambda d: d["ik"]) == [
            {"ik": ik, "level": 1} for ik in (1, 2, 3)]
        sent = telemetry.build_report().totals["messages_sent_by_tag"]
        assert sent["HEADER"] == {"count": 3, "bytes": 3 * 22 * 8}


class TestJournalHardening:
    """Satellite: crash-safe append, replay survives any garbage tail."""

    def _write_good(self, path, iks):
        journal = ModeJournal(path)
        compute = fake_compute_factory(KGRID)
        for ik in iks:
            journal.append(*compute(ik))
        return journal

    def test_roundtrip(self, tmp_path):
        journal = self._write_good(tmp_path / "j.txt", [1, 2, 3])
        done = journal.replay()
        assert sorted(done) == [1, 2, 3]
        h, p = done[2]
        assert h.ik == 2 and p.ik == 2
        assert p.f_gamma == pytest.approx(np.full(9, 2.0))

    @pytest.mark.parametrize("tail", [
        "garbage with no pipe",
        "1.0 2.0 | 3.0",                      # short on both sides
        "1.0 2.0 three | 4.0 5.0",            # non-numeric token
        " | ",                                 # empty halves
        "nan " * 21 + "| " + "nan " * 24,     # NaN flood
        "inf " * 21 + "| " + "inf " * 24,     # Inf flood (OverflowError trap)
        "0.0 " * 21 + "| " + "0.0 " * 24,     # ik=0: not a real mode
    ])
    def test_replay_skips_garbage_tail(self, tmp_path, tail):
        path = tmp_path / "j.txt"
        journal = self._write_good(path, [1, 2])
        with open(path, "a") as fh:
            fh.write(tail + "\n")
        done = journal.replay()
        assert sorted(done) == [1, 2]

    def test_replay_skips_truncated_last_line(self, tmp_path):
        path = tmp_path / "j.txt"
        journal = self._write_good(path, [1, 2, 3])
        text = path.read_text()
        # tear the final line mid-token, as a crash would
        path.write_text(text[: len(text) - 40])
        done = journal.replay()
        assert sorted(done) == [1, 2]

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert ModeJournal(tmp_path / "absent.txt").replay() == {}


class TestFaultReportSerialization:
    def _sample(self):
        fr = FaultReport(
            dead_workers=[2], reassignments=1, reassigned_modes=3,
            retries_by_tag={"WORK": 3, "READY": 1}, ready_resyncs=2,
            corrupt_results=1, payload_timeouts=1, orphan_payloads=2,
            duplicate_results=1, unexpected_tags=0,
            degraded_modes=[{"ik": 5, "level": 2}],
            recovery_wall_seconds=0.25, heartbeats_received=40,
        )
        return fr

    def test_roundtrip_through_runreport_json(self):
        report = RunReport(meta={"driver": "plinger"}, fault=self._sample())
        loaded = RunReport.from_json(report.to_json())
        assert loaded.fault is not None
        assert loaded.fault == self._sample()
        assert loaded.totals["n_dead_workers"] == 1
        assert loaded.totals["n_retries"] == 4

    def test_reports_without_fault_section_load_unchanged(self):
        report = RunReport(meta={"driver": "linger"})
        d = report.to_dict()
        assert d["fault"] is None
        loaded = RunReport.from_dict(d)
        assert loaded.fault is None
        assert loaded.totals["n_dead_workers"] == 0

    def test_helpers(self):
        fr = self._sample()
        assert fr.total_retries == 4
        assert fr.any_faults
        fr2 = FaultReport()
        assert not fr2.any_faults
        fr2.bump_retry("WORK")
        fr2.bump_retry("WORK", 2)
        assert fr2.retries_by_tag == {"WORK": 3}


class TestEndToEndChaos:
    """The acceptance gate: real physics, one dead worker, dropped
    results — the spectrum must match the fault-free run exactly."""

    NK_E2E = 8

    @pytest.fixture(scope="class")
    def e2e_setup(self, scdm, bg_scdm, thermo_scdm):
        kgrid = KGrid.from_k(np.geomspace(3e-4, 0.03, self.NK_E2E))
        config = LingerConfig(rtol=1e-4, record_sources=False,
                              keep_mode_results=False)
        golden, _ = run_plinger(
            scdm, kgrid, config, nproc=3, backend="inprocess",
            background=bg_scdm, thermo=thermo_scdm,
        )
        return kgrid, config, golden

    def test_kill_one_of_four_workers_plus_result_drops(
            self, scdm, bg_scdm, thermo_scdm, e2e_setup):
        kgrid, config, golden = e2e_setup
        # rank 2 dies the moment it ships its first result; on top,
        # a ~5% loss rate on the result stream (every 5th header, capped
        # at 2 so an unlucky retransmission cannot be re-dropped forever)
        kill = FaultPolicy(
            selector=lambda m, c: m.tag == Tag.HEADER and m.source == 2,
            action="kill_rank", max_faults=1,
        )
        drop = FaultPolicy.every_nth(5, tags=[Tag.HEADER], action="drop",
                                     max_faults=2)
        world = FaultyWorld(InProcessWorld(5), [kill, drop])
        ft = FaultTolerance(
            worker_timeout=1.0, heartbeat_interval=0.25, missed_heartbeats=4,
            poll_seconds=0.02, payload_timeout=2.0, max_retries=10,
        )
        result, stats = run_plinger(
            scdm, kgrid, config, nproc=5, backend="inprocess",
            background=bg_scdm, thermo=thermo_scdm,
            fault_tolerance=ft, world=world,
        )
        fr = stats.fault_report
        assert fr is not None
        # exact accounting against the injected faults
        assert fr.dead_workers == [2]
        assert world.faults_for(kill) == 1
        n_dropped = world.faults_for(drop)
        assert fr.orphan_payloads == n_dropped
        assert fr.reassignments >= 1
        assert fr.corrupt_results == 0
        # and the physics is untouched: golden match at rtol=1e-8
        for h_f, h_g in zip(result.headers, golden.headers):
            assert h_f.ik == h_g.ik
            assert h_f.delta_c == pytest.approx(h_g.delta_c, rel=1e-8)
            assert h_f.delta_g == pytest.approx(h_g.delta_g, rel=1e-8)
            assert h_f.eta == pytest.approx(h_g.eta, rel=1e-8)
        for p_f, p_g in zip(result.payloads, golden.payloads):
            np.testing.assert_allclose(p_f.f_gamma, p_g.f_gamma, rtol=1e-8)
            np.testing.assert_allclose(p_f.g_gamma, p_g.g_gamma, rtol=1e-8)

    def test_procs_survives_a_real_sigkill(
            self, scdm, bg_scdm, thermo_scdm, e2e_setup):
        """Forked-process transport: SIGKILL an actual worker process
        mid-run; the master must quarantine it and finish the grid."""
        import os
        import signal

        from repro.mp.backends.procs import ProcsWorld

        kgrid, _, _ = e2e_setup
        # 2000 multipoles on purpose: the victim must still be
        # integrating 0.2 s after the fork, and the compiled step loop
        # finishes a small hierarchy's grid before then (this grid takes
        # ≈ 0.7 s on two cores, so a later kill can land after the
        # victim's last mode)
        config = LingerConfig(lmax_photon=2000, lmax_nu=2000, rtol=1e-4,
                              record_sources=False, keep_mode_results=False)
        golden = run_linger(scdm, kgrid, config, background=bg_scdm,
                            thermo=thermo_scdm)
        world = ProcsWorld(4)
        ft = FaultTolerance(
            worker_timeout=2.0, heartbeat_interval=0.25, missed_heartbeats=4,
            poll_seconds=0.02, payload_timeout=5.0, max_retries=5,
        )

        def assassin():
            # wait for the fork, give the victim time to take work,
            # then kill it for real
            for _ in range(400):
                pid = world.child_pid(2)
                if pid is not None:
                    break
                time.sleep(0.01)
            else:
                return
            time.sleep(0.2)
            os.kill(pid, signal.SIGKILL)

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        result, stats = run_plinger(
            scdm, kgrid, config, nproc=4, backend="procs",
            background=bg_scdm, thermo=thermo_scdm,
            fault_tolerance=ft, world=world,
        )
        killer.join(10.0)
        fr = stats.fault_report
        assert fr.dead_workers == [2]
        assert fr.reassigned_modes >= 1
        for p_f, p_g in zip(result.payloads, golden.payloads):
            np.testing.assert_allclose(p_f.f_gamma, p_g.f_gamma, rtol=1e-8)

    def test_fault_report_lands_in_telemetry(
            self, scdm, bg_scdm, thermo_scdm, e2e_setup):
        from repro.telemetry import Telemetry

        kgrid, config, golden = e2e_setup
        drop = FaultPolicy.every_nth(6, tags=[Tag.HEADER], action="drop",
                                     max_faults=1)
        world = FaultyWorld(InProcessWorld(3), drop)
        ft = FaultTolerance(worker_timeout=1.0, heartbeat_interval=0.25,
                            missed_heartbeats=4, poll_seconds=0.02,
                            payload_timeout=2.0, max_retries=10)
        telemetry = Telemetry()
        result, stats = run_plinger(
            scdm, kgrid, config, nproc=3, backend="inprocess",
            background=bg_scdm, thermo=thermo_scdm,
            fault_tolerance=ft, world=world, telemetry=telemetry,
        )
        report = telemetry.build_report()
        assert report.fault is stats.fault_report
        # survives the JSON wire
        loaded = RunReport.from_json(report.to_json())
        assert loaded.fault.orphan_payloads == \
            stats.fault_report.orphan_payloads
        np.testing.assert_allclose(
            result.payloads[0].f_gamma, golden.payloads[0].f_gamma,
            rtol=1e-8,
        )

    def test_hung_ranks_do_not_hold_the_run(
            self, scdm, bg_scdm, thermo_scdm, e2e_setup):
        """Thread-hosted ranks that hang past the end of the run — one
        quarantined with its work reassigned, the other deaf to its
        STOP — are waited for no longer than the policy's own silence
        deadline (+5 s), not a minute each."""
        kgrid, config, golden = e2e_setup
        # rank 2 goes silent from its first result on (everything it
        # sends is held), and every STOP is held, so both workers keep
        # re-sending READY to a master that has left: ~25 s each
        results_seen = []

        def from_rank_2_once_it_has_a_result(m, c):
            if m.source == 2 and m.tag == Tag.HEADER:
                results_seen.append(m)
            return m.source == 2 and bool(results_seen)

        mute = FaultPolicy(selector=from_rank_2_once_it_has_a_result,
                           action="hang")
        deaf = FaultPolicy(selector=lambda m, c: m.tag == Tag.STOP,
                           action="hang")
        world = FaultyWorld(InProcessWorld(3), [mute, deaf])
        ft = FaultTolerance(
            worker_timeout=2.0, heartbeat_interval=0.25, missed_heartbeats=4,
            poll_seconds=0.02, payload_timeout=2.0, max_retries=10,
        )
        before = set(threading.enumerate())
        t0 = time.monotonic()
        result, stats = run_plinger(
            scdm, kgrid, config, nproc=3, backend="inprocess",
            background=bg_scdm, thermo=thermo_scdm,
            fault_tolerance=ft, world=world,
        )
        wall = time.monotonic() - t0
        stragglers = [t for t in threading.enumerate() if t not in before]
        try:
            assert stragglers, "the injected hang did not outlast the run"
            assert wall < ft.silence_seconds + 5.0 + 6.0
            assert stats.fault_report.dead_workers == [2]
            assert stats.fault_report.reassignments >= 1
            for p_f, p_g in zip(result.payloads, golden.payloads):
                np.testing.assert_array_equal(p_f.pack(), p_g.pack())
        finally:
            # let the hung ranks go: hand over the STOPs they never got
            for target, msg in world.held:
                if msg.tag == Tag.STOP:
                    world._inner.put(target, msg)
            for t in stragglers:
                t.join(10.0)
        assert not any(t.is_alive() for t in stragglers)
