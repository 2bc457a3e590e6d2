"""The run telemetry subsystem: the collector, its JSON document (the
worker hand-off, the saved report), the no-op sink, and the integrator
instrumentation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import Telemetry, NULL_TELEMETRY
from repro.plinger.driver import TAG_NAMES
from repro.telemetry import (
    SCHEMA,
    ConstraintMetrics,
    FaultReport,
    NullTelemetry,
    Timer,
)

DATA = Path(__file__).parent / "data"


class TestCounter:
    def test_inc_and_merge(self):
        t = Telemetry()
        t.count("x")
        t.count("x", 4)
        assert t.counters["x"] == 5
        other = Telemetry()
        other.count("x", 7)
        t.merge(other.to_dict())
        assert t.counters["x"] == 12

    def test_as_dict(self):
        t = Telemetry()
        t.count("x", 3)
        assert t.to_dict()["counters"] == {"x": 3}


class TestTimer:
    def test_accumulates_intervals(self):
        t = Timer("t")
        with t:
            pass
        with t:
            pass
        assert t.count == 2
        assert t.total_seconds >= 0.0

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer("t").stop()

    def test_add_and_merge(self):
        t = Telemetry()
        t.timer("t").add(1.5, count=3)
        other = Telemetry()
        other.timer("t").add(0.5)
        t.merge(other.to_dict())
        assert t.timers["t"].total_seconds == pytest.approx(2.0)
        assert t.timers["t"].count == 4
        assert t.to_dict()["timers"] == {
            "t": {"total_seconds": t.timers["t"].total_seconds, "count": 4}}


class TestTelemetryCollector:
    def test_get_or_create_semantics(self):
        t = Telemetry()
        t.count("ev")
        t.count("ev", 2)
        assert t.counters["ev"] == 3
        assert t.timer("w") is t.timer("w")

    def test_record_and_annotate_mode(self):
        """``compute_mode`` patches the newest row in place: the one way
        a mode's grid index and CPU time reach its record."""
        t = Telemetry()
        t.record_mode(k=0.01, n_rhs=100)
        t.modes[-1].ik, t.modes[-1].cpu_seconds = 3, 1.5
        m = t.modes[0]
        assert (m.k, m.ik, m.n_rhs, m.cpu_seconds) == (0.01, 3, 100, 1.5)

    def test_record_traffic_labels_tags(self):
        t = Telemetry()
        stats = {
            "sent_by_tag": {3: {"count": 5, "bytes": 40}},
            "received_by_tag": {99: {"count": 1, "bytes": 8}},
        }
        t.record_traffic(0, "master", stats, tag_names={3: "WORK"})
        rt = t.traffic[0]
        assert rt.sent == {"WORK": {"count": 5, "bytes": 40}}
        assert rt.received == {"tag_99": {"count": 1, "bytes": 8}}
        assert rt.messages_sent == 5 and rt.bytes_received == 8

    def test_worker_payload_round_trip(self):
        """A worker publishes its collector's document; the master folds
        it in with the merge loading uses."""
        worker = Telemetry()
        worker.record_mode(k=0.02, n_rhs=64, flops_est=1000)
        worker.count("retries", 2)
        worker.timer("busy").add(1.25, count=4)
        worker.record_worker(1, modes_done=1, busy_seconds=1.25)

        master = Telemetry()
        master.record_mode(k=0.01, n_rhs=32)
        # a rank still running the parent of PR 19 also ships the chunk
        # books of the deleted lockstep driver: skipped, not refused
        payload = worker.to_dict()
        assert "batches" not in payload
        payload["batches"] = [{"n_lanes": 4, "n_sweeps": 100,
                               "lane_steps_attempted": 380,
                               "lane_slots_idle": 20}]
        master.merge(payload)

        assert [m.k for m in master.modes] == [0.01, 0.02]
        assert master.counters["retries"] == 2
        assert master.timers["busy"].total_seconds == pytest.approx(1.25)
        assert master.timers["busy"].count == 4
        assert [w.busy_seconds for w in master.workers] == [1.25]
        assert master.meta == {} and not hasattr(master, "batches")

    def test_a_worker_document_gives_the_merged_totals(self):
        """The totals a master reads after folding in a worker's
        document, as ``merge_worker_payload`` plus the driver's own
        traffic and worker rows gave them before the two merged."""
        worker = Telemetry()
        worker.record_mode(k=0.02, ik=2, n_rhs=96, n_steps=12,
                           n_rejected=2, n_stability_bound=5,
                           flops_est=4800, wall_seconds=0.5,
                           cpu_seconds=0.25)
        worker.record_mode(k=0.01, ik=1, n_rhs=64, n_steps=8,
                           n_stability_bound=1, flops_est=3200,
                           wall_seconds=0.25, cpu_seconds=0.125)
        worker.count("thermo.ode_steps", 548)
        worker.timer("thermo.build").add(0.5)
        worker.record_degradation("integrator", "transient_retry",
                                  "ik=2 level=0", 0.0)
        worker.record_constraint(ConstraintMetrics(
            k=0.02, ik=2, n_samples=4, max_pressure_residual=1e-6,
            max_shear_residual=2e-6))
        worker.record_traffic(1, "worker", {
            "sent_by_tag": {3: {"count": 2, "bytes": 16},
                            4: {"count": 2, "bytes": 336},
                            5: {"count": 2, "bytes": 384}},
            "received_by_tag": {1: {"count": 1, "bytes": 40},
                                2: {"count": 2, "bytes": 16},
                                6: {"count": 1, "bytes": 8}},
        }, tag_names=TAG_NAMES)
        worker.record_worker(1, modes_done=2, busy_seconds=0.75,
                             idle_seconds=0.25)
        worker.fault = FaultReport(retries_by_tag={"READY": 1})

        master = Telemetry()
        master.record_mode(k=0.03, ik=3, n_rhs=32, n_steps=4)
        master.count("thermo.ode_steps", 548)
        master.timer("thermo.build").add(0.5)
        master.fault = FaultReport()
        master.record_traffic(0, "master", {
            "sent_by_tag": {1: {"count": 1, "bytes": 40},
                            2: {"count": 2, "bytes": 16},
                            6: {"count": 1, "bytes": 8}},
            "received_by_tag": {3: {"count": 2, "bytes": 16}},
        }, tag_names=TAG_NAMES)
        master.merge(json.loads(json.dumps(worker.to_dict())))

        assert master.totals == {
            "constraints_monitored_modes": 1,
            "degradation_by_surface": {"integrator": 1},
            "degradation_events": 1,
            "degradation_recovery_seconds": 0.0,
            "flops_est": 8000,
            "max_exchange_residual": None,
            "max_pressure_residual": 1e-06,
            "max_shear_residual": 2e-06,
            "max_truncation_photon": None,
            "messages_sent_by_tag": {
                "HEADER": {"bytes": 336, "count": 2},
                "INIT": {"bytes": 40, "count": 1},
                "PAYLOAD": {"bytes": 384, "count": 2},
                "READY": {"bytes": 16, "count": 2},
                "STOP": {"bytes": 8, "count": 1},
                "WORK": {"bytes": 16, "count": 2},
            },
            "mode_cpu_seconds": 0.375,
            "mode_wall_seconds": 0.75,
            "n_dead_workers": 0,
            "n_modes": 3,
            "n_rejected": 2,
            "n_retries": 1,
            "n_rhs": 192,
            "n_stability_bound": 6,
            "n_steps": 24,
            "serve_by_tier": {},
            "serve_computed_runs": 0,
            "serve_requests": 0,
            "serve_warm_hit_rate": 0.0,
            "sparse_est_seconds_saved": 0.0,
            "sparse_factor": 1,
            "sparse_mode_reduction": 1.0,
            "wasted_step_fraction": 2 / 26,
            "worker_busy_seconds": 0.75,
            "worker_idle_seconds": 0.25,
        }
        assert master.counters == {"thermo.ode_steps": 1096}
        assert master.timers["thermo.build"].count == 2


class TestRunReport:
    def _sample(self):
        t = Telemetry()
        t.meta["driver"] = "test"
        t.record_mode(k=0.01, ik=1, n_rhs=80, n_steps=8, n_rejected=2,
                      n_stability_bound=7, flops_est=5000, wall_seconds=0.5)
        t.record_mode(k=0.02, ik=2, n_rhs=160, n_steps=16, n_rejected=4,
                      flops_est=9000, wall_seconds=1.0)
        t.record_traffic(0, "master", {
            "sent_by_tag": {3: {"count": 2, "bytes": 16}},
            "received_by_tag": {4: {"count": 2, "bytes": 336}},
        }, tag_names={3: "WORK", 4: "HEADER"})
        t.record_worker(1, modes_done=2, busy_seconds=1.5, idle_seconds=0.5)
        return t

    def test_totals(self):
        r = self._sample()
        totals = r.totals
        assert totals["n_modes"] == 2
        assert totals["n_rhs"] == 240
        assert totals["n_rejected"] == 6
        assert totals["n_stability_bound"] == 7
        # rejected over attempted, from the per-mode rows: 6 / (24 + 6)
        assert totals["wasted_step_fraction"] == pytest.approx(0.2)
        assert "n_batches" not in totals and "lane_occupancy" not in totals
        assert Telemetry().totals["wasted_step_fraction"] == 0.0
        assert totals["flops_est"] == 14000
        assert totals["messages_sent_by_tag"]["WORK"]["count"] == 2
        assert totals["worker_busy_seconds"] == pytest.approx(1.5)

    def test_json_round_trip(self):
        r = self._sample()
        doc = json.loads(json.dumps(r.to_dict()))
        back = Telemetry.from_dict(doc)
        assert back.to_dict() == r.to_dict()
        assert doc["schema"] == SCHEMA
        assert "histograms" not in doc

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            Telemetry.from_dict({"schema": "something/else"})

    def test_numpy_scalars_serialize(self, tmp_path):
        t = Telemetry()
        t.record_mode(k=np.float64(0.01), ik=np.int64(4), n_rhs=np.int64(7))
        t.meta["nk"] = np.int64(8)
        d = json.loads(t.save(tmp_path / "r.json").read_text())
        assert d["modes"][0]["ik"] == 4
        assert d["meta"]["nk"] == 8

    def test_save_load(self, tmp_path):
        r = self._sample()
        p = r.save(tmp_path / "report.json")
        assert Telemetry.load(p).to_dict() == r.to_dict()

    def test_a_report_the_previous_release_wrote_loads(self):
        """``report_v1.json`` is a sparse-k PLINGER chaos run's report
        (``fault``, ``sparse`` and ``degradation`` filled) written
        before ``RunReport`` folded into ``Telemetry``: it loads, and
        writes back the same document but the ``histograms`` key
        nothing filled."""
        doc = json.loads((DATA / "report_v1.json").read_text())
        assert doc["histograms"] == {}
        for section in ("fault", "sparse", "degradation"):
            assert doc[section] is not None
        back = Telemetry.load(DATA / "report_v1.json")
        del doc["histograms"]
        assert back.to_dict() == doc

    def test_mode_rows_without_the_stability_count_still_load(self):
        """A report written before the drivers counted the attempts at
        the stability bound loads, the count reading 0."""
        doc = self._sample().to_dict()
        for row in doc["modes"]:
            del row["n_stability_bound"]
        back = Telemetry.from_dict(doc)
        assert [m.n_stability_bound for m in back.modes] == [0, 0]
        assert back.totals["n_rejected"] == 6

    def test_counters_under_retired_names_still_load(self):
        """Counters are plain names: a report written while the thermal
        solve was LSODA's loads, its rows as it wrote them."""
        doc = self._sample().to_dict()
        doc["counters"] = {"thermo.lsoda_rhs_evals": 1000,
                           "thermo.lsoda_rhs_compiled": 1000}
        back = Telemetry.from_dict(json.loads(json.dumps(doc)))
        assert back.counters == doc["counters"]

    def test_report_written_before_the_transport_went_still_loads(self):
        """A report from a release that still loaded tables from a
        disk cache, shipped them through shared memory and stepped
        chunks in lockstep carries sections, fields and totals nothing
        writes any more: they are dropped, not refused."""
        doc = self._sample().to_dict()
        doc["cache"] = {
            "hits": 1, "misses": 1, "corrupt_entries": 0,
            "build_seconds": 0.005, "load_seconds": 0.002,
            "bytes_written": 300000, "bytes_read": 300000,
            "by_kind": {"thermal": {"hits": 1, "misses": 1, "corrupt": 0}},
            "bytes_shared": 262144, "shared_backend": "shm",
            "workers_attached": 2}
        doc["totals"].update(cache_hits=1, cache_misses=1,
                             cache_bytes_shared=262144)
        doc["fault"] = {"reassignments": 1, "table_wire_transfers": 1}
        doc["batches"] = [{
            "n_lanes": 4, "k_min": 0.001, "k_max": 0.02, "n_sweeps": 100,
            "lane_steps_attempted": 380, "lane_steps_accepted": 360,
            "lane_steps_rejected": 20, "lane_slots_idle": 20,
            "tca_wall_seconds": 0.5, "full_wall_seconds": 1.0,
            "wall_seconds": 1.5}]
        doc["totals"].update(n_batches=1, lane_occupancy=0.95)
        back = Telemetry.from_dict(json.loads(json.dumps(doc)))
        assert back.fault.reassignments == 1
        assert not hasattr(back.fault, "table_wire_transfers")
        assert not hasattr(back, "cache") and not hasattr(back, "batches")
        # the totals are re-derived from what was kept, the per-mode rows
        redone = back.to_dict()
        assert not {"cache", "batches"} & set(redone)
        assert not {"cache_hits", "cache_misses", "cache_bytes_shared",
                    "n_batches", "lane_occupancy"} & set(redone["totals"])
        assert redone["totals"]["wasted_step_fraction"] == pytest.approx(0.2)
        assert back.modes == self._sample().modes

    def test_worker_utilization(self):
        r = self._sample()
        assert r.workers[0].utilization == pytest.approx(0.75)


class TestNullSink:
    def test_singleton_is_disabled(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry().enabled is True

    def test_records_nothing(self):
        t = NullTelemetry()
        t.count("x", 5)
        with t.timer("w"):
            pass
        t.record_mode(k=0.01, n_rhs=10)
        t.record_traffic(0, "master", {"sent_by_tag": {}})
        t.record_worker(1, modes_done=3)
        t.merge({"modes": [{"k": 0.1}], "counters": {"c": 1},
                 "timers": {}, "fault": {"reassignments": 1}})
        assert not t.counters and not t.timers
        assert not t.modes and not t.traffic and not t.workers
        assert t.fault is None
        assert t.totals["n_modes"] == 0

    def test_null_timer_is_shared_and_inert(self):
        t = NullTelemetry()
        timer = t.timer("a")
        assert timer is t.timer("b")
        timer.start()
        assert timer.stop() == 0.0
        timer.add(5.0)
        assert timer.as_dict() == {"total_seconds": 0.0, "count": 0}


class TestIntegratorInstrumentation:
    def test_flop_accounting_matches_step_count(self):
        from repro.integrators import DVERK, IntegratorStats

        d = DVERK(lambda t, y: -y, rtol=1e-8, atol=1e-12)
        stats = IntegratorStats()
        d.integrate(np.array([1.0]), 0.0, 5.0, stats=stats)
        s = d.tableau.n_stages
        step_flops = d._flops_per_step(1)
        attempts = stats.n_steps + stats.n_rejected
        assert stats.n_rhs == 1 + s * attempts  # f0 + s per attempt
        assert stats.n_flops == step_flops // s + attempts * step_flops

    def test_flops_per_rhs_override(self):
        from repro.integrators import DVERK

        base = DVERK(lambda t, y: -y)
        custom = DVERK(lambda t, y: -y, flops_per_rhs=1000.0)
        assert custom._flops_per_step(4) > base._flops_per_step(4)

    def test_stats_merge_includes_flops(self):
        from repro.integrators import IntegratorStats

        a = IntegratorStats(n_steps=1, n_rejected=2, n_rhs=3, n_flops=100,
                            n_stability_bound=1)
        a.merge(IntegratorStats(n_steps=10, n_rejected=20, n_rhs=30,
                                n_flops=200, n_stability_bound=9))
        assert (a.n_steps, a.n_rejected, a.n_rhs, a.n_flops,
                a.n_stability_bound) == (11, 22, 33, 300, 10)

    def test_controller_counts_accepts_and_rejects(self):
        from repro.integrators import StepController

        c = StepController(order=6)
        assert c.accept(0.5)        # err <= 1: accepted
        assert not c.accept(2.0)    # err > 1: rejected
        assert c.accept(0.1)
        assert c.n_accepted == 2
        assert c.n_rejected == 1


class TestPhysicsUnaffected:
    """Telemetry enabled vs disabled must be bit-identical physics."""

    def test_evolve_mode_bit_identical(self, bg_scdm, thermo_scdm):
        from repro.perturbations import evolve_mode

        kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
        plain = evolve_mode(bg_scdm, thermo_scdm, 0.01, **kwargs)
        telemetry = Telemetry()
        metered = evolve_mode(bg_scdm, thermo_scdm, 0.01, telemetry=telemetry,
                              **kwargs)

        assert np.array_equal(plain.y_final, metered.y_final)
        assert plain.tau_end == metered.tau_end
        assert plain.stats.n_rhs == metered.stats.n_rhs
        assert plain.stats.n_steps == metered.stats.n_steps

        # ... and the enabled collector actually measured the mode
        assert len(telemetry.modes) == 1
        m = telemetry.modes[0]
        assert m.k == 0.01
        assert m.n_rhs == metered.stats.n_rhs
        assert m.flops_est == metered.stats.n_flops > 0
        assert m.tau_switch > 0.0
        assert m.wall_seconds >= m.tca_wall_seconds >= 0.0
