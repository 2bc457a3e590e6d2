"""The run telemetry subsystem: metric primitives, the collector, the
JSON RunReport, the no-op sink, and the integrator instrumentation."""

import json
import math

import numpy as np
import pytest

from repro import Telemetry, NULL_TELEMETRY, RunReport
from repro.telemetry import Counter, Histogram, NullTelemetry, Timer
from repro.telemetry.report import SCHEMA


class TestCounter:
    def test_inc_and_merge(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        other = Counter("x", value=7)
        c.merge(other)
        assert c.value == 12

    def test_as_dict(self):
        assert Counter("x", value=3).as_dict() == {"value": 3}


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
        t = Timer("t")
        t.add(1.5, count=3)
        other = Timer("t")
        other.add(0.5)
        t.merge(other)
        assert t.total_seconds == pytest.approx(2.0)
        assert t.count == 4
        assert t.as_dict() == {"total_seconds": t.total_seconds, "count": 4}


class TestHistogram:
    def test_streaming_moments(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.n == 4
        assert h.mean == pytest.approx(2.5)
        assert h.std == pytest.approx(np.std([1, 2, 3, 4]))
        assert h.min == 1.0 and h.max == 4.0

    def test_empty(self):
        h = Histogram("h")
        assert math.isnan(h.mean)
        assert h.as_dict()["mean"] is None

    def test_merge(self):
        a, b = Histogram("h"), Histogram("h")
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.n == 2 and a.mean == 2.0 and a.max == 3.0


class TestTelemetryCollector:
    def test_get_or_create_semantics(self):
        t = Telemetry()
        t.count("ev")
        t.count("ev", 2)
        assert t.counters["ev"].value == 3
        assert t.timer("w") is t.timer("w")
        t.observe("h", 1.0)
        t.observe("h", 2.0)
        assert t.histograms["h"].n == 2

    def test_record_and_annotate_mode(self):
        t = Telemetry()
        t.record_mode(k=0.01, n_rhs=100)
        t.annotate_last_mode(ik=3, cpu_seconds=1.5)
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
        worker = Telemetry()
        worker.record_mode(k=0.02, n_rhs=64, flops_est=1000)
        worker.count("retries", 2)
        worker.timer("busy").add(1.25, count=4)

        master = Telemetry()
        master.record_mode(k=0.01, n_rhs=32)
        # a rank still running the parent of PR 19 also ships the chunk
        # books of the deleted lockstep driver: skipped, not refused
        payload = worker.worker_payload()
        assert "batches" not in payload
        payload["batches"] = [{"n_lanes": 4, "n_sweeps": 100,
                               "lane_steps_attempted": 380,
                               "lane_slots_idle": 20}]
        master.merge_worker_payload(payload)

        assert [m.k for m in master.modes] == [0.01, 0.02]
        assert master.counters["retries"].value == 2
        assert master.timers["busy"].total_seconds == pytest.approx(1.25)
        assert master.timers["busy"].count == 4


class TestRunReport:
    def _sample(self):
        t = Telemetry()
        t.record_mode(k=0.01, ik=1, n_rhs=80, n_steps=8, n_rejected=2,
                      n_stability_bound=7, flops_est=5000, wall_seconds=0.5)
        t.record_mode(k=0.02, ik=2, n_rhs=160, n_steps=16, n_rejected=4,
                      flops_est=9000, wall_seconds=1.0)
        t.record_traffic(0, "master", {
            "sent_by_tag": {3: {"count": 2, "bytes": 16}},
            "received_by_tag": {4: {"count": 2, "bytes": 336}},
        }, tag_names={3: "WORK", 4: "HEADER"})
        t.record_worker(1, modes_done=2, busy_seconds=1.5, idle_seconds=0.5)
        return t.build_report(meta={"driver": "test"})

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
        assert RunReport().totals["wasted_step_fraction"] == 0.0
        assert totals["flops_est"] == 14000
        assert totals["messages_sent_by_tag"]["WORK"]["count"] == 2
        assert totals["worker_busy_seconds"] == pytest.approx(1.5)

    def test_json_round_trip(self):
        r = self._sample()
        back = RunReport.from_json(r.to_json())
        assert back.to_dict() == r.to_dict()
        assert json.loads(r.to_json())["schema"] == SCHEMA

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            RunReport.from_dict({"schema": "something/else"})

    def test_numpy_scalars_serialize(self):
        t = Telemetry()
        t.record_mode(k=np.float64(0.01), ik=np.int64(4), n_rhs=np.int64(7))
        r = t.build_report(meta={"nk": np.int64(8)})
        d = json.loads(r.to_json())
        assert d["modes"][0]["ik"] == 4
        assert d["meta"]["nk"] == 8

    def test_save_load(self, tmp_path):
        r = self._sample()
        p = r.save(tmp_path / "report.json")
        assert RunReport.load(p).to_dict() == r.to_dict()

    def test_mode_rows_without_the_stability_count_still_load(self):
        """A report written before the drivers counted the attempts at
        the stability bound loads, the count reading 0."""
        doc = self._sample().to_dict()
        for row in doc["modes"]:
            del row["n_stability_bound"]
        back = RunReport.from_dict(doc)
        assert [m.n_stability_bound for m in back.modes] == [0, 0]
        assert back.totals["n_rejected"] == 6

    def test_counters_under_retired_names_still_load(self):
        """Counters are plain names: a report written while the thermal
        solve was LSODA's loads, its rows as it wrote them."""
        doc = self._sample().to_dict()
        doc["counters"] = {"thermo.lsoda_rhs_evals": 1000,
                           "thermo.lsoda_rhs_compiled": 1000}
        back = RunReport.from_json(json.dumps(doc))
        assert back.counters == doc["counters"]

    def test_report_written_before_the_transport_went_still_loads(self):
        """A RunReport from a release that still loaded tables from a
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
        back = RunReport.from_json(json.dumps(doc))
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
        t.observe("h", 1.0)
        with t.timer("w"):
            pass
        t.record_mode(k=0.01, n_rhs=10)
        t.annotate_last_mode(ik=1)
        t.record_traffic(0, "master", {"sent_by_tag": {}})
        t.record_worker(1, modes_done=3)
        t.merge_worker_payload({"modes": [{"k": 0.1}], "counters": {"c": 1},
                                "timers": {}})
        assert not t.counters and not t.timers and not t.histograms
        assert not t.modes and not t.traffic and not t.workers
        report = t.build_report()
        assert report.totals["n_modes"] == 0

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
