"""Spectrum-service tests: protocol, digests, the warm pool, the
asyncio daemon (tiers + coalescing), lifecycle, and telemetry."""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro import standard_cdm, tilted_cdm
from repro.errors import ServeError
from repro.serve import (
    ServeClient,
    ServeRequest,
    SpectrumServer,
    WarmPool,
    decode_message,
    encode_message,
    spectrum_product,
)
from repro.serve import lifecycle
from repro.telemetry.report import RunReport, ServeMetrics


def small_request(params=None, **overrides) -> ServeRequest:
    kwargs = dict(params=params or standard_cdm(), k_min=3e-4,
                  k_max=3e-3, nk=4, lmax=8, rtol=1e-3)
    kwargs.update(overrides)
    return ServeRequest(**kwargs)


class TestParamsDigest:
    def test_digest_is_cache_key(self, scdm):
        from repro.cache.keys import cache_key

        assert scdm.digest("background", {"n": 1}) == \
            cache_key("background", scdm, {"n": 1})

    def test_digest_separates_kinds_and_shapes(self, scdm):
        assert scdm.digest("a") != scdm.digest("b")
        assert scdm.digest("a", {"x": 1}) != scdm.digest("a", {"x": 2})

    def test_digest_bit_exact_in_params(self, scdm):
        nudged = dataclasses.replace(scdm, h=np.nextafter(scdm.h, 1.0))
        assert scdm.digest("a") != nudged.digest("a")


class TestProtocol:
    def test_round_trip(self):
        request = small_request()
        doc = decode_message(encode_message(request.to_doc()))
        assert ServeRequest.from_doc(doc) == request
        assert ServeRequest.from_doc(doc).digest() == request.digest()

    def test_digest_covers_shape(self):
        base = small_request()
        assert small_request(nk=5).digest() != base.digest()
        assert small_request(lmax=9).digest() != base.digest()
        # a request names a result: no execution hint to set or send
        with pytest.raises(TypeError):
            small_request(batch_size=2)
        assert "batch_size" not in base.to_doc()
        assert small_request(params=tilted_cdm()).digest() != base.digest()

    def test_validation(self):
        with pytest.raises(ServeError):
            small_request(nk=1)
        with pytest.raises(ServeError):
            small_request(k_min=0.0)
        with pytest.raises(ServeError):
            small_request(lmax=4)
        with pytest.raises(ServeError):
            small_request(rtol=0.0)

    def test_malformed_documents(self):
        with pytest.raises(ServeError):
            decode_message(b"not json\n")
        with pytest.raises(ServeError):
            decode_message(b"[1, 2]\n")
        with pytest.raises(ServeError):
            ServeRequest.from_doc({"params": {"bogus_field": 1.0}})

    @pytest.mark.parametrize("line", [
        b'{"op":"spectrum","k_max":Infinity,"params":{}}',
        b'{"op":"spectrum","k_min":-Infinity,"params":{}}',
        b'{"op":"spectrum","params":{"h":NaN}}',
    ], ids=["k_max-inf", "k_min-minus-inf", "h-nan"])
    def test_non_finite_numbers_are_refused(self, line):
        """JSON has no NaN or Infinity; python's parser takes them, the
        protocol does not."""
        with pytest.raises(ServeError, match="not a JSON number"):
            decode_message(line + b"\n")

    def test_the_k_range_must_be_finite(self):
        for k_max in (float("inf"), float("nan")):
            with pytest.raises(ServeError):
                small_request(k_max=k_max)
            with pytest.raises(ServeError):
                ServeRequest.from_doc({"k_max": k_max, "params": {}})

    def test_json_floats_round_trip_bitwise(self):
        values = [0.1, 1 / 3, np.nextafter(0.02, 1), 6.25e-5]
        wire = json.loads(json.dumps(values))
        assert all(a == b and np.float64(a) == np.float64(b)
                   for a, b in zip(values, wire))

    def test_l_values(self):
        assert list(small_request(lmax=8).l_values()) == [2, 3, 4, 5]


class TestWarmPool:
    @pytest.fixture(scope="class")
    def pool(self):
        with WarmPool(nproc=3, max_resident=2) as pool:
            yield pool

    @pytest.fixture(scope="class")
    def runs(self, pool):
        request = small_request()
        kgrid, config = request.kgrid(), request.config()
        first = pool.run(request.params, kgrid, config)
        second = pool.run(request.params, kgrid, config)
        return request, first, second

    def test_second_run_is_warm(self, runs):
        _request, (_, warm1), (_, warm2) = runs
        assert warm1 is False
        assert warm2 is True

    def test_warm_equals_cold_bitwise(self, runs):
        request, (cold, _), (warm, _) = runs
        for a, b in zip(cold.payloads, warm.payloads):
            np.testing.assert_array_equal(a.pack(), b.pack())
        _l, cl_cold = spectrum_product(request.params, cold.kgrid.k,
                                       cold.payloads)
        _l, cl_warm = spectrum_product(request.params, warm.kgrid.k,
                                       warm.payloads)
        np.testing.assert_array_equal(cl_cold, cl_warm)

    def test_pool_matches_serial_linger(self, runs):
        from repro import run_linger

        request, _first, (warm, _) = runs
        serial = run_linger(request.params, request.kgrid(),
                            request.config())
        for a, b in zip(serial.payloads, warm.payloads):
            np.testing.assert_array_equal(a.pack(), b.pack())

    def test_batch_size_serves_the_same_bits(self, runs, pool):
        """A document from a client that still sends the retired
        execution hint is the same request — same digest — and is
        served bitwise the same C_l."""
        request, _first, (one_lane, _) = runs
        doc = decode_message(encode_message(
            {**request.to_doc(), "batch_size": 4}))
        old = ServeRequest.from_doc(doc)
        assert old == request and old.digest() == request.digest()
        served, _ = pool.run(old.params, old.kgrid(), old.config())
        _l, cl_1 = spectrum_product(request.params, one_lane.kgrid.k,
                                    one_lane.payloads)
        _l, cl_4 = spectrum_product(old.params, served.kgrid.k,
                                    served.payloads)
        np.testing.assert_array_equal(cl_1, cl_4)
        with pytest.raises(TypeError):
            pool.run(old.params, old.kgrid(), old.config(), batch_size=4)

    def test_residency_is_lru_capped(self):
        requests = [small_request(
            params=dataclasses.replace(standard_cdm(), h=h))
            for h in (0.50, 0.51, 0.52)]
        with WarmPool(nproc=3, max_resident=2) as pool:
            warm = [pool.run(r.params, r.kgrid(), r.config())[1]
                    for r in requests + requests[2:] + requests[:1]]
            # the repeat of the newest is warm; the oldest was evicted
            assert warm == [False, False, False, True, False]
            assert pool.resident_count == 2
            assert pool.stats.as_dict() == {
                "runs": 5, "warm_runs": 1, "cold_builds": 4,
                "resident_evictions": 2}

    def test_pool_run_uses_no_shared_segment(self, no_new_shm):
        request = small_request()
        with WarmPool(nproc=3) as pool:
            pool.run(request.params, request.kgrid(), request.config())
            pool.run(request.params, request.kgrid(), request.config())

    def test_close_releases_everything(self):
        pool = WarmPool(nproc=3)
        request = small_request()
        pool.run(request.params, request.kgrid(), request.config())
        pool.close()
        assert pool.resident_count == 0
        with pytest.raises(ServeError):
            pool.run(request.params, request.kgrid(), request.config())
        pool.close()  # idempotent

    def test_rejects_bad_setup(self):
        with pytest.raises(ServeError):
            WarmPool(nproc=1)
        with pytest.raises(ServeError):
            WarmPool(nproc=3, max_resident=0).close()


class TestDaemon:
    def run_daemon(self, coro_factory, **server_kwargs):
        async def main():
            server_kwargs.setdefault("nproc", 3)
            server = SpectrumServer(**server_kwargs)
            await server.start()
            try:
                return await coro_factory(server)
            finally:
                server.close()

        return asyncio.run(main())

    def test_tiers_and_coalescing(self, tmp_path):
        request = small_request()
        journal = tmp_path / "journal.jsonl"

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def one():
                with ServeClient(port=server.port) as client:
                    return client.spectrum(request)

            burst = await asyncio.gather(
                *[loop.run_in_executor(None, one) for _ in range(4)])
            repeat = await loop.run_in_executor(None, one)
            return burst, repeat, server.metrics, server.journal.lines

        burst, repeat, metrics, journal_lines = self.run_daemon(
            scenario, journal_path=journal)

        tiers = sorted(r["tier"] for r in burst)
        assert tiers.count("cold") == 1
        assert set(tiers) <= {"cold", "coalesced", "store"}
        assert repeat["tier"] == "store"
        # coalescing guarantee: five requests, one computation
        assert metrics.computed_runs == 1
        assert metrics.requests == 5
        assert metrics.warm_hit_rate == pytest.approx(0.8)
        # identical responses across every tier — bitwise
        cls = {tuple(r["cl"]) for r in burst} | {tuple(repeat["cl"])}
        assert len(cls) == 1
        assert journal_lines == 5
        entries = [json.loads(line) for line in
                   journal.read_text().splitlines()]
        assert len(entries) == 5
        assert {e["tier"] for e in entries} == set(tiers) | {"store"}

    def test_distinct_requests_compute_separately(self):
        r1 = small_request()
        r2 = small_request(nk=5)

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def ask(request):
                with ServeClient(port=server.port) as client:
                    return client.spectrum(request)

            a = await loop.run_in_executor(None, ask, r1)
            b = await loop.run_in_executor(None, ask, r2)
            return a, b, server.metrics

        a, b, metrics = self.run_daemon(scenario)
        assert a["digest"] != b["digest"]
        assert metrics.computed_runs == 2
        assert metrics.by_tier["cold"] == 1
        assert metrics.by_tier["warm"] == 1  # same cosmology: tables warm

    def test_store_persists_across_daemons(self, tmp_path):
        request = small_request()
        store = tmp_path / "results"

        async def ask_once(server):
            loop = asyncio.get_running_loop()

            def one():
                with ServeClient(port=server.port) as client:
                    return client.spectrum(request)

            return await loop.run_in_executor(None, one)

        first = self.run_daemon(ask_once, store_dir=store)
        second = self.run_daemon(ask_once, store_dir=store)
        assert first["tier"] == "cold"
        assert second["tier"] == "store"
        assert second["cl"] == first["cl"]

    def test_error_responses(self):
        async def scenario(server):
            loop = asyncio.get_running_loop()

            def bad_calls():
                with ServeClient(port=server.port) as client:
                    garbage = client.call({"op": "nonsense"})
                    invalid = client.call({"op": "spectrum", "nk": -3,
                                           "params": {}})
                    ping = client.ping()
                return garbage, invalid, ping

            out = await loop.run_in_executor(None, bad_calls)
            return out, server.metrics.errors

        (garbage, invalid, ping), errors = self.run_daemon(scenario)
        assert garbage["ok"] is False
        assert invalid["ok"] is False
        assert ping["ok"] is True
        assert errors == 2

    def test_non_finite_lines_get_error_responses(self):
        """Lines a JSON encoder cannot write, sent raw: each is answered
        with an error, and the connection keeps answering."""
        import socket

        lines = [b'{"op":"spectrum","k_max":Infinity,"params":{}}\n',
                 b'{"op":"spectrum","params":{"h":NaN}}\n',
                 b'{"op":"ping"}\n']

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def raw():
                with socket.create_connection(("127.0.0.1", server.port),
                                              timeout=60.0) as sock:
                    sock.sendall(b"".join(lines))
                    reader = sock.makefile("rb")
                    return [json.loads(reader.readline()) for _ in lines]

            out = await loop.run_in_executor(None, raw)
            return out, server.metrics.errors, server.metrics.computed_runs

        (inf, nan, ping), errors, computed = self.run_daemon(scenario)
        assert inf["ok"] is False and "Infinity" in inf["error"]
        assert nan["ok"] is False and "NaN" in nan["error"]
        assert ping["ok"] is True
        assert errors == 2 and computed == 0

    def test_stats_and_shutdown_ops(self, no_new_shm):
        request = small_request()

        async def scenario(server):
            loop = asyncio.get_running_loop()

            def drive():
                with ServeClient(port=server.port) as client:
                    client.spectrum(request)
                    stats = client.stats()
                    client.shutdown()
                return stats

            stats = await loop.run_in_executor(None, drive)
            await asyncio.wait_for(server._stopping.wait(), timeout=5)
            return stats

        stats = self.run_daemon(scenario)
        assert stats["metrics"]["requests"] == 1
        assert stats["metrics"]["computed_runs"] == 1
        assert stats["pool"] == {"runs": 1, "warm_runs": 0,
                                 "cold_builds": 1,
                                 "resident_evictions": 0}
        assert stats["resident_models"] == 1


class TestLifecycle:
    def test_shutdown_all_drains_journal(self, tmp_path):
        from repro.serve.daemon import ServeJournal

        journal = ServeJournal(tmp_path / "j.jsonl")
        journal.record({"tier": "cold"})
        lifecycle.shutdown_all()
        assert journal._fh.closed
        # drained to disk despite never calling journal.close() directly
        assert (tmp_path / "j.jsonl").read_text().count("\n") == 1

    def test_shutdown_all_is_reentrant(self):
        lifecycle.shutdown_all()
        lifecycle.shutdown_all()

    def test_sigterm_handler_installed_and_chains(self):
        import signal

        lifecycle.install_handlers()
        assert signal.getsignal(signal.SIGTERM) is lifecycle._handle_sigterm


class TestServeTelemetry:
    def test_metrics_accumulate(self):
        m = ServeMetrics()
        m.record_request("store", 0.0, 0.01)
        m.record_request("cold", 0.5, 2.0)
        m.computed_runs += 1
        assert m.requests == 2
        assert m.by_tier == {"store": 1, "cold": 1}
        assert m.warm_hit_rate == pytest.approx(0.5)
        assert m.wall_by_tier["cold"] == pytest.approx(2.0)

    def test_report_round_trip(self):
        m = ServeMetrics(requests=3, by_tier={"store": 2, "cold": 1},
                         computed_runs=1)
        report = RunReport(meta={"driver": "serve"}, serve=m)
        d = report.to_dict()
        assert d["totals"]["serve_requests"] == 3
        back = RunReport.from_dict(d)
        assert back.serve.by_tier == m.by_tier
        assert back.serve.warm_hit_rate == pytest.approx(2 / 3)

    def test_server_report_has_serve_section(self):
        async def scenario(server):
            loop = asyncio.get_running_loop()

            def one():
                with ServeClient(port=server.port) as client:
                    return client.spectrum(small_request())

            await loop.run_in_executor(None, one)
            return server.build_report()

        async def main():
            server = SpectrumServer(nproc=3)
            await server.start()
            try:
                return await scenario(server)
            finally:
                server.close()

        report = asyncio.run(main())
        assert report.serve is not None
        assert report.serve.requests == 1
        assert report.meta["driver"] == "serve"
        assert report.totals["serve_by_tier"] == {"cold": 1}


class TestCli:
    def test_parser_accepts_serve_and_request(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--nproc", "3"])
        assert args.command == "serve"
        args = parser.parse_args(["request", "--port", "1234",
                                  "--op", "stats"])
        assert args.command == "request"
        assert args.op == "stats"
        # the chunk length is the server's to pick
        with pytest.raises(SystemExit):
            parser.parse_args(["request", "--port", "1234",
                               "--batch-size", "2"])
