"""Spectrum-service tests: protocol, digests, the warm pool, the
asyncio daemon (tiers + coalescing), the request journal, and
telemetry."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CosmologyParams, standard_cdm, tilted_cdm
from repro.errors import ServeError
from repro.serve import (
    PROTOCOL_VERSION,
    ResultStore,
    ServeClient,
    ServeRequest,
    SpectrumServer,
    WarmPool,
    decode_message,
    encode_message,
    spectrum_product,
)
from repro.serve.daemon import ServeJournal
from repro.telemetry import ServeMetrics, Telemetry


def small_request(params=None, **overrides) -> ServeRequest:
    kwargs = dict(params=params or standard_cdm(), k_min=3e-4,
                  k_max=3e-3, nk=4, lmax=8, rtol=1e-3)
    kwargs.update(overrides)
    return ServeRequest(**kwargs)


def answer(line: bytes):
    """One line through a fresh daemon's handler, never started:
    (the decoded response, the server)."""
    server = SpectrumServer(nproc=2)
    try:
        response = asyncio.run(server.handle_line(line + b"\n"))
    finally:
        server.close()
    return decode_message(response), server


def fail_at(monkeypatch, bad_k: float) -> None:
    """Make every integration attempt at wavenumber ``bad_k`` raise (each
    is a grid plan's compiled call), so that mode outlasts the
    escalation ladder."""
    from repro.errors import IntegrationError
    from repro.perturbations.evolve import ModePlan

    planned = ModePlan.evolve

    def failing(plan, i):
        if plan.k[i] == bad_k:
            raise IntegrationError("step size underflow")
        return planned(plan, i)

    monkeypatch.setattr(ModePlan, "evolve", failing)


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

    @pytest.mark.parametrize("line, named", [
        (b'{"params":{"n_nu_massive":1e400}}', "1e400"),
        (b'{"params":{"h":1e400},"nk":2,"lmax":6}', "1e400"),
        (b'{"params":{},"nk":2.9,"lmax":6}', "nk"),
        (b'{"params":{"t_cmb":true},"nk":2,"lmax":6}', "t_cmb"),
        (b'{"params":{},"nk":2,"lmax":6,"k_max":"3e-3"}', "k_max"),
    ], ids=["overflowing-int-field", "overflowing-float-field",
            "fractional-nk", "boolean-t_cmb", "string-k_max"])
    def test_numbers_out_of_the_protocol_get_error_responses(self, line,
                                                             named):
        """A number that overflows a float64, a fraction where a count
        goes, a boolean or a string where a number goes: each is an
        error response naming it, before any computation."""
        response, server = answer(line)
        assert response["ok"] is False and named in response["error"]
        assert server.metrics.errors == 1
        assert server.pool.stats.runs == 0

    @pytest.mark.parametrize("params", [
        b'[["h",0.6]]', b"0", b'""', b"[]", b"false",
    ], ids=["pairs", "zero", "empty-string", "empty-list", "false"])
    def test_params_must_be_an_object(self, params):
        """Only an object (or nothing) is a cosmology: a list of pairs
        is not read as one, and a falsy value is not the default."""
        response, server = answer(b'{"op":"spectrum","params":' + params
                                  + b',"nk":2,"lmax":6}')
        assert response["ok"] is False and "params" in response["error"]
        assert server.metrics.errors == 1
        assert server.pool.stats.runs == 0

    def test_absent_or_null_params_are_the_default_cosmology(self):
        default = ServeRequest(params=CosmologyParams())
        assert ServeRequest.from_doc({}) == default
        assert ServeRequest.from_doc({"params": None}) == default

    @pytest.mark.parametrize("line", [
        b'{"op":"spectrum","protocol":99,"params":{},"nk":2,"lmax":6}',
        b'{"op":"ping","protocol":2}',
        b'{"op":"stats","protocol":"1"}',
    ], ids=["spectrum-99", "ping-2", "string-1"])
    def test_another_protocol_is_refused(self, line):
        response, server = answer(line)
        assert response["ok"] is False
        assert "protocol" in response["error"]
        assert server.metrics.errors == 1
        assert server.pool.stats.runs == 0

    def test_this_protocol_or_none_is_answered(self):
        for line in (b'{"op":"ping","protocol":1}', b'{"op":"ping"}'):
            response, server = answer(line)
            assert response == {"ok": True, "op": "ping",
                                "protocol": PROTOCOL_VERSION}
            assert server.metrics.errors == 0

    def test_json_floats_round_trip_bitwise(self):
        values = [0.1, 1 / 3, np.nextafter(0.02, 1), 6.25e-5]
        wire = json.loads(json.dumps(values))
        assert all(a == b and np.float64(a) == np.float64(b)
                   for a, b in zip(values, wire))

    def test_l_values(self):
        assert list(small_request(lmax=8).l_values()) == [2, 3, 4, 5]


# -- protocol properties (hypothesis) ---------------------------------------

#: JSON number texts, the ones a float64 cannot hold included: exponents
#: past 308 and integers of hundreds of digits
_numbers = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,3})(\.[0-9]{1,6})?([eE][+-]?[0-9]{1,4})?",
                  fullmatch=True),
    st.integers(300, 400).map(lambda n: "9" * n),
    st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
)
_scalars = st.one_of(
    _numbers, st.sampled_from(["true", "false", "null", "NaN", "Infinity",
                               "-Infinity"]),
    st.text(max_size=6).map(json.dumps),
)


def _object(keys, values):
    return st.dictionaries(keys, values, max_size=6).map(
        lambda d: "{" + ",".join(f"{json.dumps(k)}:{v}"
                                 for k, v in d.items()) + "}")


_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
    _object(st.text(max_size=4), inner)), max_leaves=10)
_params = _object(st.sampled_from(
    [f.name for f in dataclasses.fields(standard_cdm())]), _values)
_request_keys = st.one_of(
    st.sampled_from(["op", "params", "k_min", "k_max", "nk", "lmax", "rtol",
                     "batch_size"]), st.text(max_size=4))
_lines = st.one_of(
    _object(_request_keys, st.one_of(_params, _values)),
    _values,
    # nesting past the interpreter's stack, digits past python's limit
    st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n),
    st.integers(4290, 4400).map(lambda n: '{"nk":' + "1" * n + "}"),
    st.text(max_size=40),
)


@pytest.mark.property
class TestProtocolProperties:
    @given(line=_lines)
    @settings(max_examples=400, deadline=None)
    def test_any_line_is_a_finite_request_or_a_serve_error(self, line):
        """Whatever arrives on the socket, decoding and reading it as a
        spectrum request gives a request whose every float is finite,
        or a ServeError — never another exception for the handler to
        drop the connection on."""
        try:
            request = ServeRequest.from_doc(decode_message(line.encode()))
        except ServeError:
            return
        shape = (request.k_min, request.k_max, request.nk, request.lmax,
                 request.rtol)
        values = [*shape, *dataclasses.astuple(request.params)]
        assert all(math.isfinite(v) for v in values)
        assert all(type(v) is int for v in (request.nk, request.lmax,
                                            request.params.n_nu_massive))


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

    def test_pool_matches_serial_linger(self):
        """Bitwise serial LINGER's records with no helper thread, fewer
        modes than threads and more modes than threads (the header's
        CPU time aside)."""
        from repro import run_linger
        from repro.linger.kgrid import KGrid

        params, config = standard_cdm(), small_request().config()
        for nk in (1, 2, 7):
            kgrid = KGrid.from_k(np.linspace(3e-4, 3e-3, nk))
            serial = run_linger(params, kgrid, config)
            for nproc in (2, 3, 4):
                with WarmPool(nproc=nproc) as pool:
                    served, _ = pool.run(params, kgrid, config)
                assert len(served.headers) == len(served.payloads) == nk
                for a, b in zip(serial.headers, served.headers):
                    np.testing.assert_array_equal(
                        dataclasses.replace(a, cpu_seconds=0.0).pack(),
                        dataclasses.replace(b, cpu_seconds=0.0).pack())
                    assert a.retry_level == b.retry_level
                for a, b in zip(serial.payloads, served.payloads):
                    np.testing.assert_array_equal(a.pack(), b.pack())

    def test_a_run_starts_no_thread_and_no_plinger_world(self, monkeypatch):
        """The helper threads start once and stay: twenty runs, each on
        a grid that shares no k with the one before (so each integrates
        every mode), hold the thread count, none reaches PLINGER, and
        close() stops them."""
        import threading

        import repro.plinger
        import repro.plinger.driver

        def refuse(*args, **kwargs):
            raise AssertionError("a pool run reached run_plinger")

        monkeypatch.setattr(repro.plinger.driver, "run_plinger", refuse)
        monkeypatch.setattr(repro.plinger, "run_plinger", refuse)

        grids = [small_request(), small_request(k_min=4e-4, k_max=2e-3)]
        assert not set(grids[0].kgrid().k) & set(grids[1].kgrid().k)
        before = set(threading.enumerate())
        pool = WarmPool(nproc=4)
        pool.run(grids[0].params, grids[0].kgrid(), grids[0].config())
        helpers = set(threading.enumerate()) - before
        assert len(helpers) == 2
        for i in range(1, 21):
            request = grids[i % 2]
            pool.run(request.params, request.kgrid(), request.config())
            assert set(threading.enumerate()) - before == helpers
        assert pool.stats.modes_reused == 0
        pool.close()
        assert not any(t.is_alive() for t in helpers)

    def test_more_threads_than_cores_take_each_mode_once(self, monkeypatch):
        """Five modes in flight on a shortened switch interval: the
        shared iterator hands out every wavenumber exactly once, and the
        records are serial LINGER's.  The three runs share one pool and
        no wavenumber, so each integrates its whole grid."""
        import sys
        import threading
        from collections import Counter

        from repro import run_linger
        from repro.linger import serial as serial_module

        requests = [small_request(nk=12, k_min=k_min, k_max=10 * k_min)
                    for k_min in (3e-4, 3.1e-4, 3.2e-4)]
        grids = [set(r.kgrid().k) for r in requests]
        assert not (grids[0] & grids[1] or grids[1] & grids[2])
        serial = [run_linger(r.params, r.kgrid(), r.config())
                  for r in requests]
        calls, lock = Counter(), threading.Lock()
        compute_mode = serial_module.compute_mode

        def counted(background, thermo, k, ik, *args, **kwargs):
            with lock:
                calls[ik] += 1
            return compute_mode(background, thermo, k, ik, *args, **kwargs)

        monkeypatch.setattr(serial_module, "compute_mode", counted)
        served: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WarmPool(nproc=6) as pool:
                for r in requests:
                    runner = threading.Thread(target=lambda: served.append(
                        pool.run(r.params, r.kgrid(), r.config())[0]))
                    runner.start()
                    runner.join(timeout=120.0)
                    assert not runner.is_alive()
                assert pool.stats.modes_reused == 0
        finally:
            sys.setswitchinterval(interval)
        assert calls == {ik: 3 for ik in range(1, 13)}
        assert len(served) == 3
        for twin, result in zip(serial, served):
            for a, b in zip(twin.payloads, result.payloads):
                np.testing.assert_array_equal(a.pack(), b.pack())

    def test_telemetry_gets_every_mode(self):
        request = small_request(nk=7)
        kgrid = request.kgrid()
        telemetry = Telemetry()
        with WarmPool(nproc=4) as pool:
            pool.run(request.params, kgrid, request.config(),
                     telemetry=telemetry)
        assert sorted(m.ik for m in telemetry.modes) == list(range(1, 8))
        for m in telemetry.modes:
            assert m.k == kgrid.k[m.ik - 1] and m.cpu_seconds > 0.0

    def test_a_mode_past_the_ladder_raises_at_once(self, monkeypatch):
        """A wavenumber that fails at every ladder level ends the run
        with its IntegrationError, in well under the silence deadline
        a message protocol would wait out, and the pool serves the next
        run."""
        import time

        from repro.errors import IntegrationError

        request = small_request()
        kgrid, config = request.kgrid(), request.config()
        with WarmPool(nproc=3) as pool:
            # tables resident; the failing wavenumber is not a record
            pool.run(request.params, small_request(k_max=2e-3).kgrid(),
                     config)
            fail_at(monkeypatch, kgrid.k[1])
            t0 = time.perf_counter()
            with pytest.raises(IntegrationError, match="underflow"):
                pool.run(request.params, kgrid, config)
            assert time.perf_counter() - t0 < 2.0
            monkeypatch.undo()
            served, _ = pool.run(request.params, kgrid, config)
            assert len(served.payloads) == kgrid.nk

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
                "resident_evictions": 2, "modes_reused": 4}

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


class TestResidentModes:
    """A resident cosmology's last grid is reused by exact k and config:
    a run integrates only what that grid lacked, and its records are
    serial LINGER's either way."""

    CONFIG = small_request().config()
    FIRST = (3e-4, 1e-3, 2e-3)
    SECOND = (3e-4, 5e-4, 2e-3, 3e-3)  # 5e-4 and 3e-3 are new

    @staticmethod
    def grid(ks):
        from repro.linger.kgrid import KGrid

        return KGrid.from_k(ks)

    @staticmethod
    def integrated(monkeypatch):
        """Patch the seam; the list of wavenumbers ``compute_mode`` is
        then called for."""
        import threading

        from repro.linger import serial as serial_module

        calls, lock = [], threading.Lock()
        compute_mode = serial_module.compute_mode

        def counted(background, thermo, k, ik, *args, **kwargs):
            with lock:
                calls.append(float(k))
            return compute_mode(background, thermo, k, ik, *args, **kwargs)

        monkeypatch.setattr(serial_module, "compute_mode", counted)
        return calls

    @staticmethod
    def assert_serial(served, serial):
        """Bitwise serial LINGER, the header's CPU column aside."""
        assert len(served.headers) == len(serial.headers)
        for ik, (a, b) in enumerate(zip(serial.headers, served.headers), 1):
            assert b.ik == ik and a.retry_level == b.retry_level
            np.testing.assert_array_equal(
                dataclasses.replace(a, cpu_seconds=0.0).pack(),
                dataclasses.replace(b, cpu_seconds=0.0).pack())
        for a, b in zip(serial.payloads, served.payloads):
            assert a.pack().tobytes() == b.pack().tobytes()

    @pytest.mark.parametrize("nproc", [2, 3])
    def test_an_overlapping_grid_integrates_only_its_new_k(
            self, nproc, monkeypatch):
        from repro import run_linger

        params, second = standard_cdm(), self.grid(self.SECOND)
        serial = run_linger(params, second, self.CONFIG)
        calls = self.integrated(monkeypatch)
        with WarmPool(nproc=nproc) as pool:
            pool.run(params, self.grid(self.FIRST), self.CONFIG)
            calls.clear()
            served, was_warm = pool.run(params, second, self.CONFIG)
            again, _ = pool.run(params, second, self.CONFIG)
            stats = pool.stats.as_dict()
        assert was_warm and sorted(calls) == [5e-4, 3e-3]
        assert stats["modes_reused"] == 2 + 4
        assert list(served.kgrid.k) == list(second.k)
        self.assert_serial(served, serial)
        self.assert_serial(again, serial)

    @pytest.mark.parametrize("change", ["config", "cosmology", "evicted"])
    def test_what_reuses_nothing(self, change, monkeypatch):
        """Another config, another cosmology or an evicted cosmology:
        every wavenumber of the second grid is integrated."""
        params, second = standard_cdm(), self.grid(self.SECOND)
        other = dataclasses.replace(params, h=0.51)
        config = (dataclasses.replace(self.CONFIG, rtol=1e-4)
                  if change == "config" else self.CONFIG)
        calls = self.integrated(monkeypatch)
        with WarmPool(nproc=3, max_resident=1) as pool:
            pool.run(other if change == "cosmology" else params,
                     self.grid(self.FIRST), self.CONFIG)
            if change == "evicted":
                pool.run(other, self.grid(self.FIRST), self.CONFIG)
            calls.clear()
            pool.run(params, second, config)
            assert pool.stats.modes_reused == 0
        assert sorted(calls) == list(self.SECOND)

    def test_a_failed_run_keeps_the_last_records(self, monkeypatch):
        from repro.errors import IntegrationError

        params, first = standard_cdm(), self.grid(self.FIRST)
        with WarmPool(nproc=3) as pool:
            before, _ = pool.run(params, first, self.CONFIG)
            fail_at(monkeypatch, 3e-3)
            with pytest.raises(IntegrationError):
                pool.run(params, self.grid(self.SECOND), self.CONFIG)
            monkeypatch.undo()
            calls = self.integrated(monkeypatch)
            after, _ = pool.run(params, first, self.CONFIG)
        assert calls == []
        for a, b in zip(before.headers, after.headers):
            assert a.pack().tobytes() == b.pack().tobytes()
        for a, b in zip(before.payloads, after.payloads):
            assert a.pack().tobytes() == b.pack().tobytes()

    def test_a_grid_over_the_byte_cap_keeps_no_records(self, monkeypatch):
        """Records are kept only while a grid's fit the cap: a grid over
        it is still served from what was kept before, but keeps nothing,
        so its repeat integrates every wavenumber again."""
        from repro.serve import pool as pool_module

        # a mode's records: 21 + 2*lmax+8 floats and ~1 KiB of objects
        mode_bytes = 8 * (29 + 2 * self.CONFIG.lmax_photon) + 1024
        monkeypatch.setattr(pool_module, "RECORDS_MAX_BYTES",
                            len(self.FIRST) * mode_bytes)
        params, second = standard_cdm(), self.grid(self.SECOND)
        calls = self.integrated(monkeypatch)
        with WarmPool(nproc=3) as pool:
            pool.run(params, self.grid(self.FIRST), self.CONFIG)
            calls.clear()
            pool.run(params, second, self.CONFIG)
            assert sorted(calls) == [5e-4, 3e-3]
            calls.clear()
            pool.run(params, second, self.CONFIG)
            assert pool.stats.modes_reused == 2
        assert sorted(calls) == list(self.SECOND)

    def test_telemetry_has_only_the_integrated_modes(self):
        params, second = standard_cdm(), self.grid(self.SECOND)
        telemetry = Telemetry()
        with WarmPool(nproc=3) as pool:
            pool.run(params, self.grid(self.FIRST), self.CONFIG)
            pool.run(params, second, self.CONFIG, telemetry=telemetry)
        assert sorted(m.ik for m in telemetry.modes) == [2, 4]
        for m in telemetry.modes:
            assert m.k == second.k[m.ik - 1] and m.cpu_seconds > 0.0


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

    def test_every_tier_answers_one_body(self, tmp_path):
        """A fresh computation, a coalesced wait, a memory hit and a
        disk hit after eviction from memory answer with the same body
        bytes, and a resident entry's bytes count its body."""
        request = small_request()
        line = encode_message(request.to_doc())

        async def scenario(server):
            store = server.store
            first = await asyncio.gather(server.handle_line(line),
                                         server.handle_line(line))
            stored = store.get(request.digest())
            resident = (store.mem_bytes, stored.nbytes,
                        sum(a.nbytes for a in stored.arrays.values()),
                        stored.body)
            memory = await server.handle_line(line)
            # an entry whose file the writer thread has not written yet
            # is served from memory; wait for it to reach the disk
            for _ in range(1000):
                if store.stats()["pending_writes"] == 0:
                    break
                await asyncio.sleep(0.01)
            # a filler the size of the cap pushes the entry out of memory
            store.put("filler", {"x": np.zeros(store.mem_cap_bytes // 8)})
            disk = await server.handle_line(line)
            return [*first, memory, disk], resident, store.stats()

        lines, resident, stats = self.run_daemon(
            scenario, store_dir=tmp_path / "results",
            store_cap_bytes=1 << 20)
        assert [decode_message(x)["tier"] for x in lines] == \
            ["cold", "coalesced", "store", "store"]
        # out for the filler, back in from disk (pushing the filler out)
        assert stats["hits_disk"] == 1 and stats["evictions"] == 2
        bodies = {x[x.index(b',"l":') + 1:x.index(b',"timing":')]
                  for x in lines}
        mem_bytes, nbytes, array_bytes, body = resident
        assert bodies == {body}
        assert nbytes == array_bytes + len(body)
        assert mem_bytes == nbytes

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

    def test_a_warm_request_integrates_only_its_new_wavenumbers(
            self, tmp_path):
        """A cold and a warm request shaped like the benchmark's
        serve_miss pair (one cosmology, nk 2, lmax 16; the warm k_max
        is new, the default k_min is not): the pool reuses the cold
        grid's k_min mode, the warm C_l is an in-process run_linger
        twin's to the byte, and a restarted daemon on the same store
        dir answers both from disk with the bytes first served."""
        from repro import run_linger

        cold, warm = (ServeRequest(params=standard_cdm(), nk=2, lmax=16,
                                   rtol=1e-4, **extra)
                      for extra in ({}, {"k_max": 2.5e-3}))
        store_dir = tmp_path / "store"

        async def both(server):
            def ask():
                with ServeClient(port=server.port) as client:
                    answers = [client.spectrum(r) for r in (cold, warm)]
                    return answers, client.stats()
            return await asyncio.get_running_loop().run_in_executor(
                None, ask)

        first, stats = self.run_daemon(both, store_dir=store_dir)
        pool = stats["pool"]
        assert [r["tier"] for r in first] == ["cold", "warm"], first
        assert pool["modes_reused"] == 1, pool
        twin = run_linger(warm.params, warm.kgrid(), warm.config())
        _l, cl = spectrum_product(warm.params, twin.kgrid.k, twin.payloads,
                                  l_top=warm.lmax - 3)
        assert np.asarray(first[1]["cl"]).tobytes() == \
            np.asarray(cl).tobytes()
        assert len(list(store_dir.glob("??/*.raw"))) == 2
        again, stats = self.run_daemon(both, store_dir=store_dir)
        store = stats["store"]
        assert [r["tier"] for r in again] == ["store", "store"], again
        assert store["hits_disk"] == 2 and store["corrupt"] == 0, store
        for a, b in zip(first, again):
            for name in ("digest", "l", "cl", "k", "delta_m"):
                assert np.asarray(a[name]).tobytes() == \
                    np.asarray(b[name]).tobytes(), name

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

    def test_a_failed_mode_is_an_error_response(self, monkeypatch):
        """A wavenumber that outlasts the escalation ladder answers its
        request at once with the IntegrationError, and the next request
        is served."""
        import time

        failing_request = small_request()

        async def scenario(server):
            # tables resident, so the failing request times the modes
            await server.handle_line(encode_message(
                small_request(k_max=2e-3).to_doc()))
            fail_at(monkeypatch, failing_request.kgrid().k[1])
            t0 = time.perf_counter()
            failed = await server.handle_line(
                encode_message(failing_request.to_doc()))
            seconds = time.perf_counter() - t0
            served = await server.handle_line(encode_message(
                small_request(k_max=2.5e-3).to_doc()))
            return decode_message(failed), seconds, decode_message(served)

        failed, seconds, served = self.run_daemon(scenario)
        assert failed["ok"] is False
        assert failed["error"].startswith("IntegrationError: ")
        assert seconds < 2.0
        assert served["ok"] is True and served["tier"] == "warm"

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
                                 "resident_evictions": 0,
                                 "modes_reused": 0}
        assert stats["resident_models"] == 1


class TestWriteBehind:
    """A miss is answered once its product is in memory; the store file
    follows on the daemon's writer thread, drained by ``close``."""

    run_daemon = TestDaemon.run_daemon

    def test_a_failed_store_write_still_answers(self, tmp_path,
                                                monkeypatch):
        """A full disk costs the file, not the answer: the miss is
        served, the product stays in memory, the repeat is a hit, and
        the failure is counted."""
        from repro.cache.store import TableStore

        def full_disk(self, key, arrays, meta=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(TableStore, "save", full_disk)
        line = encode_message(small_request().to_doc())

        async def scenario(server):
            first = await server.handle_line(line)
            repeat = await server.handle_line(line)
            return first, repeat, server

        first, repeat, server = self.run_daemon(
            scenario, store_dir=tmp_path / "results")
        first, repeat = decode_message(first), decode_message(repeat)
        assert first["ok"] is True and first["tier"] == "cold"
        assert repeat["tier"] == "store" and repeat["cl"] == first["cl"]
        stats = server.stats()
        assert stats["metrics"]["computed_runs"] == 1
        assert stats["store"]["write_errors"] == 1
        assert stats["store"]["pending_writes"] == 0
        assert first["digest"] in server.store
        assert not any(p.is_file()
                       for p in (tmp_path / "results").rglob("*"))

    def test_a_miss_is_answered_before_its_file_is_written(
            self, tmp_path, monkeypatch):
        """With every store write held, a cold miss is answered over
        TCP while its file does not exist; on release and ``close`` the
        file lands, and a fresh ResultStore reads back the served
        arrays bit for bit."""
        import threading

        from repro.cache.store import TableStore

        release, save = threading.Event(), TableStore.save

        def held(self, *args, **kwargs):
            assert release.wait(timeout=60), "the save was never released"
            return save(self, *args, **kwargs)

        monkeypatch.setattr(TableStore, "save", held)
        request = small_request()
        digest = request.digest()

        async def main():
            server = SpectrumServer(nproc=3, store_dir=tmp_path)
            await server.start()

            def ask():
                with ServeClient(port=server.port) as client:
                    return client.spectrum(request)

            try:
                response = await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(None, ask),
                    timeout=60)
                path = server.store.disk.path(digest)
                stats = server.store.stats()
                assert response["tier"] == "cold", response["tier"]
                assert not path.exists(), path
                assert stats["pending_writes"] == 1, stats
                served = server.store.get(digest).arrays
            finally:
                release.set()
                server.close()
            assert path.is_file()
            assert server.store.stats()["pending_writes"] == 0
            return response, served

        response, served = asyncio.run(main())
        stored = ResultStore(tmp_path).get(digest).arrays
        assert sorted(stored) == sorted(served)
        for name, array in served.items():
            assert (stored[name].dtype, stored[name].shape,
                    stored[name].tobytes()) == \
                (array.dtype, array.shape, array.tobytes()), name
        assert np.asarray(response["cl"]).tobytes() == \
            stored["cl"].tobytes()

    def test_close_drains_a_slow_write(self, tmp_path, monkeypatch):
        """A write still running when the miss is answered is finished
        by ``close``: a second daemon on the same directory answers the
        digest from its store tier, same C_l bits."""
        import time

        from repro.cache.store import TableStore

        save = TableStore.save

        def slow_save(self, *args, **kwargs):
            time.sleep(0.2)
            return save(self, *args, **kwargs)

        monkeypatch.setattr(TableStore, "save", slow_save)
        store = tmp_path / "results"
        line = encode_message(small_request().to_doc())

        async def ask(server):
            answer = decode_message(await server.handle_line(line))
            return answer, server.store.stats()["pending_writes"]

        first, pending = self.run_daemon(ask, store_dir=store)
        assert first["tier"] == "cold" and pending == 1
        monkeypatch.undo()
        second, _ = self.run_daemon(ask, store_dir=store)
        assert second["tier"] == "store"
        assert second["digest"] == first["digest"]
        assert second["cl"] == first["cl"]

    def test_sigterm_is_a_clean_shutdown(self, tmp_path):
        """``repro serve`` takes SIGTERM as the ``shutdown`` op: it
        exits 0 with the answered miss's file on disk."""
        import os
        import subprocess
        import sys
        import time

        ready, store = tmp_path / "ready", tmp_path / "results"
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--nproc", "2",
             "--ready-file", str(ready), "--store-dir", str(store)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not ready.exists() and daemon.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            port = int(ready.read_text().split()[1])
            request = small_request()
            with ServeClient(port=port) as client:
                assert client.spectrum(request)["tier"] == "cold"
            daemon.send_signal(signal.SIGTERM)
            _out, err = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        assert daemon.returncode == 0, err
        fresh = ResultStore(store)
        assert fresh.get(request.digest()) is not None
        assert fresh.hits_disk == 1

    def test_a_pending_entry_is_a_memory_hit(self, tmp_path, monkeypatch):
        """While its file is being written, an entry — even one already
        evicted from memory — is a memory hit, never a miss."""
        import threading

        from repro.cache.store import TableStore

        release = threading.Event()
        save = TableStore.save

        def held_save(self, *args, **kwargs):
            assert release.wait(timeout=60)
            return save(self, *args, **kwargs)

        monkeypatch.setattr(TableStore, "save", held_save)
        entry = {"cl": np.full(1024, 7.0)}
        store = ResultStore(tmp_path, mem_cap_bytes=1024 * 8)
        writers = []
        for digest in ("kept", "filler"):  # the filler evicts "kept"
            result = store.admit(digest, entry)
            writers.append(threading.Thread(
                target=store.persist, args=(digest, result)))
            writers[-1].start()
        try:
            assert store.evictions == 1 and "kept" in store
            hit = store.get("kept")
            stats = store.stats()
        finally:
            release.set()
            for writer in writers:
                writer.join(timeout=60)
        assert not any(writer.is_alive() for writer in writers)
        assert hit is not None
        np.testing.assert_array_equal(hit.arrays["cl"], entry["cl"])
        assert (stats["hits_mem"], stats["misses"]) == (1, 0)
        assert stats["pending_writes"] == 2
        assert store.stats()["pending_writes"] == 0
        assert ResultStore(tmp_path).get("kept") is not None

    def test_racing_writers_leave_nothing_pending(self, tmp_path):
        """Eight threads admitting and persisting four digests, with the
        interpreter switching threads as often as it can: every write
        clears its own pending mark and no other."""
        import sys
        import threading

        store = ResultStore(tmp_path, mem_cap_bytes=2 * 1024 * 8)
        barrier = threading.Barrier(8)

        def write(i):
            barrier.wait(timeout=60)
            for n in range(10):
                digest = f"d{(i + n) % 4}"
                store.persist(digest, store.admit(
                    digest, {"cl": np.full(1024, float(i))}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = store.stats()
        assert (stats["pending_writes"], stats["write_errors"]) == (0, 0)
        fresh = ResultStore(tmp_path)
        assert all(fresh.get(f"d{j}") is not None for j in range(4))


class TestResponseLine:
    def test_a_spectrum_line_is_the_documents_encoding(self):
        """With the timing fixed, a spectrum response line is the
        encoding of the document the daemon answered with before its
        body was spliced in: members, order and every float's bytes."""
        from repro.serve import StoredResult
        from repro.spectra import band_power_uk

        l = np.arange(2, 9, dtype=np.int64)
        cl = np.array([1 / 3, 2e-10, 1e-300, 0.0, 5e-11, np.pi, 7e-12])
        stored = StoredResult({
            "l": l, "cl": cl, "k": np.linspace(3e-4, 3e-3, 4),
            "delta_m": np.array([-0.0, 1.5e5, 2.0 ** 0.5, -3.25]),
            "headers": np.ones((4, 21)),
        }, meta={"t_cmb": 2.7255})
        server = SpectrumServer(nproc=2)
        try:
            line = server._response("ab" * 32, "store", stored,
                                    0.125, 6.103515625e-05)
        finally:
            server.close()
        bp = band_power_uk(l, cl, 2.7255)
        assert line == encode_message({
            "ok": True,
            "op": "spectrum",
            "protocol": PROTOCOL_VERSION,
            "digest": "ab" * 32,
            "tier": "store",
            "l": [int(v) for v in l],
            "cl": [float(v) for v in cl],
            "band_power_uk": [float(v) for v in bp],
            "k": [float(v) for v in stored.arrays["k"]],
            "delta_m": [float(v) for v in stored.arrays["delta_m"]],
            "timing": {"queue_wait_s": 0.125, "wall_s": 6.103515625e-05},
        })


class TestJournal:
    def test_a_killed_writer_keeps_every_line(self, tmp_path):
        """A daemon killed outright — SIGKILL, the OOM killer — runs no
        handler: every line it recorded must already be on its way to
        the disk."""
        import subprocess
        import sys

        path = tmp_path / "j.jsonl"
        code = (f"import os, signal, sys; sys.path[:0] = {sys.path!r}\n"
                "from repro.serve.daemon import ServeJournal\n"
                f"journal = ServeJournal({str(path)!r})\n"
                "for i in range(5):\n"
                "    journal.record({'digest': str(i), 'tier': 'cold'})\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        assert [json.loads(line)["digest"]
                for line in path.read_text().splitlines()] == list("01234")


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
        report = Telemetry()
        report.meta["driver"] = "serve"
        report.serve = m
        d = report.to_dict()
        assert d["totals"]["serve_requests"] == 3
        back = Telemetry.from_dict(d)
        assert back.serve.by_tier == m.by_tier
        assert back.serve.warm_hit_rate == pytest.approx(2 / 3)

    def test_server_report_has_serve_section(self):
        async def scenario(server):
            loop = asyncio.get_running_loop()

            def one():
                with ServeClient(port=server.port) as client:
                    return client.spectrum(small_request())

            await loop.run_in_executor(None, one)
            return server.telemetry

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
