"""TAB-SERVE — spectrum-service latency: store hits, coalescing, warm pool.

The spectrum service answers C_l requests from three tiers: an exact
hit in the content-addressed run-result store replays stored arrays in
milliseconds; a request identical to one already in flight coalesces
onto that computation; a genuine miss runs its modes on the warm
pool's resident threads, and the pool keeps each recent cosmology's
built tables so a repeat cosmology skips the table build.

This benchmark drives a live daemon over real TCP with a
duplicate-heavy request mix — the parameter-study workload the service
targets — and separately times warm-pool dispatch against the
re-fork alternative (a fresh ``procs`` PLINGER world per request) on a
cache-miss mix.  Requests/sec, p50/p99 latency per tier, the per-tier
hit rates, and the dispatch comparison are archived as
``BENCH_serve.json``.

Acceptance floors (from the ISSUE): repeat-cosmology p50 at least 5x
below cold-start p50, warm-pool dispatch faster than re-forking, a
burst of identical requests computed exactly once, and a warm hit rate
of at least 0.5 on the duplicate-heavy mix.
"""

import asyncio
import time
from pathlib import Path

import numpy as np

from repro import standard_cdm
from repro.plinger.driver import run_plinger
from repro.serve import ServeClient, ServeRequest, SpectrumServer, WarmPool
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

#: Distinct request shapes (same cosmology — the warm pool keeps one
#: set of tables resident for all of them).
DISTINCT_NK = (4, 5, 6)
#: How many times the duplicate-heavy mix replays each distinct request.
REPEAT_ROUNDS = 8
#: Concurrent identical requests in the coalescing burst.
BURST = 4
#: Fresh k-grids for the dispatch leg (store misses by construction).
#: Small on purpose: short requests are the regime where per-request
#: dispatch overhead — forking a world and rebuilding tables — is the
#: dominant cost, and the table build is the part the pool amortizes.
MISS_KMAX = (2.0e-3, 2.5e-3, 3.0e-3)


def _request(nk: int, k_max: float = 3e-3) -> ServeRequest:
    return ServeRequest(params=standard_cdm(), k_min=3e-4, k_max=k_max,
                        nk=nk, lmax=8, rtol=1e-3)


def _percentiles(samples):
    arr = np.asarray(samples, dtype=np.float64)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def test_serve_latency_and_dispatch(benchmark, capsys, tmp_path):
    """Live-daemon latency mix + warm-pool vs re-fork, -> BENCH_serve.json."""
    distinct = [_request(nk) for nk in DISTINCT_NK]

    def measure():
        async def main():
            server = SpectrumServer(nproc=3,
                                    store_dir=tmp_path / "results")
            await server.start()
            loop = asyncio.get_running_loop()
            latencies: dict[str, list[float]] = {}

            def ask(request):
                t0 = time.perf_counter()
                with ServeClient(port=server.port) as client:
                    response = client.spectrum(request)
                return response["tier"], time.perf_counter() - t0

            def record(tier, dt):
                latencies.setdefault(tier, []).append(dt)

            t_mix = time.perf_counter()
            # first-contact pass: every distinct request computes
            for request in distinct:
                record(*await loop.run_in_executor(None, ask, request))
            # coalescing burst: identical new requests, concurrently
            burst_request = _request(7)
            computed_before = server.metrics.computed_runs
            burst = await asyncio.gather(*[
                loop.run_in_executor(None, ask, burst_request)
                for _ in range(BURST)])
            for tier, dt in burst:
                record(tier, dt)
            burst_computed = server.metrics.computed_runs - computed_before
            # duplicate-heavy steady state: every request is a store hit
            for _ in range(REPEAT_ROUNDS):
                for request in distinct:
                    record(*await loop.run_in_executor(None, ask, request))
            mix_seconds = time.perf_counter() - t_mix
            server.close()
            return server, latencies, mix_seconds, burst_computed

        return asyncio.run(main())

    server, latencies, mix_seconds, burst_computed = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    metrics = server.metrics

    computed = latencies.get("cold", []) + latencies.get("warm", [])
    repeats = latencies["store"]
    p50_cold, p99_cold = _percentiles(computed)
    p50_repeat, p99_repeat = _percentiles(repeats)
    repeat_speedup = p50_cold / p50_repeat
    requests_per_second = metrics.requests / mix_seconds
    tier_rates = {tier: count / metrics.requests
                  for tier, count in sorted(metrics.by_tier.items())}

    # dispatch leg: the pool (warm tables, resident threads) vs
    # a fresh forked world and table build per request, on a cache-miss
    # mix (new k-grids, same cosmology)
    warm_seconds, refork_seconds = [], []
    with WarmPool(nproc=3) as pool:
        primer = _request(DISTINCT_NK[0])
        pool.run(primer.params, primer.kgrid(), primer.config())
        for k_max in MISS_KMAX:
            request = _request(2, k_max=k_max)
            t0 = time.perf_counter()
            _result, was_warm = pool.run(request.params, request.kgrid(),
                                         request.config())
            warm_seconds.append(time.perf_counter() - t0)
            assert was_warm
    for k_max in MISS_KMAX:
        request = _request(2, k_max=k_max)
        t0 = time.perf_counter()
        run_plinger(request.params, request.kgrid(), request.config(),
                    nproc=3, backend="procs")
        refork_seconds.append(time.perf_counter() - t0)
    warm_median = float(np.median(warm_seconds))
    refork_median = float(np.median(refork_seconds))
    dispatch_speedup = refork_median / warm_median

    report = server.telemetry
    report.meta.update({
        "table": "TAB-SERVE",
        "distinct_requests": len(DISTINCT_NK),
        "repeat_rounds": REPEAT_ROUNDS,
        "burst_size": BURST,
        "burst_computed_runs": burst_computed,
        "requests_per_second": requests_per_second,
        "p50_cold_seconds": p50_cold,
        "p99_cold_seconds": p99_cold,
        "p50_repeat_seconds": p50_repeat,
        "p99_repeat_seconds": p99_repeat,
        "repeat_speedup": repeat_speedup,
        "tier_hit_rates": tier_rates,
        "warm_hit_rate": metrics.warm_hit_rate,
        "warm_dispatch_median_seconds": warm_median,
        "refork_median_seconds": refork_median,
        "dispatch_speedup": dispatch_speedup,
    })
    out = report.save(ARTIFACT_DIR / "BENCH_serve.json")

    with capsys.disabled():
        print()
        print(format_table(
            ["quantity", "value"],
            [
                ["requests served", metrics.requests],
                ["requests/sec (mix)", f"{requests_per_second:.1f}"],
                ["p50 cold-start [s]", f"{p50_cold:.3f}"],
                ["p50 repeat (store) [s]", f"{p50_repeat:.5f}"],
                ["p99 repeat (store) [s]", f"{p99_repeat:.5f}"],
                ["repeat speedup (p50)", f"{repeat_speedup:.0f}x"],
                ["tier hit rates", " ".join(
                    f"{t}={r:.2f}" for t, r in tier_rates.items())],
                ["burst computed runs", f"{burst_computed}/{BURST}"],
                ["warm dispatch median [s]", f"{warm_median:.3f}"],
                ["re-fork median [s]", f"{refork_median:.3f}"],
                ["dispatch speedup", f"{dispatch_speedup:.2f}x"],
            ],
            title=f"TAB-SERVE: spectrum service -> {out.name}",
        ))

    # the ISSUE acceptance floors
    assert repeat_speedup >= 5.0
    assert warm_median < refork_median
    assert burst_computed == 1
    assert metrics.warm_hit_rate >= 0.5
