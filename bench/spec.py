"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root is ``contract()`` written out;
``bench/tests/test_bench_smoke.py`` checks that the two agree.  The
driver requires every end-to-end metric on every workload, so each
workload is one *route* through the system on one problem and every
metric below means the same thing on all of them (see README.md).
"""

from __future__ import annotations

#: seconds one run measures (``--seconds`` default; the contract value)
RUN_SECONDS = 10

#: PLINGER / warm-pool width: master + 2 workers on the 2-core box
NPROC = 3

WORKLOADS = [
    ("fig2_sparse",
     "FIG2-class C_l: sparse-k LOS run, serial. Record-grid-bound steps on a "
     "small state, so integrator-loop overhead and the only real spectra "
     "stage show here."),
    ("hier_serial",
     "The paper's hierarchy C_l on a uniform narrow k-range, plain "
     "single-thread run_linger: baseline for hier_plinger and the batched "
     "engine's favourable regime."),
    ("hier_plinger",
     "The identical problem through run_plinger(procs, nproc 3): adds only "
     "mp + plinger, so FIG1 scaling efficiency is hier_serial.solve_s over "
     "twice this solve_s."),
    ("matter_mdm",
     "Massive-neutrino P(k) on log-spaced k: RHS-bound large state with "
     "diverging step counts per mode, where batching uniform lanes can lose "
     "what it wins on hier_*."),
    ("serve_miss",
     "repro serve daemon (nproc 3), closed loop, 1 client: each op is a new "
     "cosmology asked cold then warm; engine-bound through pool, coalescing "
     "and wire. Ends with a burst of 2."),
    ("serve_hit",
     "Same daemon, closed loop, 1 client, store hits round-robin over filled "
     "digests: bypasses the engine, so store, codec and wire set the "
     "latency."),
]

#: (name, unit, better, bound).  ``bound`` is the relative worsening of
#: the median a later PR may cause before it is rejected.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better) — the per-layer metrics every traced run
#: reports on every workload.  Route-specific extras (plinger.*,
#: serve.*, spectra sub-stages) are printed and written to
#: bench/out/ but are not part of the contract, because a metric that
#: exists on one workload only cannot be reported on the others.
PER_LAYER = [
    ("result_err", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("background.build_s", "s", "lower"),
    ("background.share", "ratio", "lower"),
    ("thermo.build_s", "s", "lower"),
    ("thermo.share", "ratio", "lower"),
    ("linger.run_s", "s", "lower"),
    ("linger.share", "ratio", "lower"),
    ("linger.n_modes", "count", "lower"),
    ("linger.n_rhs", "count", "lower"),
    ("linger.n_steps", "count", "lower"),
    ("linger.us_per_rhs", "us", "lower"),
    ("linger.rhs_per_step", "ratio", "lower"),
    ("linger.other_share", "ratio", "lower"),
    ("linger.save_s", "s", "lower"),
    ("linger.load_s", "s", "lower"),
    ("linger.archive_bytes", "bytes", "lower"),
    ("perturbations.rhs_us", "us", "lower"),
    ("perturbations.rhs_us_lane8", "us", "lower"),
    ("perturbations.system_build_ms", "ms", "lower"),
    ("perturbations.rhs_share", "ratio", "lower"),
    ("integrators.step_us", "us", "lower"),
    ("integrators.loop_share", "ratio", "lower"),
    ("spectra.run_s", "s", "lower"),
    ("spectra.share", "ratio", "lower"),
    ("mp.world_start_s", "s", "lower"),
    ("mp.rtt_us", "us", "lower"),
    ("mp.mb_per_s", "MB/s", "higher"),
    ("mp.messages", "count", "lower"),
    ("mp.bytes", "bytes", "lower"),
    ("plinger.share", "ratio", "lower"),
    ("cache.cold_build_s", "s", "lower"),
    ("cache.warm_load_s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("serve.share", "ratio", "lower"),
    ("serve.wire_share", "ratio", "lower"),
    ("serve.store_get_us", "us", "lower"),
    ("serve.store_put_ms", "ms", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

#: Hard accuracy budgets: max relative deviation of an op's output from
#: its reference.  Solver workloads: the committed dense ``rtol=1e-6``
#: reference, budget fixed at 1.5 x the largest value any of the eight
#: input variants gave at the commit that defined the benchmark.  Serve
#: workloads: the in-process serial run of the same request (measures
#: 0.0; the budget allows only a last-digit JSON round trip).  Never
#: loosened.  Over budget = failed op.
ERR_BUDGET = {
    "fig2_sparse": 1.89e-2,  # sparse-k interpolation + rtol 2e-4
    "hier_serial": 4.1e-4,
    "hier_plinger": 4.1e-4,
    "matter_mdm": 8.9e-7,
    "serve_miss": 1e-12,
    "serve_hit": 1e-12,
}


def contract() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
