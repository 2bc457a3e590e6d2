"""TAB-FLOPS — Section 5.1's sustained-rate table.

The paper reports sustained rates per machine; with the schedule
simulator and the calibrated cost model those numbers are emergent:
this benchmark regenerates the whole table and compares row by row.
It also measures *this* Python implementation's real per-mode
throughput so the substitution is quantified.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, standard_cdm
from repro.cluster import (
    CRAY_C90,
    CRAY_T3D,
    IBM_SP2,
    IBM_SP2_TUNED,
    paper_cost_model,
    simulate_schedule,
)
from repro.linger import run_linger
from repro.perturbations import evolve_mode
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

#: (machine, nodes, paper's sustained Gflop for the production run)
PAPER_ROWS = [
    (IBM_SP2, 64, 2.4),
    (IBM_SP2, 256, 9.6),
    (IBM_SP2_TUNED, 256, 15.0),
    (CRAY_T3D, 256, 3.7),
]


@pytest.fixture(scope="module")
def production():
    cm = paper_cost_model()
    k_big = (cm.lmax_cap - cm.lmax_floor) / cm.lmax_per_ktau / cm.tau0
    ks = np.sort(np.linspace(1e-4, k_big, 5000))[::-1]
    return cm, ks


def test_flops_table(production, benchmark, capsys):
    cm, ks = production

    def build():
        return [
            simulate_schedule(ks, machine, cm, nodes)
            for machine, nodes, _ in PAPER_ROWS
        ]

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for (machine, nodes, paper), r in zip(PAPER_ROWS, results):
        rows.append([machine.name, nodes, r.gflops_sustained, paper,
                     r.gflops_sustained / paper])
    # serial C90 row: one node, sustained rate is the machine's own
    rows.insert(0, [CRAY_C90.name + " (serial)", 1,
                    CRAY_C90.mflop_per_node / 1000.0, 0.570, 1.0])

    with capsys.disabled():
        print()
        print(format_table(
            ["machine", "nodes", "Gflop/s (model)", "Gflop/s (paper)",
             "ratio"],
            rows,
            title="TAB-FLOPS: sustained rates, production run",
        ))
        hours = np.sum(cm.work_seconds(ks, CRAY_C90.mflop_per_node)) / 3600
        print(f"production-run cost: {hours:.1f} C90-CPU-hours "
              "(paper: ~75)")

    for (_, _, paper), r in zip(PAPER_ROWS, results):
        assert r.gflops_sustained == pytest.approx(paper, rel=0.15)


def test_python_throughput(bg, thermo, benchmark, capsys):
    """Measured per-mode cost of this package's integrator (the
    substitution's real-world throughput)."""
    k = 0.02

    def one_mode():
        return evolve_mode(bg, thermo, k, rtol=2e-4)

    t0 = time.process_time()
    mode = benchmark.pedantic(one_mode, rounds=1, iterations=1)
    cpu = time.process_time() - t0
    with capsys.disabled():
        print(f"\nPython mode k={k}: {cpu:.2f} CPU-s, "
              f"{mode.stats.n_rhs} RHS evaluations, "
              f"{mode.stats.n_rhs / max(cpu, 1e-9):,.0f} RHS/s")
    assert mode.stats.n_rhs > 0


def test_telemetered_flop_accounting(bg, thermo, benchmark, capsys):
    """A telemetered serial run: per-mode RHS evaluations, accept/reject
    counts and estimated flops as measured by the integrator itself,
    archived as ``BENCH_flops.json``."""
    params = standard_cdm()
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 5))
    config = LingerConfig(record_sources=False, keep_mode_results=False,
                          lmax_photon=8, lmax_nu=8, rtol=3e-4)
    telemetry = Telemetry()
    benchmark.pedantic(
        lambda: run_linger(params, kgrid, config, background=bg,
                           thermo=thermo, telemetry=telemetry),
        rounds=1, iterations=1,
    )
    report = telemetry
    report.meta.update({"table": "TAB-FLOPS"})
    out = report.save(ARTIFACT_DIR / "BENCH_flops.json")

    modes = sorted(report.modes, key=lambda m: m.k)
    rows = [[m.k, m.n_rhs, m.n_steps, m.n_rejected, float(m.flops_est),
             m.flops_est / max(m.wall_seconds, 1e-9) / 1e6]
            for m in modes]
    with capsys.disabled():
        print()
        print(format_table(
            ["k", "RHS evals", "accepted", "rejected", "flops (est)",
             "Mflop/s (est)"],
            rows,
            title=f"TAB-FLOPS: measured integrator cost -> {out.name}",
            float_fmt="{:.4g}",
        ))

    totals = report.totals
    assert totals["n_modes"] == kgrid.nk
    assert totals["flops_est"] == sum(m.flops_est for m in modes) > 0
    assert totals["n_rhs"] == sum(m.n_rhs for m in modes)
    # per-mode cost rises with k (the premise of largest-k-first)
    assert modes[-1].n_rhs > modes[0].n_rhs
    assert modes[-1].flops_est > modes[0].flops_est
    # every mode records a full accept/reject breakdown
    for m in modes:
        assert m.n_steps > 0 and m.n_rhs >= 8 * m.n_steps
        assert m.tau_switch > 0.0
