"""TAB-MSG — Section 4's message economics.

The paper's argument that "the overhead from message passing is
insignificant" rests on numbers this benchmark regenerates: per-mode
CPU from two minutes to half an hour against result messages of
~150 bytes to 80 kB (growing roughly in proportion to CPU time), and a
communication-to-computation time ratio far below 1.

Three layers: the paper-calibrated model (SP2 numbers), real measured
payload bytes + CPU per mode from this package's PLINGER records, and
a fully telemetered PLINGER run whose per-tag message accounting is
written out as ``BENCH_messages.json`` (a
:class:`repro.telemetry.Telemetry` document).
"""

from pathlib import Path

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, run_plinger, standard_cdm
from repro.cluster import IBM_SP2, paper_cost_model
from repro.linger import run_linger
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]


def test_message_economics_model(benchmark, capsys):
    cm = paper_cost_model()
    k_big = (cm.lmax_cap - cm.lmax_floor) / cm.lmax_per_ktau / cm.tau0
    ks = np.geomspace(1e-4, k_big, 9)

    def build():
        cpu_min = cm.work_seconds(ks, IBM_SP2.mflop_per_node) / 60.0
        msg = cm.message_bytes(ks)
        comm_s = np.array([IBM_SP2.message_seconds(b) for b in msg])
        return cpu_min, msg, comm_s

    cpu_min, msg, comm_s = benchmark(build)

    rows = [
        [float(k), float(cm.lmax(k)), float(c), float(b), float(t),
         float(t / (c * 60.0))]
        for k, c, b, t in zip(ks, cpu_min, msg, comm_s)
    ]
    with capsys.disabled():
        print()
        print(format_table(
            ["k [1/Mpc]", "lmax", "CPU [min, Power2]", "result [bytes]",
             "comm [s]", "comm/compute"],
            rows,
            title="TAB-MSG: per-mode cost vs message size (SP2 model)",
            float_fmt="{:.3g}",
        ))

    # the paper's anchors
    assert cpu_min[0] == pytest.approx(2.0, rel=0.05)
    assert cpu_min[-1] == pytest.approx(30.0, rel=0.05)
    assert msg[0] < 500
    assert msg[-1] == pytest.approx(80_000, rel=0.01)
    # message passing insignificant: < 0.01% of compute everywhere
    assert np.all(comm_s / (cpu_min * 60.0) < 1e-4)


def test_measured_payloads(bg, thermo, benchmark, capsys):
    """Real wire records from a scaled-lmax LINGER run: payload bytes
    grow with k along with CPU, exactly as in the paper."""
    params = standard_cdm()
    kgrid = KGrid.from_k(np.geomspace(2e-3, 0.03, 5))
    config = LingerConfig(
        record_sources=False, keep_mode_results=False, rtol=3e-4,
        lmax_mode="scaled", lmax_photon=8, lmax_cap=600,
    )
    result = benchmark.pedantic(
        lambda: run_linger(params, kgrid, config, background=bg,
                           thermo=thermo),
        rounds=1, iterations=1,
    )
    rows = []
    for h, p in zip(result.headers, result.payloads):
        wire_bytes = 8 * (21 + p.wire_length)
        rows.append([h.k, h.lmax, h.cpu_seconds, wire_bytes,
                     float(h.n_rhs)])
    with capsys.disabled():
        print()
        print(format_table(
            ["k", "lmax", "CPU [s]", "wire bytes", "RHS evals"],
            rows,
            title="TAB-MSG: measured per-mode records (this package)",
        ))

    bytes_ = np.array([r[3] for r in rows], dtype=float)
    cpu = np.array([r[2] for r in rows])
    assert np.all(np.diff(bytes_) > 0)  # message grows with k
    # CPU grows with k too (allowing timing noise between neighbours)
    assert cpu[-1] > 1.5 * cpu[0]
    assert np.all(np.diff(cpu) > -0.1 * cpu.max())


def test_telemetered_message_accounting(bg, thermo, benchmark, capsys):
    """A real PLINGER run with telemetry on: per-tag message counts and
    bytes measured by the transport itself, archived as
    ``BENCH_messages.json`` for cross-commit diffing."""
    params = standard_cdm()
    nk, nproc = 6, 3
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, nk))
    config = LingerConfig(record_sources=False, keep_mode_results=False,
                          lmax_photon=8, lmax_nu=8, rtol=3e-4)
    telemetry = Telemetry()
    result, stats = benchmark.pedantic(
        lambda: run_plinger(params, kgrid, config, nproc=nproc,
                            backend="inprocess", background=bg,
                            thermo=thermo, telemetry=telemetry),
        rounds=1, iterations=1,
    )
    report = telemetry
    report.meta.update({"table": "TAB-MSG"})
    out = report.save(ARTIFACT_DIR / "BENCH_messages.json")

    totals = report.totals
    by_tag = totals["messages_sent_by_tag"]
    rows = [[tag, v["count"], v["bytes"]]
            for tag, v in sorted(by_tag.items())]
    with capsys.disabled():
        print()
        print(format_table(
            ["tag", "messages", "bytes"], rows,
            title=f"TAB-MSG: measured traffic ({nk} modes, "
                  f"{nproc - 1} workers) -> {out.name}",
        ))

    # protocol shape: INIT/STOP per worker, WORK per mode, results back
    assert by_tag["INIT"]["count"] == nproc - 1
    assert by_tag["WORK"]["count"] == nk
    assert by_tag["STOP"]["count"] == nproc - 1
    assert by_tag["READY"]["count"] == nproc - 1
    assert by_tag["HEADER"]["count"] == by_tag["PAYLOAD"]["count"] == nk
    assert by_tag["HEADER"]["bytes"] == nk * 21 * 8
    assert by_tag["PAYLOAD"]["bytes"] == nk * (2 * 8 + 8) * 8
    # master + worker views both present, and they balance
    master = next(t for t in report.traffic if t.role == "master")
    workers = [t for t in report.traffic if t.role == "worker"]
    assert len(workers) == nproc - 1
    assert master.messages_received == sum(w.messages_sent for w in workers)
    assert master.messages_sent == sum(w.messages_received for w in workers)
    # the paper's point: result traffic is tiny next to compute
    assert totals["worker_busy_seconds"] > 0
    assert stats.master_bytes_received == master.bytes_received
