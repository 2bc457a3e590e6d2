"""TAB-SHARD — multi-node sockets sharding: scaling.

The TCP-sockets backend runs the PLINGER protocol over real sockets
between real OS processes — the transport a multi-node shard would
use, exercised here on localhost where its results must stay bitwise
identical to the serial integrator.  This benchmark measures what the
paper's Table 2 measured for its machines, but on the live transport:
the same workload at 1, 2 and 4 worker ranks — wall seconds, master
message counts, and the raw bytes that crossed the TCP wire (frame
overhead included) — each run's C_l bitwise equal to the serial run's.

Everything is archived as ``BENCH_shard.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import KGrid, LingerConfig, standard_cdm
from repro.linger import run_linger
from repro.mp.backends.sockets import SocketsWorld
from repro.plinger import run_plinger
from repro.spectra import cl_from_hierarchy
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

#: Worker counts for the scaling sweep (nproc = workers + master).
WORKER_COUNTS = (1, 2, 4)


def _workload():
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.03, 12))
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-4,
                          record_sources=False, keep_mode_results=False)
    return standard_cdm(), kgrid, config


def test_sockets_scaling(bg, thermo, benchmark, capsys):
    """Scaling at 1/2/4 sockets ranks -> BENCH_shard.json."""
    params, kgrid, config = _workload()
    serial = run_linger(params, kgrid, config, background=bg,
                        thermo=thermo)
    _l, cl_ref = cl_from_hierarchy(serial)

    def sweep():
        rows = []
        for workers in WORKER_COUNTS:
            nproc = workers + 1
            world = SocketsWorld(nproc)
            t0 = time.perf_counter()
            result, stats = run_plinger(
                params, kgrid, config, nproc=nproc, backend="sockets",
                world=world, background=bg, thermo=thermo)
            wall = time.perf_counter() - t0
            _l2, cl = cl_from_hierarchy(result)
            assert np.array_equal(cl, cl_ref), (
                f"sockets C_l diverged from serial at {workers} workers")
            wire = world.wire_stats()
            rows.append({
                "workers": workers,
                "nproc": nproc,
                "wall_seconds": wall,
                "master_messages_received": stats.master_messages_received,
                "master_bytes_received": stats.master_bytes_received,
                "wire_bytes_sent": sum(s["sent"] for s in wire.values()),
                "wire_bytes_received": sum(s["received"]
                                           for s in wire.values()),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {
        "table": "TAB-SHARD",
        "workload": {"nk": kgrid.nk, "lmax": 8, "rtol": 1e-4},
        "bitwise_vs_serial": True,
        "scaling": rows,
        "created_unix": time.time(),
    }
    out = ARTIFACT_DIR / "BENCH_shard.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    with capsys.disabled():
        print()
        print(format_table(
            ["workers", "wall [s]", "msgs to master", "wire bytes"],
            [[r["workers"], f"{r['wall_seconds']:.2f}",
              r["master_messages_received"],
              r["wire_bytes_sent"] + r["wire_bytes_received"]]
             for r in rows],
            title=f"TAB-SHARD: sockets scaling ({kgrid.nk} modes) "
                  f"-> {out.name}",
        ))

    # loose structural floors only — wall-clock on a busy CI box is not
    # a physics claim
    for row in rows:
        assert row["master_messages_received"] == \
            row["nproc"] - 1 + 2 * kgrid.nk
        assert row["wire_bytes_sent"] > 0
        assert row["wire_bytes_received"] > 0
