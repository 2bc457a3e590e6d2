"""TAB-FAULT — the price of surviving faults.

Three PLINGER runs of the same 8-mode grid on 3 workers through a
fault-injecting transport: a clean run (what the wrapper and a snappy
policy cost over the bare transport on the default policy), a run with a
~5% result-drop rate, and a run
where one worker is killed the moment it ships its first result.  For
each faulted run the harness records the recovery economics —

* **recovery latency**: wallclock from losing a wavenumber to banking
  its recomputed result (``FaultReport.recovery_wall_seconds``);
* **wasted work fraction**: re-dispatched integrations as a fraction
  of all integrations performed, ``retries / (nk + retries)``;

and every run must still reproduce the fault-free spectrum at
rtol=1e-8.  The numbers land in ``BENCH_fault.json``; assertion floors
are deliberately loose (completion, exact physics, sub-50% waste) so a
noisy CI neighbor cannot flake the suite.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, standard_cdm
from repro.mp.backends.faulty import FaultPolicy, FaultyWorld
from repro.mp.backends.inprocess import InProcessWorld
from repro.plinger import FaultTolerance, Tag, run_plinger
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

NK = 8
NPROC = 4

FT = FaultTolerance(
    worker_timeout=1.0,
    heartbeat_interval=0.25,
    missed_heartbeats=4,
    poll_seconds=0.02,
    payload_timeout=2.0,
    max_retries=10,
)


def _config():
    return LingerConfig(record_sources=False, keep_mode_results=False,
                        rtol=1e-4)


def _run(scdm, bg, thermo, kgrid, policies, telemetry=None):
    world = FaultyWorld(InProcessWorld(NPROC), policies)
    kwargs = {} if telemetry is None else {"telemetry": telemetry}
    t0 = time.perf_counter()
    result, stats = run_plinger(
        scdm, kgrid, _config(), nproc=NPROC, backend="inprocess",
        background=bg, thermo=thermo, fault_tolerance=FT, world=world,
        **kwargs,
    )
    wall = time.perf_counter() - t0
    return result, stats.fault_report, wall


def _wasted_fraction(fr) -> float:
    return fr.total_retries / (NK + fr.total_retries)


def test_fault_recovery_economics(scdm, bg, thermo, capsys):
    """Clean/drop/kill scenarios on one grid, archived as
    ``BENCH_fault.json``."""
    kgrid = KGrid.from_k(np.geomspace(3e-4, 0.03, NK))

    # the bare transport on the default policy: the physics golden
    t0 = time.perf_counter()
    golden, _ = run_plinger(scdm, kgrid, _config(), nproc=NPROC,
                            backend="inprocess", background=bg,
                            thermo=thermo)
    bare_wall = time.perf_counter() - t0

    none = FaultPolicy(selector=lambda m, c: False)
    _, fr_clean, clean_wall = _run(scdm, bg, thermo, kgrid, none)

    drop = FaultPolicy.every_nth(5, tags=[Tag.HEADER], action="drop",
                                 max_faults=2)
    res_drop, fr_drop, drop_wall = _run(scdm, bg, thermo, kgrid, drop)

    telemetry = Telemetry()
    kill = FaultPolicy(
        selector=lambda m, c: m.tag == Tag.HEADER and m.source == 2,
        action="kill_rank", max_faults=1,
    )
    res_kill, fr_kill, kill_wall = _run(scdm, bg, thermo, kgrid, kill,
                                        telemetry=telemetry)

    # faults never change the physics
    for res in (res_drop, res_kill):
        for p_f, p_g in zip(res.payloads, golden.payloads):
            np.testing.assert_allclose(p_f.f_gamma, p_g.f_gamma, rtol=1e-8)

    report = telemetry
    report.meta.update({
        "table": "TAB-FAULT",
        "nk": NK,
        "nproc": NPROC,
        "bare_wall_seconds": bare_wall,
        "ft_clean_wall_seconds": clean_wall,
        "wrapper_overhead": clean_wall / bare_wall,
        "drop_wall_seconds": drop_wall,
        "drop_retries": fr_drop.total_retries,
        "drop_recovery_wall_seconds": fr_drop.recovery_wall_seconds,
        "drop_wasted_fraction": _wasted_fraction(fr_drop),
        "kill_wall_seconds": kill_wall,
        "kill_dead_workers": fr_kill.dead_workers,
        "kill_retries": fr_kill.total_retries,
        "kill_recovery_wall_seconds": fr_kill.recovery_wall_seconds,
        "kill_wasted_fraction": _wasted_fraction(fr_kill),
    })
    out = report.save(ARTIFACT_DIR / "BENCH_fault.json")

    with capsys.disabled():
        print()
        print(format_table(
            ["quantity", "clean", "5% drops", "1 kill"],
            [
                ["wall [s]", f"{clean_wall:.2f}", f"{drop_wall:.2f}",
                 f"{kill_wall:.2f}"],
                ["retries", fr_clean.total_retries, fr_drop.total_retries,
                 fr_kill.total_retries],
                ["recovery latency [s]", "-",
                 f"{fr_drop.recovery_wall_seconds:.2f}",
                 f"{fr_kill.recovery_wall_seconds:.2f}"],
                ["wasted work", f"{_wasted_fraction(fr_clean):.3f}",
                 f"{_wasted_fraction(fr_drop):.3f}",
                 f"{_wasted_fraction(fr_kill):.3f}"],
                ["dead workers", 0, len(fr_drop.dead_workers),
                 len(fr_kill.dead_workers)],
            ],
            title=f"TAB-FAULT: recovery economics -> {out.name}",
        ))

    # loose floors: the protocol must recover, not win a race
    assert not fr_clean.any_faults
    assert fr_drop.total_retries >= 1
    assert fr_drop.recovery_wall_seconds > 0.0
    assert fr_kill.dead_workers == [2]
    assert fr_kill.recovery_wall_seconds > 0.0
    # a handful of faults must not burn more than half the work
    assert _wasted_fraction(fr_drop) < 0.5
    assert _wasted_fraction(fr_kill) < 0.5
