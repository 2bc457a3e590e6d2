"""Batched k-mode engine: equivalence with the per-mode reference path.

The batched system/driver pair must reproduce the serial trajectories
lane for lane — same accepted/rejected step sequences, golden-level
(rtol=1e-8) observables — while the lane masking lets ragged batches
(different stiffness, different end times) advance independently.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, run_linger, run_plinger
from repro.errors import ParameterError
from repro.integrators import DVERK, BatchedDVERK
from repro.linger.serial import dispatch_chunks
from repro.perturbations import (
    PerturbationSystem,
    PerturbationSystemBatch,
    StateLayout,
    adiabatic_initial_conditions,
    evolve_mode,
    evolve_modes_batched,
)
from repro.perturbations.evolve import tau_initial
from tests.test_golden_regression import (
    GOLDEN_CL,
    GOLDEN_CONFIG,
    GOLDEN_KGRID,
    GOLDEN_TK,
    RTOL,
    snapshot_cl,
    snapshot_tk,
)


# ---------------------------------------------------------------------------
# Golden-level equivalence of the full pipeline
# ---------------------------------------------------------------------------


@pytest.mark.golden
@pytest.mark.parametrize("batch_size", [1, 4])
def test_batched_run_matches_goldens(scdm, bg_scdm, thermo_scdm,
                                     batch_size):
    """run_linger(batch_size=...) reproduces the frozen C_l and
    transfer snapshots at the golden tolerance."""
    kg = KGrid.from_k(np.geomspace(
        GOLDEN_KGRID["k_min"], GOLDEN_KGRID["k_max"], GOLDEN_KGRID["nk"]))
    result = run_linger(scdm, kg, LingerConfig(**GOLDEN_CONFIG),
                        background=bg_scdm, thermo=thermo_scdm,
                        batch_size=batch_size)
    for path, fresh in ((GOLDEN_CL, snapshot_cl(result)),
                        (GOLDEN_TK, snapshot_tk(result))):
        stored = json.loads(path.read_text())
        for key in fresh:
            if key == "settings":
                continue
            np.testing.assert_allclose(
                np.asarray(fresh[key], dtype=float),
                np.asarray(stored[key], dtype=float),
                rtol=RTOL, atol=0.0,
                err_msg=f"batch_size={batch_size}: {path.name}:{key}",
            )


def test_batched_evolution_reproduces_serial_step_sequence(bg_scdm,
                                                           thermo_scdm):
    """Every lane takes the *same* accept/reject sequence as the serial
    driver integrating that k alone, and lands on the same state."""
    ks = np.geomspace(1e-3, 0.02, 4)
    # the lockstep python driver is what is under test here (the
    # compiled loop never steps lanes together; test_step_loop.py)
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4, rhs_kernel="python")
    batched = evolve_modes_batched(bg_scdm, thermo_scdm, ks, **kwargs)
    for k, mode_b in zip(ks, batched):
        mode_s = evolve_mode(bg_scdm, thermo_scdm, float(k), **kwargs)
        assert mode_b.stats.n_steps == mode_s.stats.n_steps
        assert mode_b.stats.n_rejected == mode_s.stats.n_rejected
        assert mode_b.stats.n_rhs == mode_s.stats.n_rhs
        np.testing.assert_allclose(mode_b.y_final, mode_s.y_final,
                                   rtol=1e-8, atol=1e-300)


def test_batched_rhs_rows_match_serial(bg_scdm, thermo_scdm):
    """One batched RHS evaluation equals the per-k serial RHS row by
    row (floating-point roundoff only)."""
    ks = np.geomspace(3e-4, 0.05, 5)
    layout = StateLayout(lmax_photon=10, lmax_nu=8, nq=0, lmax_massive_nu=0)
    batch = PerturbationSystemBatch(bg_scdm, thermo_scdm, ks, layout)
    Y = np.empty((ks.size, layout.n_state))
    taus = np.empty(ks.size)
    for b, k in enumerate(ks):
        taus[b] = tau_initial(float(k))
        Y[b] = adiabatic_initial_conditions(layout, bg_scdm, float(k),
                                            float(taus[b]))
    # all lanes share one evaluation tau (the RHS is just a function of
    # (tau, Y); it need not be the IC time)
    tau = np.full(ks.size, 2.0 * float(taus.max()))
    for name in ("rhs_full", "rhs_tca"):
        dY = np.array(getattr(batch, name)(tau, Y), copy=True)
        for b, k in enumerate(ks):
            serial = PerturbationSystem(bg_scdm, thermo_scdm, float(k),
                                        layout)
            ref = getattr(serial, name)(float(tau[b]), Y[b])
            np.testing.assert_allclose(dY[b], ref, rtol=1e-12, atol=1e-300,
                                       err_msg=f"{name} lane {b} (k={k})")


# ---------------------------------------------------------------------------
# Lane masking on toy ODEs
# ---------------------------------------------------------------------------


def _decay_rhs(rates):
    rates = np.asarray(rates, dtype=float)

    def rhs(t, Y):
        return -rates[:, None] * Y

    return rhs


def test_lane_masks_reject_one_lane_while_others_advance():
    """A stiff lane racks up rejections without disturbing the step
    sequences of its batch mates."""
    rates = np.array([1.0, 2.0, 400.0])  # lane 2 is stiff
    B = rates.size
    y0 = np.ones((B, 2))
    t0 = np.zeros(B)
    t1 = np.full(B, 2.0)
    drv = BatchedDVERK(_decay_rhs(rates), rtol=1e-8, atol=1e-12,
                       first_step=0.5)
    res = drv.integrate(y0, t0, t1)
    assert res.lane_rejected[2] > 0
    # mild lanes behave exactly as if integrated alone
    for b in (0, 1):
        solo = BatchedDVERK(_decay_rhs(rates[[b]]), rtol=1e-8, atol=1e-12,
                            first_step=0.5)
        ref = solo.integrate(y0[[b]], t0[[b]], t1[[b]])
        assert res.lane_steps[b] == ref.lane_steps[0]
        assert res.lane_rejected[b] == ref.lane_rejected[0]
        # identical step sequence; state agrees to BLAS-contraction
        # roundoff (stage sums vectorize differently per batch width)
        np.testing.assert_allclose(res.y[b], ref.y[0], rtol=1e-13)
    np.testing.assert_allclose(res.y[:, 0], np.exp(-rates * 2.0),
                               rtol=1e-6, atol=1e-10)


def test_lane_finishes_early_and_parks():
    """A lane with a short span parks (frozen state, idle slots
    accounted) while the rest of the batch keeps stepping."""
    rates = np.array([1.0, 1.0])
    y0 = np.ones((2, 1))
    t0 = np.zeros(2)
    t1 = np.array([0.1, 5.0])  # lane 0 is done almost immediately
    drv = BatchedDVERK(_decay_rhs(rates), rtol=1e-6, atol=1e-12)
    res = drv.integrate(y0, t0, t1)
    assert res.t[0] == 0.1 and res.t[1] == 5.0
    assert res.batch.lane_slots_idle > 0
    assert res.lane_steps[1] > res.lane_steps[0]
    assert 0.0 < res.batch.occupancy < 1.0
    np.testing.assert_allclose(res.y[:, 0], np.exp(-rates * t1), rtol=1e-4)


def test_batched_driver_matches_serial_dverk_per_lane():
    """Lockstep batching is a pure restructuring: each lane's accepted
    trajectory equals the serial DVERK solution of that lane."""
    rates = np.array([0.5, 3.0, 10.0])
    y0 = np.vstack([np.ones(3), 2.0 * np.ones(3), 0.5 * np.ones(3)])
    t1 = np.full(3, 1.5)
    res = BatchedDVERK(_decay_rhs(rates), rtol=1e-7,
                       atol=1e-12).integrate(y0, np.zeros(3), t1)
    for b, lam in enumerate(rates):
        serial = DVERK(lambda t, y, lam=lam: -lam * y, rtol=1e-7,
                       atol=1e-12).integrate(y0[b], 0.0, 1.5)
        assert res.lane_steps[b] == serial.stats.n_steps
        assert res.lane_rejected[b] == serial.stats.n_rejected
        np.testing.assert_allclose(res.y[b], serial.y, rtol=1e-12)


def test_stop_points_hit_exactly_per_lane():
    """Interior stop points snap per lane and fire the callback."""
    rates = np.array([1.0, 2.0])
    y0 = np.ones((2, 1))
    stops = [[0.25, 0.5], [0.4]]
    seen: list[tuple[int, float]] = []
    drv = BatchedDVERK(_decay_rhs(rates), rtol=1e-6, atol=1e-12)
    res = drv.integrate(y0, np.zeros(2), np.full(2, 1.0),
                        stop_points=stops,
                        on_stop=lambda b, t, y: seen.append((b, t)))
    assert res.t.tolist() == [1.0, 1.0]
    for b, pts in enumerate(stops):
        hit = [t for bb, t in seen if bb == b]
        assert hit[:-1] == pts and hit[-1] == 1.0


# ---------------------------------------------------------------------------
# Dispatch chunking
# ---------------------------------------------------------------------------


def test_dispatch_chunks_partition_and_order(scdm, bg_scdm, thermo_scdm):
    kg = KGrid.from_k(np.geomspace(1e-4, 0.1, 10))
    cfg = LingerConfig(lmax_photon=8)
    chunks = dispatch_chunks(kg, cfg, 10000.0, 4)
    flat = [i for c in chunks for i in c]
    assert flat == list(kg.dispatch_order)  # largest-k-first preserved
    assert max(len(c) for c in chunks) <= 4
    with pytest.raises(ParameterError):
        dispatch_chunks(kg, cfg, 10000.0, 0)
    # the one check every driver reaches, with the one error type
    tables = dict(background=bg_scdm, thermo=thermo_scdm)
    with pytest.raises(ParameterError):
        run_linger(scdm, kg, cfg, batch_size=0, **tables)
    wire = LingerConfig(lmax_photon=8, record_sources=False,
                        keep_mode_results=False)
    with pytest.raises(ParameterError):
        run_plinger(scdm, kg, wire, nproc=2, batch_size=0, **tables)


def test_dispatch_chunks_split_on_lmax_change():
    kg = KGrid.from_k(np.geomspace(1e-4, 0.1, 12))
    cfg = LingerConfig(lmax_photon=8, lmax_mode="scaled", lmax_cap=60)
    tau0 = 10000.0
    chunks = dispatch_chunks(kg, cfg, tau0, 6)
    for chunk in chunks:
        lmaxes = {cfg.lmax_for_k(float(kg.k[i]), tau0) for i in chunk}
        assert len(lmaxes) == 1


def test_batch_telemetry_records_occupancy(scdm, bg_scdm, thermo_scdm):
    """A batched run books its sweeps/occupancy into the RunReport."""
    kg = KGrid.from_k(np.geomspace(1e-3, 0.01, 4))
    # sweeps and parked lanes are the lockstep python driver's books
    cfg = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                       record_sources=False, keep_mode_results=False,
                       rhs_kernel="python")
    telemetry = Telemetry()
    run_linger(scdm, kg, cfg, background=bg_scdm, thermo=thermo_scdm,
               batch_size=4, telemetry=telemetry)
    report = telemetry.build_report()
    assert len(report.batches) == 1
    batch = report.batches[0]
    assert batch.n_lanes == 4
    assert batch.n_sweeps > 0
    assert 0.0 < batch.occupancy <= 1.0
    assert 0.0 <= batch.wasted_step_fraction < 1.0
    totals = report.totals
    assert totals["n_batches"] == 1
    assert totals["lane_occupancy"] == pytest.approx(batch.occupancy)
    # per-mode records got their grid indices patched in
    assert sorted(m.ik for m in report.modes) == [1, 2, 3, 4]
    assert report.meta["batch_size"] == 4

    # the default run goes through the same function one lane at a
    # time: same per-mode rows, and no chunk left a batch row
    single = Telemetry()
    run_linger(scdm, kg, cfg, background=bg_scdm, thermo=thermo_scdm,
               telemetry=single)
    default = single.build_report()
    assert default.batches == [] and "batch_size" not in default.meta
    assert default.totals["n_batches"] == 0
    by_ik = {m.ik: (m.n_rhs, m.n_steps, m.n_rejected, m.flops_est)
             for m in report.modes}
    assert {m.ik: (m.n_rhs, m.n_steps, m.n_rejected, m.flops_est)
            for m in default.modes} == by_ik
