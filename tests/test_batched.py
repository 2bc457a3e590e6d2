"""Chunks of wavenumbers: equivalence with the one-mode-at-a-time path.

A chunk is one operator assembly around independent lanes, so every
lane must reproduce the trajectory of its wavenumber integrated alone
— same accepted/rejected step sequence, same bits — and ``batch_size``
may only change how the dispatch order is cut and what each mode is
charged, never a result.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, run_linger, run_plinger
from repro.errors import ParameterError
from repro.linger.serial import compute_modes_batch, dispatch_chunks
from repro.perturbations import evolve_mode, evolve_modes_batched
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
    """Every lane of a chunk takes the *same* accept/reject sequence as
    that k integrated alone and lands on the same bits: a statement
    about lane addressing in the shared operator's packed tables."""
    ks = np.geomspace(1e-3, 0.02, 4)
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
    batched = evolve_modes_batched(bg_scdm, thermo_scdm, ks, **kwargs)
    for k, mode_b in zip(ks, batched):
        mode_s = evolve_mode(bg_scdm, thermo_scdm, float(k), **kwargs)
        assert mode_b.stats.n_steps == mode_s.stats.n_steps
        assert mode_b.stats.n_rejected == mode_s.stats.n_rejected
        assert mode_b.stats.n_rhs == mode_s.stats.n_rhs
        assert np.array_equal(mode_b.y_final, mode_s.y_final)


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


def test_mode_rows_identical_at_any_batch_size(scdm, bg_scdm, thermo_scdm):
    """The per-mode telemetry rows do not depend on the chunking: same
    counters, grid indices patched in, and ``meta["batch_size"]`` only
    when the run was asked to chunk."""
    kg = KGrid.from_k(np.geomspace(1e-3, 0.01, 4))
    cfg = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                       record_sources=False, keep_mode_results=False)
    telemetry = Telemetry()
    run_linger(scdm, kg, cfg, background=bg_scdm, thermo=thermo_scdm,
               batch_size=4, telemetry=telemetry)
    report = telemetry.build_report()
    # per-mode records got their grid indices patched in
    assert sorted(m.ik for m in report.modes) == [1, 2, 3, 4]
    assert report.meta["batch_size"] == 4

    # the default run goes through the same function one lane at a
    # time: same per-mode rows
    single = Telemetry()
    run_linger(scdm, kg, cfg, background=bg_scdm, thermo=thermo_scdm,
               telemetry=single)
    default = single.build_report()
    assert "batch_size" not in default.meta
    by_ik = {m.ik: (m.n_rhs, m.n_steps, m.n_rejected, m.flops_est)
             for m in report.modes}
    assert {m.ik: (m.n_rhs, m.n_steps, m.n_rejected, m.flops_est)
            for m in default.modes} == by_ik
    assert (default.totals["wasted_step_fraction"]
            == report.totals["wasted_step_fraction"] > 0.0)


def test_a_failed_chunk_leaves_no_mode_rows(bg_scdm, thermo_scdm):
    """Lanes run one after another, but telemetry rows are written only
    once the whole chunk completed: the ladder retries a failed chunk
    mode by mode, and its first lanes must not be counted twice."""
    from repro.errors import IntegrationError

    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
    ks = [1e-3, 0.02]
    telemetry = Telemetry()
    evolve_modes_batched(bg_scdm, thermo_scdm, ks, telemetry=telemetry,
                         **kwargs)
    cheap, dear = [m.n_steps for m in telemetry.modes]
    assert cheap + 100 < dear
    # a step budget the first lane meets and the second does not
    failed = Telemetry()
    with pytest.raises(IntegrationError):
        evolve_modes_batched(bg_scdm, thermo_scdm, ks, max_steps=cheap + 100,
                             telemetry=failed, **kwargs)
    assert failed.modes == [] and failed.rhs is None


def test_a_mode_is_charged_its_own_cost_in_any_chunk(bg_scdm, thermo_scdm):
    """One two-lane chunk of a cheap and an expensive mode (859 vs 5338
    steps): each header's ``cpu_seconds`` and each ``ModeMetrics`` wall
    time is that mode's own, not the chunk total divided by two, and
    the per-mode CPU accounts for no more than the call spent."""
    import time

    cfg = LingerConfig(lmax_photon=24, rtol=1e-4, record_sources=False,
                       keep_mode_results=False)
    telemetry = Telemetry()
    cpu0 = time.process_time()
    (big, _, _), (small, _, _) = compute_modes_batch(
        bg_scdm, thermo_scdm, [0.2, 1e-4], [2, 1], cfg, telemetry=telemetry)
    spent = time.process_time() - cpu0
    assert big.cpu_seconds > 3.0 * small.cpu_seconds > 0.0
    assert big.cpu_seconds + small.cpu_seconds <= spent
    m_big, m_small = telemetry.modes
    assert (m_big.ik, m_small.ik) == (2, 1)
    assert m_big.wall_seconds > 3.0 * m_small.wall_seconds > 0.0
    assert (m_big.cpu_seconds, m_small.cpu_seconds) == (
        big.cpu_seconds, small.cpu_seconds)
    for m in (m_big, m_small):
        assert m.wall_seconds == pytest.approx(
            m.tca_wall_seconds + m.full_wall_seconds)
