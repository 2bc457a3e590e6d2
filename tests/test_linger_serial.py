"""The LINGER driver, serial and on threads, and its result container."""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    KGrid,
    LingerConfig,
    ParameterError,
    Telemetry,
    run_linger,
    run_plinger,
)
from repro.errors import IntegrationError
from repro.linger.serial import build_tables, compute_mode
from repro.perturbations import evolve_mode
from repro.spectra import run_sparse_cl


class TestConfig:
    def test_fixed_lmax(self):
        cfg = LingerConfig(lmax_photon=20, lmax_mode="fixed")
        assert cfg.lmax_for_k(0.5, 10000.0) == 20

    def test_scaled_lmax_grows_with_k(self):
        cfg = LingerConfig(lmax_photon=8, lmax_mode="scaled",
                           lmax_cap=2000)
        small = cfg.lmax_for_k(1e-4, 10000.0)
        big = cfg.lmax_for_k(0.1, 10000.0)
        assert small < big <= 2000

    def test_scaled_lmax_capped(self):
        cfg = LingerConfig(lmax_mode="scaled", lmax_cap=100)
        assert cfg.lmax_for_k(10.0, 10000.0) == 100

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError, match="lmax_mode"):
            LingerConfig(lmax_mode="bogus")

    @pytest.mark.parametrize("field, value", [
        ("rtol", -1.0), ("rtol", 0.0), ("rtol", float("nan")),
        ("rtol", float("inf")), ("atol", -1e-9), ("atol", float("nan")),
        ("tca_eps", -1.0), ("tca_eps", 0.0), ("nq", -1),
        ("lmax_photon", 1), ("lmax_nu", 2), ("lmax_massive_nu", 2),
        ("amplitude", float("nan")), ("amplitude", float("inf")),
        ("lmax_mode", "bogus"),
    ])
    def test_bad_numerics_are_refused_at_construction(self, field, value):
        """Numerics no mode can run with are a ParameterError naming
        the field, before any table is built — not a run that spends
        seconds before ``max_steps`` or a bare ValueError from the
        state layout."""
        with pytest.raises(ParameterError, match=field):
            LingerConfig(**{field: value})

    def test_the_ladder_levels_construct(self):
        from repro.resilience import escalation_ladder

        for rtol in (1e-4, 0.5, 2.0):
            levels = list(escalation_ladder(LingerConfig(rtol=rtol)))
            assert [level for level, _ in levels] == [0, 1, 2]


class TestBuildTables:
    def test_a_cold_kernel_cache_compiles_under_its_own_timer(
            self, scdm, tmp_path):
        """The first spline fit of a process used to compile the kernel
        inside ``background.build``: the build now resolves the compiled
        object first, under ``cext.resolve``, and the table timers hold
        only the tables."""
        from repro._cext import private_cache

        tel = Telemetry()
        with private_cache(tmp_path):  # empty: this resolve compiles
            build_tables(scdm, telemetry=tel)
            assert list(tmp_path.glob("*.so"))
        resolve = tel.timers["cext.resolve"]
        build = tel.timers["background.build"]
        assert resolve.count == build.count == 1
        assert build.total_seconds < 0.25 < resolve.total_seconds

        handed_in = Telemetry()
        build_tables(scdm, *build_tables(scdm), telemetry=handed_in)
        assert not handed_in.timers


class TestComputeMode:
    def test_header_payload_consistent(self, bg_scdm, thermo_scdm):
        cfg = LingerConfig(rtol=1e-4, record_sources=False)
        header, payload, mode = compute_mode(bg_scdm, thermo_scdm, 0.01,
                                             ik=5, config=cfg)
        assert header.ik == payload.ik == 5
        assert header.lmax == payload.lmax == cfg.lmax_photon
        assert header.k == payload.k == 0.01
        assert np.allclose(payload.f_gamma, mode.f_gamma_final)
        assert header.cpu_seconds > 0
        assert header.n_rhs == mode.stats.n_rhs

    def test_header_observables_match_records(self, bg_scdm, thermo_scdm):
        cfg = LingerConfig(rtol=1e-4, record_sources=True)
        header, _, mode = compute_mode(bg_scdm, thermo_scdm, 0.02, ik=1,
                                       config=cfg)
        assert header.delta_c == pytest.approx(
            mode.records["delta_c"][-1], rel=1e-6
        )
        assert header.a_end == pytest.approx(1.0, rel=1e-4)

    def test_a_mode_is_charged_its_whole_cost(self, bg_scdm, thermo_scdm):
        """A cheap and an expensive mode (859 vs 5338 steps): each
        header's ``cpu_seconds`` is its own call's CPU, assembly
        included, and never more than the call spent; each
        ``ModeMetrics`` row carries its grid index, that CPU and the
        wallclock of its two phases."""
        cfg = LingerConfig(lmax_photon=24, rtol=1e-4, record_sources=False,
                           keep_mode_results=False)
        telemetry = Telemetry()
        charged, spent = [], []
        for ik, k in ((2, 0.2), (1, 1e-4)):
            cpu0 = time.process_time()
            header, _, _ = compute_mode(bg_scdm, thermo_scdm, k, ik, cfg,
                                        telemetry=telemetry)
            spent.append(time.process_time() - cpu0)
            charged.append(header.cpu_seconds)
        big, small = charged
        assert big > 3.0 * small > 0.0
        assert big <= spent[0] and small <= spent[1]
        m_big, m_small = telemetry.modes
        assert (m_big.ik, m_small.ik) == (2, 1)
        assert (m_big.cpu_seconds, m_small.cpu_seconds) == (big, small)
        assert m_big.wall_seconds > 3.0 * m_small.wall_seconds > 0.0
        for m in (m_big, m_small):
            assert m.wall_seconds == pytest.approx(
                m.tca_wall_seconds + m.full_wall_seconds)


def test_a_failed_mode_leaves_no_mode_rows(bg_scdm, thermo_scdm):
    """Telemetry rows are written only once a mode completed: the
    ladder retries a failed mode whole, and it must not be counted
    twice."""
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
    done = Telemetry()
    evolve_mode(bg_scdm, thermo_scdm, 0.02, telemetry=done, **kwargs)
    (row,) = done.modes
    failed = Telemetry()
    with pytest.raises(IntegrationError):
        evolve_mode(bg_scdm, thermo_scdm, 0.02, max_steps=row.n_steps - 1,
                    telemetry=failed, **kwargs)
    assert failed.modes == []


@pytest.mark.parametrize("entry", [run_linger, run_plinger, run_sparse_cl],
                         ids=lambda entry: entry.__name__)
def test_no_entry_point_takes_a_batch_size(entry, scdm):
    """The unit of work is one wavenumber: no driver takes a chunk
    length."""
    with pytest.raises(TypeError):
        entry(scdm, KGrid.from_k([0.01]), batch_size=1)


class TestRunLinger:
    def test_results_ascending_k(self, linger_small):
        ks = [h.k for h in linger_small.headers]
        assert ks == sorted(ks)
        assert [h.ik for h in linger_small.headers] == list(
            range(1, linger_small.kgrid.nk + 1)
        )

    def test_matter_growth_with_k(self, linger_small):
        """|delta_m| today grows toward smaller scales over this k range
        (all modes below the peak of the transfer function)."""
        dm = np.abs(linger_small.delta_m)
        assert dm[-1] > dm[0]

    def test_modes_kept_when_requested(self, linger_small):
        assert all(m is not None for m in linger_small.modes)

    def test_modes_dropped_when_not(self, scdm, bg_scdm, thermo_scdm):
        kg = KGrid.from_k([0.002, 0.01])
        cfg = LingerConfig(rtol=1e-4, record_sources=False,
                           keep_mode_results=False)
        res = run_linger(scdm, kg, cfg, background=bg_scdm,
                         thermo=thermo_scdm)
        assert all(m is None for m in res.modes)

    def test_theta_matrix_shape(self, linger_small):
        th = linger_small.theta_l_matrix()
        assert th.shape == (linger_small.kgrid.nk,
                            linger_small.config.lmax_photon + 1)

    def test_cpu_seconds_recorded(self, linger_small):
        assert np.all(linger_small.cpu_seconds > 0)

    def test_wall_time_recorded(self, linger_small):
        assert linger_small.wall_seconds > 0


class TestRunLingerOnThreads:
    """An executor changes only which thread integrates a mode: every
    record is the serial loop's, bit for bit."""

    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "wire"])
    @pytest.mark.parametrize("nk", [1, 2, 7])
    @pytest.mark.parametrize("helpers", [1, 2, 3])
    def test_matches_serial(self, helpers, nk, keep, scdm, bg_scdm,
                            thermo_scdm):
        kgrid = KGrid.from_k(np.geomspace(1e-3, 2e-2, nk))
        config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-3,
                              record_sources=keep, keep_mode_results=keep)
        kwargs = dict(background=bg_scdm, thermo=thermo_scdm,
                      monitor_constraints=keep)
        serial = run_linger(scdm, kgrid, config, **kwargs)
        telemetry = Telemetry()
        with ThreadPoolExecutor(helpers) as executor:
            threads = run_linger(scdm, kgrid, config, telemetry=telemetry,
                                 executor=executor, **kwargs)
        assert sorted(m.ik for m in telemetry.modes) == \
            list(range(1, nk + 1))
        assert telemetry.meta["driver"] == "linger-threads"
        for a, b in zip(serial.headers, threads.headers, strict=True):
            assert replace(a, cpu_seconds=0.0).pack().tobytes() == \
                replace(b, cpu_seconds=0.0).pack().tobytes()
        for a, b in zip(serial.payloads, threads.payloads, strict=True):
            assert a.pack().tobytes() == b.pack().tobytes()
        for a, b in zip(serial.modes, threads.modes, strict=True):
            assert (a is None) == (b is None) == (not keep)
            if keep:
                assert a.tau.tobytes() == b.tau.tobytes()
                assert a.y_final.tobytes() == b.y_final.tobytes()
                assert a.records.keys() == b.records.keys()
                for name in a.records:
                    assert a.records[name].tobytes() == \
                        b.records[name].tobytes()
        assert len(threads.constraints) == len(serial.constraints) == \
            (nk if keep else 0)
        for a, b in zip(serial.constraints, threads.constraints):
            for name in ("tau", "a", "pressure", "shear", "exchange",
                         "trunc_photon", "trunc_polarization"):
                assert getattr(a, name).tobytes() == \
                    getattr(b, name).tobytes()
