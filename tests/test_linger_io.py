"""LINGER output files: ascii headers and run archives."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.linger import (
    load_run,
    read_ascii_headers,
    save_run,
    write_ascii_headers,
)
from repro.spectra import cl_from_hierarchy, cl_integrate_over_k


class TestAsciiHeaders:
    def test_round_trip(self, linger_small, tmp_path):
        path = write_ascii_headers(linger_small, tmp_path / "modes.txt")
        headers = read_ascii_headers(path)
        assert len(headers) == linger_small.kgrid.nk
        for h_in, h_out in zip(linger_small.headers, headers):
            assert h_out.ik == h_in.ik
            assert h_out.k == pytest.approx(h_in.k, rel=1e-9)
            assert h_out.delta_m == pytest.approx(h_in.delta_m, rel=1e-9)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only comments\n\n# another\n")
        assert read_ascii_headers(p) == []

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ParameterError):
            read_ascii_headers(p)


def assert_same_run(saved, result):
    """A reloaded archive holds ``result``'s records bit for bit."""
    assert saved.params == result.params
    np.testing.assert_array_equal(saved.k, result.k)
    np.testing.assert_array_equal([h.pack() for h in saved.headers],
                                  [h.pack() for h in result.headers])
    assert len(saved.payloads) == len(result.payloads)
    for p_in, p_out in zip(result.payloads, saved.payloads):
        np.testing.assert_array_equal(p_out.pack(), p_in.pack())


class TestRunArchive:
    def test_round_trip_payloads(self, linger_small, tmp_path):
        path = save_run(linger_small, tmp_path / "run.npz")
        assert_same_run(load_run(path), linger_small)

    def test_writes_the_path_as_given(self, linger_small, tmp_path):
        assert save_run(linger_small, tmp_path / "run") == tmp_path / "run"
        assert [p.name for p in tmp_path.iterdir()] == ["run"]
        assert_same_run(load_run(tmp_path / "run"), linger_small)

    def test_numpy_scalar_params(self, linger_small, tmp_path):
        import dataclasses

        params = dataclasses.replace(linger_small.params, h=np.float64(0.5),
                                     n_nu_massive=np.int64(0))
        run = dataclasses.replace(linger_small, params=params)
        assert load_run(save_run(run, tmp_path / "run")).params == params

    def test_an_archive_is_no_chaos_opportunity(self, linger_small,
                                                tmp_path):
        """Under the ``all`` profile the archive still round-trips
        bitwise: only store writes are a ``cache_write`` site."""
        from repro.chaos import ChaosPolicy, active

        with active(ChaosPolicy.from_profile("all")) as engine:
            path = save_run(linger_small, tmp_path / "run")
            assert_same_run(load_run(path), linger_small)
        assert "cache_write" not in engine.summary()["opportunities"]

    def test_spectra_from_reloaded_run(self, linger_small, tmp_path):
        """A reloaded archive reproduces the hierarchy C_l exactly."""
        path = save_run(linger_small, tmp_path / "run.npz")
        saved = load_run(path)
        l = np.arange(2, 12)
        _, cl_orig = cl_from_hierarchy(linger_small, l_values=l)
        theta = saved.theta_l_matrix()[:, l]
        cl_re = cl_integrate_over_k(saved.k, theta,
                                    n_s=saved.params.n_s)
        assert np.allclose(cl_re, cl_orig, rtol=1e-12)

    def test_delta_m_preserved(self, linger_small, tmp_path):
        path = save_run(linger_small, tmp_path / "run.npz")
        saved = load_run(path)
        assert np.allclose(saved.delta_m, linger_small.delta_m)

    def test_variable_lmax_archive(self, tmp_path, scdm, bg_scdm,
                                   thermo_scdm):
        from repro import KGrid, LingerConfig
        from repro.linger import run_linger

        kg = KGrid.from_k([0.002, 0.02])
        cfg = LingerConfig(record_sources=False, keep_mode_results=False,
                           rtol=3e-4, lmax_mode="scaled", lmax_photon=8,
                           lmax_cap=120)
        res = run_linger(scdm, kg, cfg, background=bg_scdm,
                         thermo=thermo_scdm)
        saved = load_run(save_run(res, tmp_path / "var.npz"))
        assert saved.payloads[0].lmax != saved.payloads[1].lmax
        with pytest.raises(ParameterError):
            saved.theta_l_matrix()
