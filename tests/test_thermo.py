"""Recombination and the thermal history."""

import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Background,
    KGrid,
    LingerConfig,
    ThermalHistory,
    lambda_cdm,
    mixed_dark_matter,
    run_linger,
    standard_cdm,
)
from repro import _cext
from repro import constants as const
from repro.errors import IntegrationError
from repro.thermo import (
    PeeblesRates,
    history,
    radau,
    recombination,
    saha_electron_fraction,
)
from repro.thermo.recombination import _saha_factor, _saha_sweeps
from repro.util.fastspline import PiecewiseCubic, fit_cubic

#: Thermal tables of three models, written by the *parent* of the PR
#: that last replaced a solver behind them — the Saha root-finder, then
#: LSODA by the Radau stepper (the commit is named inside the file).
#: Unlike ``golden_{cl,tk}.json`` there is no ``--regen``: the file is
#: only worth something while it predates the solver under test.  To re-pin after an intended change of the equations, run
#: ``python -m tests.test_thermo <commit>`` with ``PYTHONPATH`` on the
#: *old* ``src`` and say so in the commit.
GOLDEN_THERMO = Path(__file__).parent / "data" / "golden_thermo.json"

needs_cc = pytest.mark.skipif(_cext.get_cext() is None,
                              reason="no C compiler")

#: Five builds that between them take every branch of the history: both
#: paper models, a flat Lambda model, an open one, and reionization
five_models = pytest.mark.parametrize("params, kwargs", [
    (standard_cdm(), {}),
    (mixed_dark_matter(omega_nu=0.2), {}),
    (lambda_cdm(), {}),
    (standard_cdm(omega_c=0.7), {}),
    (standard_cdm(), {"z_reion": 10.0}),
], ids=["standard_cdm", "mixed_dark_matter", "lambda_cdm", "open_cdm",
        "z_reion_10"])

#: What a history fits only when an evaluator first asks for it
FITTED_ON_FIRST_USE = ("_x_e_spline", "_kappa_spline", "_g_spline",
                       "_g_prime_spline", "_g_prime2_spline",
                       "_exp_mkappa_spline")


@pytest.fixture()
def python_rhs(monkeypatch):
    """Builds as a process without the compiled object makes them: the
    python stepper over ``ThermalHistory._rhs``, the python tridiagonal
    solve under every spline (and the python engine, were one run)."""
    monkeypatch.setattr(_cext, "get_cext", lambda: None)


def thermo_snapshot(thermo, rows=None) -> dict:
    """The pinned part of one history: sampled table rows + scalars.

    ``rows`` defaults to ~60 grid indices: 20 across the Saha walk, 20
    through hydrogen recombination (the 400 points after the switch),
    20 over the rest down to a = 1.
    """
    tables = thermo.to_tables()
    n = len(tables["lna"])
    # the Saha walk stops at the first x_H below saha_switch
    i_switch = int(np.argmax(tables["x_h"] < 0.985))
    if rows is None:
        rows = sorted({int(i) for part in (
            np.linspace(0, i_switch - 1, 20),
            np.linspace(i_switch, i_switch + 400, 20),
            np.linspace(i_switch + 401, n - 1, 20),
        ) for i in part})
    snap = {"i_switch": i_switch, "rows": rows}
    for name in ("x_e", "x_h", "t_b"):
        snap[name] = [float(tables[name][i]) for i in rows]
    for name in ("tau_rec", "z_rec", "tau_reion"):
        snap[name] = float(getattr(thermo, name))
    return snap


class TestSaha:
    def test_fully_ionized_hot(self, scdm):
        x_e, x_h, x_he2, x_he3 = saha_electron_fraction(
            1e5, 1e-4, f_he=0.02
        )
        assert x_h == pytest.approx(1.0, abs=1e-6)
        assert x_he3 == pytest.approx(1.0, abs=1e-4)
        assert x_e == pytest.approx(1.0 + 2 * 0.02, rel=1e-4)

    def test_neutral_cold(self):
        x_e, x_h, x_he2, x_he3 = saha_electron_fraction(1500.0, 1.0, 0.02)
        assert x_h < 1e-4
        assert x_e < 1e-3

    def test_helium_recombines_before_hydrogen(self):
        # at ~5000 K He+ -> He0 is essentially done but H is still ionized
        x_e, x_h, x_he2, x_he3 = saha_electron_fraction(5000.0, 0.2, 0.02)
        assert x_h > 0.95
        assert x_he2 < 0.05

    def test_he_double_ionized_very_hot(self):
        _, _, x_he2, x_he3 = saha_electron_fraction(5e4, 1e-2, 0.02)
        assert x_he3 > 0.9

    def test_monotone_in_temperature(self):
        xs = [
            saha_electron_fraction(t, 0.5, 0.02)[0]
            for t in (3000, 4000, 6000, 10000)
        ]
        assert all(a < b for a, b in zip(xs, xs[1:]))


class TestPeeblesRates:
    def test_recombination_coefficient_scale(self):
        # alpha^(2) ~ 5e-13 cm^3/s at 10^4 K (Peebles form)
        r = PeeblesRates.at(1e4, 1.0, 0.5, 1e-13)
        assert 1e-13 < r.alpha2 < 1e-12

    def test_c_factor_bounded(self):
        r = PeeblesRates.at(3500.0, 100.0, 0.1, 1e-13)
        assert 0.0 < r.c_peebles <= 1.0

    def test_ionization_negligible_when_cold(self):
        r = PeeblesRates.at(500.0, 100.0, 0.01, 1e-13)
        assert r.beta < 1e-100

    def test_beta2_larger_than_beta(self):
        r = PeeblesRates.at(4000.0, 100.0, 0.5, 1e-13)
        assert r.beta2 > r.beta


class TestThermalHistory:
    def test_recombination_redshift(self, thermo_scdm):
        assert 1000 < thermo_scdm.z_rec < 1250

    def test_tau_rec_matches_paper_movie(self, thermo_scdm):
        # the paper's movie ends "shortly after recombination, at
        # conformal time 250 Mpc"
        assert 200 < thermo_scdm.tau_rec < 280

    def test_xe_fully_ionized_early(self, thermo_scdm, scdm):
        f_he = scdm.y_he / (4 * (1 - scdm.y_he))
        assert float(thermo_scdm.x_e(1e-7)) == pytest.approx(
            1 + 2 * f_he, rel=1e-3
        )

    def test_xe_freezeout(self, thermo_scdm):
        xe0 = float(thermo_scdm.x_e(1.0))
        assert 1e-5 < xe0 < 1e-2

    def test_xe_monotone_through_recombination(self, thermo_scdm):
        a = np.geomspace(2e-4, 2e-2, 60)
        xe = thermo_scdm.x_e(a)
        assert np.all(np.diff(xe) < 1e-6)

    def test_visibility_normalized(self, thermo_scdm, bg_scdm):
        tau = np.linspace(thermo_scdm._tau[0], bg_scdm.tau0, 20000)
        integral = np.trapezoid(thermo_scdm.visibility(tau), tau)
        assert integral == pytest.approx(1.0, abs=0.002)

    def test_visibility_peaks_at_tau_rec(self, thermo_scdm, bg_scdm):
        tau = np.linspace(50, 600, 4000)
        g = thermo_scdm.visibility(tau)
        assert tau[np.argmax(g)] == pytest.approx(thermo_scdm.tau_rec,
                                                  abs=5.0)

    def test_optical_depth_monotone_decreasing(self, thermo_scdm, bg_scdm):
        tau = np.linspace(100, bg_scdm.tau0, 500)
        kappa = thermo_scdm.optical_depth(tau)
        assert np.all(np.diff(kappa) <= 1e-10)
        assert abs(float(kappa[-1])) < 1e-8

    def test_baryons_track_photons_early(self, thermo_scdm, scdm):
        a = 1e-5
        assert float(thermo_scdm.t_baryon(a)) == pytest.approx(
            scdm.t_cmb / a, rel=1e-4
        )

    def test_baryons_cool_adiabatically_late(self, thermo_scdm, scdm):
        # after decoupling T_b ~ a^-2, so T_b << T_gamma today
        assert float(thermo_scdm.t_baryon(1.0)) < 0.1 * scdm.t_cmb

    def test_opacity_scaling_preionization(self, thermo_scdm):
        # x_e = const -> kappa' ~ a^-2
        k1 = float(thermo_scdm.opacity(1e-5))
        k2 = float(thermo_scdm.opacity(2e-5))
        assert k1 / k2 == pytest.approx(4.0, rel=1e-2)

    def test_sound_speed_small_and_positive(self, thermo_scdm):
        a = np.geomspace(1e-6, 1.0, 30)
        cs2 = thermo_scdm.cs2(a)
        assert np.all(cs2 > 0)
        assert np.all(cs2 < 1e-6)  # baryon sound speed << c

    def test_exp_minus_kappa_limits(self, thermo_scdm, bg_scdm):
        assert float(thermo_scdm.exp_minus_kappa(60.0)) < 1e-8
        assert float(thermo_scdm.exp_minus_kappa(bg_scdm.tau0)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_mdm_recombination_similar(self, thermo_mdm):
        # massive neutrinos barely move recombination
        assert 1000 < thermo_mdm.z_rec < 1250


class TestSahaSolver:
    """The root-finder itself: what it returns solves the equations,
    and it gets there in a handful of residual evaluations."""

    @pytest.mark.property
    @given(t=st.floats(1.0, 1e6), n_h=st.floats(1e-8, 1e12),
           f_he=st.floats(0.0, 0.2))
    @settings(max_examples=300, deadline=None)
    def test_solution_satisfies_the_saha_system(self, t, n_h, f_he):
        x_e, x_h, x_he2, x_he3 = saha_electron_fraction(t, n_h, f_he)
        for x in (x_h, x_he2, x_he3):
            assert 0.0 <= x <= 1.0
        assert 0.0 <= x_e <= 1.0 + 2.0 * f_he
        def close(a, b):
            return a == pytest.approx(b, rel=1e-12, abs=1e-300)

        assert close(x_e, x_h + f_he * (x_he2 + 2.0 * x_he3))
        # the three ratios, cross-multiplied so that no side forms
        # 1 - x (which cancels to nothing near full ionization)
        n_e = x_e * n_h
        s_h = _saha_factor(t, const.E_ION_H)
        s_he1 = 4.0 * _saha_factor(t, const.E_ION_HE1)
        s_he2 = _saha_factor(t, const.E_ION_HE2)
        assert close(x_h * (n_e + s_h), s_h)
        assert close(x_he2 * (n_e * n_e + s_he1 * n_e + s_he1 * s_he2),
                     s_he1 * n_e)
        assert close(x_he3 * n_e, x_he2 * s_he2)

    @pytest.mark.property
    @given(t=st.floats(1.0, 1e6), factor=st.floats(1.0, 10.0),
           n_h=st.floats(1e-8, 1e12), f_he=st.floats(0.0, 0.2))
    @settings(max_examples=300, deadline=None)
    def test_x_e_non_decreasing_in_temperature(self, t, factor, n_h, f_he):
        cold = saha_electron_fraction(t, n_h, f_he)[0]
        hot = saha_electron_fraction(min(t * factor, 1e6), n_h, f_he)[0]
        # up to the solver's own 1e-14 where x_e has saturated
        assert hot >= cold * (1.0 - 1e-13)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(recombination, "_SAHA_MAX_ITER", 1)
        with pytest.raises(IntegrationError, match="T = 5000.0 K"):
            saha_electron_fraction(5000.0, 0.2, 0.08)

    def test_build_converges_in_a_few_evaluations(self, monkeypatch,
                                                   python_rhs, bg_scdm):
        """Counts, not timings: the fixed point this replaced averaged
        30 evaluations and ran a third of its calls to the cap.  Python
        calls are what is counted, so the build is the python one."""
        evals = 0
        per_call = []
        residual = recombination._saha_residual
        solve = saha_electron_fraction

        def counting_residual(*args):
            nonlocal evals
            evals += 1
            return residual(*args)

        def counting_solve(*args):
            before = evals
            out = solve(*args)
            per_call.append(evals - before)
            return out

        monkeypatch.setattr(recombination, "_saha_residual",
                            counting_residual)
        monkeypatch.setattr(history, "saha_electron_fraction",
                            counting_solve)
        thermo = ThermalHistory(bg_scdm)
        counts = thermo._build_counts
        # the ODE right-hand side solves one epoch at a time (LSODA took
        # 1000 evaluations to an error of 1.8e-7 in x_H; the Radau
        # stepper takes these to 3e-9) ...
        assert len(per_call) == counts["ode_rhs_evals"]
        assert 4500 < counts["ode_rhs_evals"] < 6000
        assert 450 < counts["ode_steps"] < 700 and counts["ode_rejected"] < 30
        assert counts["ode_rhs_compiled"] == 0
        assert sum(per_call) / len(per_call) <= 4.0
        assert max(per_call) < recombination._SAHA_MAX_ITER
        # ... the two grid passes a whole array per residual evaluation
        assert evals - sum(per_call) == counts["saha_sweeps"] <= 8

    @pytest.mark.property
    @given(t=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=12),
           n_h=st.floats(1e-8, 1e12), f_he=st.floats(0.0, 0.2))
    @settings(max_examples=300, deadline=None)
    def test_array_sweeps_match_the_scalar_solver(self, t, n_h, f_he):
        t = np.array(t)
        *got, sweeps = _saha_sweeps(t, np.full(t.size, n_h), f_he)
        want = np.array([saha_electron_fraction(ti, n_h, f_he)
                         for ti in t.tolist()]).T
        assert 1 <= sweeps < recombination._SAHA_MAX_ITER
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-300)
        neutral = want[1] == 0.0  # hydrogen's factor underflowed
        assert all(np.all(g[neutral] == 0.0) for g in got)

    def test_unconverged_sweep_raises(self, monkeypatch):
        monkeypatch.setattr(recombination, "_SAHA_MAX_ITER", 1)
        with pytest.raises(IntegrationError, match="1 of 2 epochs"):
            # the first epoch starts on its root, the second does not
            _saha_sweeps(np.array([3000.0, 5000.0]), np.array([0.2, 0.2]),
                         0.08)


class TestCompiledRhs:
    """The compiled ``thermo_ode`` over the compiled ``thermo_rhs`` is
    ``radau.integrate`` over ``_rhs``: the same doubles at every
    expression, so the same steps and the same tables.  (The right-hand
    side itself is pinned to ``_rhs`` state by state in
    ``tests/test_rhs_operator.py``.)"""

    @needs_cc
    def test_compiled_build_makes_every_evaluation(self, thermo_scdm):
        counts = thermo_scdm._build_counts
        assert counts["ode_rhs_compiled"] == counts["ode_rhs_evals"] > 4500

    @needs_cc
    @five_models
    def test_compiled_build_is_the_python_build(self, request, params,
                                                kwargs):
        background = Background(params)
        compiled = ThermalHistory(background, **kwargs)
        request.getfixturevalue("python_rhs")
        python = ThermalHistory(background, **kwargs)
        want = python.to_tables()
        for name, got in compiled.to_tables().items():
            assert np.array_equal(got, want[name], equal_nan=True), name
        evals = python._build_counts["ode_rhs_evals"]
        assert python._build_counts["ode_rhs_compiled"] == 0
        assert compiled._build_counts == {
            **python._build_counts, "ode_rhs_compiled": evals}

    @pytest.mark.parametrize("params", [
        standard_cdm(), mixed_dark_matter(omega_nu=0.2)],
        ids=["standard_cdm", "mixed_dark_matter"])
    def test_solve_is_at_least_as_accurate_as_the_one_it_replaced(
            self, params):
        """scipy as the oracle: LSODA at ``rtol=1e-12`` over the same
        ``_rhs``.  The bounds are the errors of the ``odeint`` call this
        stepper replaced (measured: 3e-9 / 6.5e-8)."""
        from scipy.integrate import solve_ivp

        thermo = ThermalHistory(Background(params))
        tables = thermo.to_tables()
        i_switch = int(np.argmax(tables["x_h"] < 0.985))
        grid = tables["lna"][i_switch:]
        ref = solve_ivp(
            lambda lna, y: thermo._rhs(lna, *y.tolist()),
            (grid[0], grid[-1]),
            [tables["x_h"][i_switch], tables["t_b"][i_switch]],
            method="LSODA", rtol=1e-12, atol=[1e-16, 1e-14], t_eval=grid)
        assert ref.success
        err_x_h = np.max(np.abs(tables["x_h"][i_switch:] / ref.y[0] - 1.0))
        err_t_b = np.max(np.abs(tables["t_b"][i_switch:] / ref.y[1] - 1.0))
        assert err_x_h <= 1.8e-7 and err_t_b <= 3.3e-7
        assert err_x_h <= 2e-8  # closer than LSODA was, not merely as close

    @pytest.mark.parametrize("path", [
        pytest.param("compiled", marks=needs_cc), "python"])
    def test_a_solve_that_cannot_advance_raises(self, monkeypatch, request,
                                                bg_scdm, path):
        if path == "python":
            request.getfixturevalue("python_rhs")
        monkeypatch.setattr(radau, "MAX_ATTEMPTS", 50)
        with pytest.raises(IntegrationError,
                           match="ODE failed: no end after 50 steps"):
            ThermalHistory(bg_scdm)

    @needs_cc
    def test_failed_compile_ends_on_the_python_build(self, tmp_path,
                                                     bg_scdm, thermo_scdm):
        """One compiled object for the engine and this build: a process
        whose compile failed past its retries takes the python stepper
        over ``_rhs``."""
        from repro.chaos import ChaosPolicy, active
        from repro._cext import private_cache
        from repro.perturbations import available_kernels

        with private_cache(tmp_path), active(ChaosPolicy(compile_faults=3)):
            fallback = ThermalHistory(bg_scdm)
            assert available_kernels() == ("python",)
        assert fallback._build_counts["ode_rhs_compiled"] == 0
        assert thermo_scdm._build_counts["ode_rhs_compiled"] > 4500
        want = thermo_scdm.to_tables()
        for name, got in fallback.to_tables().items():
            assert np.array_equal(got, want[name], equal_nan=True), name

    @pytest.mark.parametrize("path", [
        pytest.param("compiled", marks=needs_cc), "python"])
    def test_newton_cap_inside_the_ode_raises(self, monkeypatch, request,
                                              bg_scdm, path):
        """``saha_electron_fraction`` raises at its cap; the compiled
        right-hand side cannot, so it latches a status the build raises
        from.  The two grid sweeps keep the real cap: they would raise
        first, on either path."""
        if path == "python":
            request.getfixturevalue("python_rhs")
        sweeps = history._saha_sweeps

        def uncapped_sweeps(*args):
            with monkeypatch.context() as patch:
                patch.setattr(recombination, "_SAHA_MAX_ITER", 64)
                return sweeps(*args)

        monkeypatch.setattr(history, "_saha_sweeps", uncapped_sweeps)
        monkeypatch.setattr(recombination, "_SAHA_MAX_ITER", 2)
        assert ThermalHistory(bg_scdm)._build_counts["ode_rhs_evals"] > 4500
        monkeypatch.setattr(recombination, "_SAHA_MAX_ITER", 1)
        with pytest.raises(IntegrationError,
                           match="did not converge in 1 iterations"):
            ThermalHistory(bg_scdm)

    @needs_cc
    def test_status_and_count_slots_only_grow(self, monkeypatch,
                                              thermo_scdm):
        monkeypatch.setattr(recombination, "_SAHA_MAX_ITER", 1)
        block, nu_pack, out = thermo_scdm._compiled_args()
        assert nu_pack is None

        def rhs(lna, state):
            _cext.get_cext().thermo_rhs_raw(
                block.ctypes.data, None, lna, *state, out.ctypes.data)

        lna = np.log(1.0 / 1800.0)
        # helium still recombining: the hydrogen-only start is not the root
        hot, cold = (0.99, 5000.0), (1e-3, 30.0)
        with pytest.raises(IntegrationError):
            thermo_scdm._rhs(lna, *hot)
        rhs(lna, cold)  # hydrogen's factor underflows: no iteration
        assert out[2:4].tolist() == [0.0, 1.0]
        rhs(lna, hot)
        assert out[2:4].tolist() == [1.0, 2.0]
        rhs(lna, cold)
        assert out[2:4].tolist() == [1.0, 3.0]


class TestWhatABuildComputes:
    """A build computes what every run reads and no more: the
    line-of-sight and x_e splines wait for an evaluator to ask, the Saha
    pre-pass sweeps only rows that can precede the switch, and the sound
    speed reads the T_b slope off the fit — each giving what the full
    computation gives, bit for bit."""

    def test_a_hierarchy_run_fits_no_line_of_sight_spline(self, scdm,
                                                           bg_scdm):
        thermo = ThermalHistory(bg_scdm)
        run_linger(scdm, KGrid.from_k(np.array([1e-3, 1e-2])),
                   LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4),
                   background=bg_scdm, thermo=thermo)
        loaded = ThermalHistory.from_tables(bg_scdm, thermo.to_tables())
        for history_ in (thermo, loaded):
            assert not set(FITTED_ON_FIRST_USE) & set(vars(history_))

    @five_models
    def test_first_use_fits_the_retained_arrays(self, params, kwargs):
        background = Background(params)
        thermo = ThermalHistory(background, **kwargs)
        # the arrays kept are the ones the splines were fitted to when
        # every build fitted them
        assert np.array_equal(thermo._exp_mkappa,
                              np.exp(-np.minimum(thermo._kappa, 700.0)))
        assert np.array_equal(thermo._g,
                              thermo._kappa_dot_table * thermo._exp_mkappa)
        tau = np.linspace(thermo._tau[0], background.tau0, 997)
        g = fit_cubic(thermo._tau, thermo._g)
        want = {
            "optical_depth": fit_cubic(thermo._tau, thermo._kappa)(tau),
            "visibility": np.maximum(g(tau), 0.0),
            "visibility_prime": g.derivative(1)(tau),
            "visibility_prime2": g.derivative(2)(tau),
            "exp_minus_kappa": np.clip(
                fit_cubic(thermo._tau, thermo._exp_mkappa)(tau), 0.0, 1.0),
        }
        for name, value in want.items():
            assert np.array_equal(getattr(thermo, name)(tau), value), name
        a = np.geomspace(thermo._a[0], 1.0, 997)
        x_e = fit_cubic(thermo._lna,
                        np.log(np.maximum(thermo._x_e_table, 1e-30)))
        assert np.array_equal(thermo.x_e(a), np.exp(x_e(np.log(a))))
        assert set(FITTED_ON_FIRST_USE) <= set(vars(thermo))

    @five_models
    @pytest.mark.parametrize("margin", [history._SWITCH_MARGIN, -8],
                             ids=["bound", "short"])
    def test_saha_pre_pass_is_the_whole_grid_pass(self, monkeypatch, params,
                                                  kwargs, margin):
        """Rows ``[:i_switch]``, ``i_switch`` and the sweep count are the
        whole grid's; a prefix cut short of the switch (``short``) is
        finished by sweeping the rest."""
        calls = []
        pre_pass = history._saha_before_switch

        def recording(*args):
            out = pre_pass(*args)
            # the build goes on to overwrite the arrays from the switch on
            calls.append([v.copy() if isinstance(v, np.ndarray) else v
                          for v in args + out])
            return out

        monkeypatch.setattr(history, "_SWITCH_MARGIN", margin)
        monkeypatch.setattr(history, "_saha_before_switch", recording)
        thermo = ThermalHistory(Background(params), **kwargs)
        (t, n_h, f_he, switch, x_e, x_h, i_switch, sweeps, rows), = calls
        want_e, want_h, _, _, want_sweeps = _saha_sweeps(t, n_h, f_he)
        assert i_switch == np.argmax(want_h < switch)
        assert np.array_equal(x_e[:i_switch], want_e[:i_switch])
        assert np.array_equal(x_h[:i_switch], want_h[:i_switch])
        assert sweeps == want_sweeps
        assert thermo._build_counts["saha_rows"] == rows
        if margin > 0:
            assert i_switch < rows < 0.65 * t.size
        else:
            assert rows == t.size

    @pytest.mark.parametrize("switch", [0.5, 0.999999, 1.0, 1.5])
    def test_saha_pre_pass_at_any_switch(self, thermo_scdm, switch):
        """The bound holds for any switch value, 1 and above included
        (every row is then below it)."""
        t = thermo_scdm.params.t_cmb / thermo_scdm._a
        n_h = thermo_scdm._n_h0 / thermo_scdm._a**3
        want_e, want_h, _, _, want_sweeps = _saha_sweeps(
            t, n_h, thermo_scdm.f_he)
        x_e, x_h, i_switch, sweeps, rows = history._saha_before_switch(
            t, n_h, thermo_scdm.f_he, switch)
        assert i_switch == np.argmax(want_h < switch) < rows
        assert np.array_equal(x_e[:i_switch], want_e[:i_switch])
        assert np.array_equal(x_h[:i_switch], want_h[:i_switch])
        assert 1 <= sweeps <= want_sweeps

    @five_models
    def test_sound_speed_slope_is_the_fits_derivative(self, monkeypatch,
                                                      params, kwargs):
        slopes = []
        knot_slopes = PiecewiseCubic.knot_slopes

        def recording(spline):
            slopes.append((spline, knot_slopes(spline)))
            return slopes[-1][1]

        monkeypatch.setattr(PiecewiseCubic, "knot_slopes", recording)
        thermo = ThermalHistory(Background(params), **kwargs)
        (spline, dlntb_dlna), = slopes
        assert spline is thermo._t_b_spline
        assert dlntb_dlna.tobytes() == spline.derivative(1)(
            thermo._lna).tobytes()


class TestGoldenThermo:
    """The new solver against tables written by the old one."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_THERMO.read_text())

    @pytest.fixture(scope="class")
    def histories(self):
        return _golden_histories()

    @pytest.mark.parametrize("model", [
        "standard_cdm", "mixed_dark_matter", "standard_cdm_z_reion_10"])
    def test_tables_match_parent_commit(self, golden, histories, model):
        assert len(golden["commit"]) == 40
        want = golden["models"][model]
        got = thermo_snapshot(histories[model], rows=want["rows"])
        for name in ("i_switch", "tau_rec", "z_rec"):
            assert got[name] == want[name]
        assert got["tau_reion"] == pytest.approx(want["tau_reion"], rel=1e-6)
        saha = np.asarray(want["rows"]) < want["i_switch"]
        assert 15 < saha.sum() < len(saha) - 30
        for name in ("x_e", "x_h", "t_b"):
            g, w = np.asarray(got[name]), np.asarray(want[name])
            # before the switch only the Saha solver acts ...
            np.testing.assert_allclose(g[saha], w[saha], rtol=1e-12, atol=0)
            # ... after it the golden is LSODA's at rtol=1e-8, 1.8e-7 /
            # 3.3e-7 from the converged solution, and the stepper under
            # test is closer to that than to the golden
            np.testing.assert_allclose(g[~saha], w[~saha], rtol=5e-7, atol=0)


class TestHistoryLifetime:
    def test_round_trip_evaluates_bitwise(self, thermo_scdm, bg_scdm):
        twin = ThermalHistory.from_tables(bg_scdm, thermo_scdm.to_tables())
        a = np.geomspace(2e-8, 1.0, 200)
        tau = np.linspace(thermo_scdm._tau[0], bg_scdm.tau0, 200)
        for name in ("x_e", "t_baryon", "opacity", "cs2"):
            assert np.array_equal(getattr(twin, name)(a),
                                  getattr(thermo_scdm, name)(a))
        for name in ("optical_depth", "visibility", "visibility_prime",
                     "visibility_prime2", "exp_minus_kappa"):
            assert np.array_equal(getattr(twin, name)(tau),
                                  getattr(thermo_scdm, name)(tau))
        assert (twin.tau_rec, twin.z_rec, twin.tau_reion) == (
            thermo_scdm.tau_rec, thermo_scdm.z_rec, thermo_scdm.tau_reion)

    def test_background_freed_by_refcount_alone(self, scdm):
        """Nothing the build hands the stepper (the bound ``_rhs``, the
        parameter block) may tie the history or the Background into a
        cycle: each discarded build would pin a few MB until a full gc
        pass."""
        gc.collect()
        gc.disable()
        try:
            background = Background(scdm)
            alive = weakref.ref(background)
            thermo = ThermalHistory(background)
            del thermo, background
            assert alive() is None
        finally:
            gc.enable()


    def test_concurrent_builds_match_serial_builds(self):
        """``WarmPool`` builds tables on threads, and the compiled solve
        releases the interpreter for its whole length: histories of
        different cosmologies built at once must not share solver state
        (neither stepper keeps any: every buffer is the call's own)."""
        models = [standard_cdm(), mixed_dark_matter(omega_nu=0.2),
                  lambda_cdm(), standard_cdm(h=0.7, omega_b=0.03),
                  standard_cdm(h=0.6), standard_cdm(omega_b=0.08)]
        backgrounds = [Background(p) for p in models]
        serial = [ThermalHistory(bg).to_tables() for bg in backgrounds]
        built: list = [None] * len(models)

        def build(i):
            built[i] = ThermalHistory(backgrounds[i]).to_tables()

        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(len(models))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for want, got in zip(serial, built):
            assert got is not None
            for name in ("x_e", "x_h", "t_b"):
                assert np.array_equal(got[name], want[name])


def _golden_histories() -> dict:
    """The three pinned histories, by the name they carry in the file."""
    bg = Background(standard_cdm())
    return {
        "standard_cdm": ThermalHistory(bg),
        "mixed_dark_matter": ThermalHistory(
            Background(mixed_dark_matter(omega_nu=0.2))),
        "standard_cdm_z_reion_10": ThermalHistory(bg, z_reion=10.0),
    }


if __name__ == "__main__":
    import sys

    GOLDEN_THERMO.write_text(json.dumps({
        "commit": sys.argv[1],
        "models": {name: thermo_snapshot(thermo)
                   for name, thermo in _golden_histories().items()},
    }, indent=1, sort_keys=True) + "\n")
