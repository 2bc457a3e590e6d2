"""The DVERK re-implementation and the RKF45 cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import IntegrationError
from repro.integrators import (
    DVERK,
    FEHLBERG_45_TABLEAU,
    RKF45,
    VERNER_65_TABLEAU,
    ButcherTableau,
    IntegratorStats,
    StepController,
)
from repro.integrators.controller import STABILITY_FRACTION


def _rk4() -> ButcherTableau:
    a = np.zeros((4, 4))
    a[1, 0] = a[2, 1] = 0.5
    a[3, 2] = 1.0
    b = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    return ButcherTableau(a=a, b_high=b, b_low=b, c=[0.0, 0.5, 0.5, 1.0],
                          order_high=4, order_low=3, name="rk4")


def _growth(tb: ButcherTableau, x: float) -> float:
    """|R(-x)| by stepping y' = -x y once from 1 with h = 1."""
    k = np.zeros(tb.n_stages)
    for i in range(tb.n_stages):
        k[i] = -x * (1.0 + tb.a[i] @ k)
    return abs(1.0 + tb.b_high @ k)


class TestTableaux:
    @pytest.mark.parametrize("tb", [VERNER_65_TABLEAU, FEHLBERG_45_TABLEAU],
                             ids=["verner", "fehlberg"])
    def test_order_conditions(self, tb):
        res = tb.check_order_conditions(max_order=4)
        for name, val in res.items():
            assert val < 1e-12, f"{tb.name} violates {name}: {val}"

    def test_verner_has_8_stages(self):
        assert VERNER_65_TABLEAU.n_stages == 8

    def test_embedded_weights_differ(self):
        assert np.any(VERNER_65_TABLEAU.error_weights != 0)

    def test_non_lower_triangular_rejected(self):
        a = np.ones((2, 2))
        with pytest.raises(ValueError):
            ButcherTableau(a=a, b_high=np.ones(2) / 2, b_low=np.ones(2) / 2,
                           c=np.zeros(2), order_high=2, order_low=1)

    def test_wrong_length_weights_rejected(self):
        a = np.zeros((2, 2))
        a[1, 0] = 1.0
        with pytest.raises(ValueError):
            ButcherTableau(a=a, b_high=np.ones(3), b_low=np.ones(2) / 2,
                           c=np.array([0.0, 1.0]), order_high=2, order_low=1)


class TestRealStability:
    @pytest.mark.parametrize("tb, boundary, tol", [
        (VERNER_65_TABLEAU, 4.06478, 1e-5), (_rk4(), 2.785, 1e-3)],
        ids=["verner", "rk4"])
    def test_boundary_of_the_propagated_solution(self, tb, boundary, tol):
        x = tb.real_stability
        assert x == pytest.approx(boundary, abs=tol)
        assert _growth(tb, x * (1 - 1e-6)) < 1.0 < _growth(tb, x * (1 + 1e-6))
        # the first crossing: everything nearer the origin decays
        assert all(_growth(tb, f * x) < 1.0 for f in np.linspace(0.01, 0.99,
                                                                  99))

    def test_the_fraction_leaves_a_parasite_decaying(self):
        assert _growth(VERNER_65_TABLEAU, STABILITY_FRACTION
                       * VERNER_65_TABLEAU.real_stability
                       ) == pytest.approx(0.718, abs=1e-3)


class TestStiffRate:
    """``RKDriver(stiff_rate=...)`` on y' = -lam (y - cos t), lam = 2000:
    smooth solution, one stiff eigenvalue."""

    LAM = 2000.0

    def rhs(self, t, y):
        return -self.LAM * (y - math.cos(t))

    def run(self, cls=DVERK, **kwargs):
        stats = IntegratorStats()
        r = cls(self.rhs, rtol=1e-4, atol=1e-9, **kwargs).integrate(
            np.array([1.0]), 0.0, 3.0, stats=stats)
        return r.y, stats

    def test_told_the_bound_no_step_is_thrown_away(self):
        y_free, free = self.run()
        y_told, told = self.run(stiff_rate=lambda t, y: self.LAM)
        assert free.n_stability_bound == 0
        assert free.n_rejected > 0.2 * free.n_steps  # found by falling off
        assert told.n_rejected <= 2
        assert told.n_stability_bound > 0.9 * told.n_steps
        assert told.n_rhs < 0.85 * free.n_rhs
        assert y_told[0] == pytest.approx(y_free[0], rel=1e-4)
        # h * lam never beyond the fraction of the tableau's own boundary
        span = 3.0 / (told.n_steps + told.n_rejected)
        assert span * self.LAM <= (STABILITY_FRACTION
                                   * VERNER_65_TABLEAU.real_stability)

    @pytest.mark.parametrize("cls", [DVERK, RKF45])
    def test_a_rate_of_zero_is_no_rate(self, cls):
        y_none, none = self.run(cls)
        y_zero, zero = self.run(cls, stiff_rate=lambda t, y: 0.0)
        assert y_zero.tobytes() == y_none.tobytes()
        assert zero == none and zero.n_stability_bound == 0


class TestAccuracy:
    def test_exponential_decay(self):
        d = DVERK(lambda t, y: -y, rtol=1e-9, atol=1e-12)
        r = d.integrate(np.array([1.0]), 0.0, 5.0)
        assert abs(r.y[0] - math.exp(-5.0)) < 1e-10

    def test_harmonic_oscillator_energy(self):
        d = DVERK(lambda t, y: np.array([y[1], -y[0]]), rtol=1e-10,
                  atol=1e-13)
        r = d.integrate(np.array([1.0, 0.0]), 0.0, 20 * math.pi)
        energy = r.y[0] ** 2 + r.y[1] ** 2
        assert energy == pytest.approx(1.0, abs=1e-8)

    def test_tolerance_controls_error(self):
        errs = []
        for rtol in (1e-4, 1e-7, 1e-10):
            d = DVERK(lambda t, y: -y, rtol=rtol, atol=1e-14)
            r = d.integrate(np.array([1.0]), 0.0, 5.0)
            errs.append(abs(r.y[0] - math.exp(-5.0)))
        assert errs[0] > errs[1] > errs[2]

    def test_rkf45_agrees_with_dverk(self):
        def rhs(t, y):
            return np.array([y[1], -np.sin(y[0])])  # pendulum

        y0 = np.array([1.0, 0.0])
        r1 = DVERK(rhs, rtol=1e-10, atol=1e-12).integrate(y0, 0.0, 10.0)
        r2 = RKF45(rhs, rtol=1e-10, atol=1e-12).integrate(y0, 0.0, 10.0)
        assert np.allclose(r1.y, r2.y, atol=1e-7)

    def test_nonautonomous(self):
        # y' = t, y(0) = 0 -> y = t^2/2
        d = DVERK(lambda t, y: np.array([t]), rtol=1e-10, atol=1e-12)
        r = d.integrate(np.array([0.0]), 0.0, 3.0)
        assert r.y[0] == pytest.approx(4.5, rel=1e-9)

    @given(lam=st.floats(0.1, 5.0), t1=st.floats(0.5, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_decay_property(self, lam, t1):
        d = DVERK(lambda t, y: -lam * y, rtol=1e-8, atol=1e-12)
        r = d.integrate(np.array([1.0]), 0.0, t1)
        assert r.y[0] == pytest.approx(math.exp(-lam * t1), rel=1e-6)


class TestStopPoints:
    def test_stops_hit_exactly(self):
        seen = []
        d = DVERK(lambda t, y: -y, rtol=1e-8, atol=1e-12)
        stops = [0.5, 1.0, 1.5]
        d.integrate(np.array([1.0]), 0.0, 2.0, stop_points=stops,
                    on_stop=lambda t, y: seen.append(t))
        # final point 2.0 also triggers on_stop
        assert seen[:3] == stops
        assert seen[-1] == 2.0

    def test_values_at_stops_accurate(self):
        vals = {}
        d = DVERK(lambda t, y: -y, rtol=1e-10, atol=1e-13)
        d.integrate(np.array([1.0]), 0.0, 3.0,
                    stop_points=np.linspace(0.3, 2.7, 9),
                    on_stop=lambda t, y: vals.update({t: y[0]}))
        for t, v in vals.items():
            assert v == pytest.approx(math.exp(-t), rel=1e-8)

    def test_stop_points_outside_range_ignored(self):
        seen = []
        d = DVERK(lambda t, y: -y, rtol=1e-8, atol=1e-12)
        d.integrate(np.array([1.0]), 0.0, 1.0, stop_points=[-1.0, 5.0],
                    on_stop=lambda t, y: seen.append(t))
        assert seen == [1.0]

    def test_marginal_rejection_does_not_hang(self):
        # regression: a rejected step whose PI factor exceeded 1 used to
        # loop forever against the stop-point clamp
        calls = IntegratorStats()
        d = DVERK(lambda t, y: np.array([50.0 * math.cos(50.0 * t)]),
                  rtol=1e-6, atol=1e-9, max_steps=100_000)
        r = d.integrate(np.array([0.0]), 0.0, 5.0,
                        stop_points=np.linspace(0.1, 4.9, 25), stats=calls)
        assert r.y[0] == pytest.approx(math.sin(250.0), abs=1e-4)


class TestFailureModes:
    def test_backwards_time_rejected(self):
        d = DVERK(lambda t, y: -y)
        with pytest.raises(IntegrationError):
            d.integrate(np.array([1.0]), 1.0, 0.0)

    def test_max_steps_enforced(self):
        d = DVERK(lambda t, y: -y, rtol=1e-12, atol=1e-14, max_steps=3)
        with pytest.raises(IntegrationError, match="max_steps"):
            d.integrate(np.array([1.0]), 0.0, 100.0)

    def test_nan_rhs_shrinks_then_fails(self):
        def rhs(t, y):
            return np.array([float("nan")])

        d = DVERK(rhs, max_steps=1000)
        with pytest.raises(IntegrationError):
            d.integrate(np.array([1.0]), 0.0, 1.0)

    def test_stats_accumulate(self):
        stats = IntegratorStats()
        d = DVERK(lambda t, y: -y, rtol=1e-8, atol=1e-12)
        d.integrate(np.array([1.0]), 0.0, 1.0, stats=stats)
        n1 = stats.n_rhs
        d.integrate(np.array([1.0]), 0.0, 1.0, stats=stats)
        assert stats.n_rhs > n1
        assert stats.n_rhs == stats.n_steps * 8 + stats.n_rejected * 8 + 2


class TestController:
    def test_accept_boundary(self):
        c = StepController(order=6)
        assert c.accept(0.999)
        assert not c.accept(1.001)

    def test_factor_decreases_for_large_error(self):
        c = StepController(order=6)
        assert c.factor(100.0) < 1.0

    def test_factor_clamped(self):
        c = StepController(order=6)
        assert c.factor(1e30) == pytest.approx(c.min_factor)
        assert c.factor(0.0) == pytest.approx(c.max_factor)

    def test_factor_is_the_integral_law_alone(self):
        """One ``pow``, no memory: what the last accepted step's error
        was changes nothing (the "PI" term only ever cancelled itself)."""
        c = StepController(order=6)
        before = c.factor(0.3)
        assert before == 0.9 * 0.3 ** (-(1.0 / 6.0))
        c.accept(1e-7)
        assert c.factor(0.3) == before
        assert not hasattr(c, "beta")

    def test_error_norm_scale_invariance(self):
        c = StepController(order=6)
        y = np.array([1.0, 2.0])
        err = np.array([1e-6, 2e-6])
        n1 = c.error_norm(err, y, y, rtol=1e-6, atol=0.0)
        n2 = c.error_norm(10 * err, 10 * y, 10 * y, rtol=1e-6, atol=0.0)
        assert n1 == pytest.approx(n2)
