"""The repo's one cubic fit — its tridiagonal solve and its evaluator,
each against scipy's, which this file imports as the oracle and the
package does not import at all — and the fast uniform-grid splines on
it (the RHS hot-path lookups)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import _cext
from repro.errors import ParameterError
from repro.util.fastspline import (
    LogLogCubic,
    PiecewiseCubic,
    UniformGridCubic,
    fit_cubic,
)
from tests.reference_tridiag import (
    fit_coefficients,
    not_a_knot,
    solve_tridiagonal,
    tridiag_solve,
)


def _knots(kind: str, n: int) -> np.ndarray:
    if kind == "uniform":
        return np.linspace(-1.0, 4.0, n)
    if kind == "geometric":
        return np.geomspace(1e-3, 30.0, n)
    return np.sort(np.random.default_rng(n).uniform(0.0, 10.0, n))


class TestFitCubic:
    """``fit_cubic`` is scipy's not-a-knot ``CubicSpline``, bit for bit:
    coefficients, evaluation and derivatives."""

    @pytest.mark.parametrize("kind", ["uniform", "geometric", "random"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 401])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)])
    def test_coefficients_are_scipys(self, kind, n, trailing):
        from scipy.interpolate import CubicSpline

        x = _knots(kind, n)
        y = np.random.default_rng(7).normal(size=(n,) + trailing)
        ref = CubicSpline(x, y)
        fit = fit_cubic(x, y)
        assert fit.c.shape == (4, n - 1) + trailing
        pts = np.linspace(x[0] - 0.5, x[-1] + 0.5, 57)
        if n == 3:
            # scipy solves the 3-knot system with a dense LU, fit_cubic
            # with the tridiagonal elimination every other size takes:
            # another order of operations on a 3x3, so the slopes agree
            # to rounding — within 8 ulp of the largest on these grids
            # (measured: 4; up to 64 on 20 000 random ill-spaced ones) —
            # and the parabola's cubic coefficient is noise in both.
            # The one size where array_equal is relaxed.
            scale = np.max(np.abs(ref.c[2]))
            assert np.max(np.abs(fit.c[2] - ref.c[2])) \
                <= 8 * np.spacing(scale)
            np.testing.assert_allclose(fit(pts), ref(pts), rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(y)))
            return
        assert np.array_equal(fit.c, ref.c)
        # the solved slopes are the first derivatives at the knots
        # (the last knot belongs to the last piece's right end)
        assert np.array_equal(fit.c[2], ref.derivative(1)(x)[:-1])
        assert np.array_equal(fit(pts), ref(pts))
        for nu in (1, 2):
            assert np.array_equal(fit.derivative(nu)(pts),
                                  ref.derivative(nu)(pts))

    @pytest.mark.parametrize("kind", ["uniform", "geometric", "random"])
    @pytest.mark.parametrize("n", [2, 3, 4, 401])
    @pytest.mark.parametrize("trailing", [(), (3,)])
    def test_knot_slopes_are_the_derivative_at_the_knots(self, kind, n,
                                                          trailing):
        x = _knots(kind, n)
        fit = fit_cubic(x, np.random.default_rng(3).normal(
            size=(n,) + trailing))
        slopes = fit.knot_slopes()
        assert slopes.shape == (n,) + trailing
        assert slopes.tobytes() == fit.derivative(1)(x).tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           m=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_a_stacked_column_is_its_own_fit(self, seed, n, m):
        """Trailing columns are independent right-hand sides: a block
        of sources fitted at once carries each one's bits."""
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 2.0, n))
        y = rng.normal(size=(n, m))
        stacked = fit_cubic(x, y)
        for j in range(m):
            assert stacked.c[..., j].tobytes() == fit_cubic(
                x, y[:, j]).c.tobytes()

    def test_end_spacings_are_squared_as_the_1d_oracle_squares(self):
        """An end spacing whose libm square is not its product with
        itself: the stacked fit takes the 1-D oracle's bits there
        (the oracle's own stacked fit multiplies, and differs)."""
        from scipy.interpolate import CubicSpline

        d = 0.8683284008647664
        assert d ** 2 != d * d
        x = np.array([0.0, d, 1.5, 2.25, 3.0])
        y = np.random.default_rng(0).normal(size=(x.size, 2))
        stacked = fit_cubic(x, y)
        for j in range(2):
            assert np.array_equal(stacked.c[..., j],
                                  CubicSpline(x, y[:, j]).c)
        assert not np.array_equal(stacked.c, CubicSpline(x, y).c)

    def test_input_is_checked_once_here(self):
        x = np.linspace(0.0, 1.0, 6)
        y = np.ones(6)
        for bad_x in (x[::-1], np.array([0, 1, 1, 2, 3, 4.0]),
                      np.array([0, 1, np.nan, 3, 4, 5.0]),
                      np.array([0, 1, 2, 3, 4, np.inf]), x[:1],
                      x.reshape(2, 3)):
            with pytest.raises(ParameterError):
                fit_cubic(bad_x, y)
        with pytest.raises(ParameterError, match="finite"):
            fit_cubic(x, np.array([1, 1, np.nan, 1, 1, 1.0]))
        with pytest.raises(ParameterError, match="matching length"):
            fit_cubic(x, np.ones(5))

    @pytest.mark.parametrize("n", [2, 3, 4, 50])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)])
    def test_stacked_columns_fit_into_a_caller_buffer(self, n, trailing):
        """``out`` — half of a pack, as ``UniformGridCubic(out=...)``
        hands it — receives the coefficients of a fresh fit, and nothing
        else in the pack is written."""
        x = _knots("random", n)
        y = np.random.default_rng(5).normal(size=(n,) + trailing)
        pack = np.full((8, n - 1) + trailing, np.nan)
        fit = fit_cubic(x, y, out=pack[4:])
        assert np.shares_memory(fit.c, pack[4:])
        assert pack[4:].tobytes() == fit_cubic(x, y).c.tobytes()
        assert np.isnan(pack[:4]).all()
        strided = np.empty(pack[4:].shape + (2,))[..., 0]
        for bad in (pack[3:], strided,
                    np.empty(pack[4:].shape, dtype=np.float32)):
            with pytest.raises(ParameterError, match="out must be"):
                fit_cubic(x, y, out=bad)

    def test_input_arrays_untouched(self):
        x = _knots("random", 30)
        y = np.cos(x)
        x0, y0 = x.copy(), y.copy()
        fit_cubic(x, y)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)


def _jump_grid(n: int, seed: int, ratio: float) -> np.ndarray:
    """``n`` knots of jittered spacing with, at two seeded places, a
    spacing ``ratio`` times its neighbours'.  The elimination
    interchanges rows where a spacing exceeds twice the sum of the two
    before it (less the fill): from 8x on, always."""
    rng = np.random.default_rng(seed)
    dx = rng.uniform(0.8, 1.25, n - 1)
    dx[rng.integers(0, n - 1, 2)] *= ratio
    return np.concatenate(([0.0], np.cumsum(dx)))


class TestTridiagonalSolve:
    """The compiled ``tridiag_solve`` and its python twin
    (``tests/reference_tridiag.py``) are reference LAPACK's ``DGTSV``:
    the factors and the solution, not only the solution, are
    ``array_equal`` to ``scipy.linalg.lapack.dgtsv``'s."""

    @staticmethod
    def system(n, nrhs, seed, ratio):
        """The not-a-knot system of a spline on a jump grid, as the
        reference assembles it (a 2x2 no fit assembles, for n = 2)."""
        rng = np.random.default_rng([seed, n, nrhs])
        if n == 2:
            return (rng.normal(size=1), rng.normal(size=2),
                    rng.normal(size=1), rng.normal(size=(2, nrhs)))
        return not_a_knot(_jump_grid(n, seed, ratio),
                          rng.normal(size=(n, nrhs)))

    @pytest.mark.parametrize("nrhs", [1, 300])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6000])
    @given(seed=st.integers(0, 2**32 - 1), ratio=st.floats(8.0, 40.0))
    @settings(max_examples=12, deadline=None)
    def test_twins_are_lapacks_dgtsv(self, n, nrhs, seed, ratio):
        from scipy.linalg.lapack import dgtsv

        dl, d, du, b = self.system(n, nrhs, seed, ratio)
        want = dgtsv(dl, d, du, b)
        assert want[-1] == 0
        # the python twin, on lists
        rows = b[:, 0].tolist() if nrhs == 1 else list(b.copy())
        lists = dl.tolist(), d.tolist(), du.tolist(), rows
        assert tridiag_solve(*lists) == 0
        python = [np.array(lists[0]), np.array(lists[1]),
                  np.array(lists[2]), np.reshape(rows, b.shape)]
        # rows were interchanged: the fill is a second superdiagonal
        # (the last row's interchange leaves none; n = 5 may have no
        # other)
        if n == 6000:
            assert np.count_nonzero(python[0][:n - 2]) >= 1
        for got, ref in zip(python, want):
            assert np.array_equal(got, ref)
        compiled = [a.copy() for a in (dl, d, du, b)]
        assert _cext.get_cext().tridiag_raw(
            n, nrhs, *(a.ctypes.data for a in compiled)) == 0
        for got, ref in zip(compiled, python):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("nrhs", [1, 300])
    @pytest.mark.parametrize("n", [3, 4, 5, 6000])
    @given(seed=st.integers(0, 2**32 - 1), ratio=st.floats(8.0, 40.0))
    @settings(max_examples=6, deadline=None)
    def test_compiled_fit_is_the_reference_assembly(self, n, nrhs, seed,
                                                    ratio):
        """The compiled ``cubic_fit`` (and the 3-knot system solved by
        the compiled ``tridiag_solve``) is the reference's numpy
        assembly solved by the python twin, on the jump grids above."""
        rng = np.random.default_rng([seed, n, nrhs])
        x = _jump_grid(n, seed, ratio)
        y = rng.normal(size=(n, nrhs))
        assert fit_cubic(x, y).c.tobytes() == fit_coefficients(
            x, y).tobytes()

    @pytest.mark.parametrize("n", [4, 5])
    def test_small_grids_do_interchange_rows(self, n):
        """n = 4 and 5 reach the pivoting branch too, on a grid built
        to: a third spacing 30x the first two."""
        from scipy.interpolate import CubicSpline

        x = np.array([0.0, 1.0, 2.0, 32.0, 33.0][:n])
        compiled = fit_cubic(x, np.cos(x)).c
        fills = []

        def python_solve(lower, diag, upper, b):
            lists = lower.tolist(), diag.tolist(), upper.tolist()
            rows = b[:, 0].tolist()
            assert tridiag_solve(*lists, rows) == 0
            fills.extend(lists[0][:n - 2])
            b[:, 0] = rows
            return b

        python = fit_coefficients(x, np.cos(x), python_solve)
        assert any(v != 0.0 for v in fills)
        assert np.array_equal(python, compiled)
        assert np.array_equal(python, CubicSpline(x, np.cos(x)).c)

    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_zero_pivot_is_reported_not_divided_by(self, path):
        for (dl, d, du), nrhs, row in (
                (([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]), 1, 1),
                (([1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0]), 2, 3)):
            system = [np.array(a) for a in (dl, d, du)]
            system.append(np.ones((3, nrhs)))
            if path == "python":
                with pytest.raises(ParameterError,
                                   match=f"zero pivot in row {row}"):
                    solve_tridiagonal(*system)
            else:
                assert _cext.get_cext().tridiag_raw(
                    3, nrhs, *(a.ctypes.data for a in system)) == row
        if path == "compiled":
            # the fit's own solve reports it too: a repeated knot makes
            # the first pivot (the second spacing) zero
            x, c = np.array([0.0, 1.0, 1.0, 2.0]), np.empty(12)
            y, work = np.ones(4), np.empty(20)
            assert _cext.get_cext().fit_raw(
                4, 1, x.ctypes.data, y.ctypes.data, 1.0, 1.0,
                c.ctypes.data, work.ctypes.data) == 1


class TestPiecewiseCubic:
    """Values and derivatives of the evaluator are ``PPoly``'s, bit for
    bit: inside, at the breakpoints, beyond both ends, for scalar and
    array arguments, with and without trailing axes."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           order=st.integers(1, 4),
           trailing=st.sampled_from([(), (3,), (2, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_values_and_derivatives_are_ppolys(self, seed, n, order,
                                               trailing):
        from scipy.interpolate import PPoly

        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 2.0, n))
        c = rng.normal(size=(order, n - 1) + trailing)
        ours, ref = PiecewiseCubic(c, x), PPoly(c, x)
        span = x[-1] - x[0]
        pts = np.concatenate((
            x,                                        # every breakpoint
            np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            rng.uniform(x[0], x[-1], 25),             # inside
            [x[0] - span, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 3 * span],
            [np.nan]))
        for nu in (0, 1, 2, 3):
            a = ours if nu == 0 else ours.derivative(nu)
            b = ref if nu == 0 else ref.derivative(nu)
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a(pts), b(pts), equal_nan=True)
            shaped = pts[:12].reshape(3, 4)
            assert a(shaped).shape == (3, 4) + trailing
            assert np.array_equal(a(shaped), b(shaped))
            for scalar in (float(x[0]), float(pts[-3]), float(x[-1]),
                           0.5 * float(x[0] + x[-1])):
                got = a(scalar)
                assert np.shape(got) == trailing
                assert np.array_equal(got, b(scalar))


class TestUniformGridCubic:
    def test_matches_scipy_inside(self):
        from scipy.interpolate import CubicSpline

        x = np.linspace(0.0, 10.0, 101)
        y = np.sin(x) * np.exp(-0.1 * x)
        fast = UniformGridCubic(x, y)
        ref = CubicSpline(x, y)
        for xi in np.linspace(0.05, 9.95, 37):
            assert fast(xi) == pytest.approx(float(ref(xi)), abs=1e-12)

    def test_exact_at_knots(self):
        x = np.linspace(-3, 3, 31)
        y = x**3 - x
        s = UniformGridCubic(x, y)
        for xi, yi in zip(x, y):
            assert s(float(xi)) == pytest.approx(float(yi), abs=1e-10)

    def test_cubic_reproduced_exactly(self):
        x = np.linspace(0, 1, 11)
        y = 2 * x**3 - x**2 + 0.5
        s = UniformGridCubic(x, y)
        # a natural cubic spline does not reproduce a cubic exactly at
        # the ends, but interior evaluation should be very close
        assert s(0.55) == pytest.approx(2 * 0.55**3 - 0.55**2 + 0.5, abs=1e-3)

    def test_derivative_matches_numeric(self):
        x = np.linspace(0, 2 * math.pi, 200)
        s = UniformGridCubic(x, np.sin(x))
        for xi in (0.7, 2.1, 5.0):
            num = (s(xi + 1e-6) - s(xi - 1e-6)) / 2e-6
            assert s.derivative(xi) == pytest.approx(num, abs=1e-5)

    def test_clamps_outside_range(self):
        x = np.linspace(0, 1, 11)
        s = UniformGridCubic(x, x.copy())
        assert math.isfinite(s(-5.0))
        assert math.isfinite(s(7.0))

    def test_vector_matches_scalar(self):
        x = np.linspace(0, 5, 51)
        s = UniformGridCubic(x, np.cos(x))
        pts = np.linspace(0.1, 4.9, 23)
        vec = s.vector(pts)
        scal = np.array([s(float(p)) for p in pts])
        assert np.allclose(vec, scal, atol=1e-14)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            UniformGridCubic(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_uniformity_is_relative_at_any_spacing(self):
        """Knots closer than 1e-8 apart are held to the same relative
        test as any others: uneven ones are refused, not evaluated on
        the wrong pieces, and an even grid passes at every scale."""
        with pytest.raises(ParameterError, match="uniform"):
            UniformGridCubic(np.array([0.0, 1e-10, 3e-10, 3.5e-10, 9e-10]),
                             np.zeros(5))
        for dx in (1e-12, 1e-3, 1e6):
            x = dx * np.arange(9.0)
            s = UniformGridCubic(x, x * x)
            assert s(4.5 * dx) == pytest.approx(20.25 * dx * dx, rel=1e-9)

    @given(scale=st.floats(0.1, 100.0), shift=st.floats(-10, 10))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance(self, scale, shift):
        x = np.linspace(0, 1, 21)
        y = np.exp(-x) + x**2
        s1 = UniformGridCubic(x, y)
        s2 = UniformGridCubic(scale * x + shift, y)
        assert s2(scale * 0.4321 + shift) == pytest.approx(s1(0.4321),
                                                           rel=1e-9)


class TestLogLogCubic:
    def test_power_law_exact(self):
        x = np.geomspace(1e-3, 1e3, 121)
        s = LogLogCubic(x, 5.0 * x**-2.5)
        assert s(0.37) == pytest.approx(5.0 * 0.37**-2.5, rel=1e-10)

    def test_log_derivative(self):
        x = np.geomspace(0.01, 100, 201)
        s = LogLogCubic(x, 3.0 * x**1.7)
        assert s.log_derivative(1.23) == pytest.approx(1.7, abs=1e-8)

    def test_positive_required(self):
        x = np.geomspace(0.1, 10, 11)
        y = np.ones(11)
        y[5] = -1.0
        with pytest.raises(ValueError):
            LogLogCubic(x, y)

    def test_vector(self):
        x = np.geomspace(0.1, 10, 51)
        s = LogLogCubic(x, x**0.5)
        pts = np.geomspace(0.2, 8, 9)
        assert np.allclose(s.vector(pts), pts**0.5, rtol=1e-8)


class TestVectorBitCompat:
    """The fused-gather vector path must match the scalar path bitwise.

    ``vector()`` packs [c3, c2, c1, c0] rows and gathers once; the
    Horner grouping is identical to ``__call__``, so every result must
    be the same float64, not merely close.
    """

    def _spline(self):
        x = np.linspace(-2.0, 7.0, 181)
        y = np.sin(3.0 * x) / (1.0 + x * x)
        return UniformGridCubic(x, y)

    def test_bitwise_inside_range(self):
        s = self._spline()
        pts = np.linspace(-1.99, 6.99, 1009)
        vec = s.vector(pts)
        scal = np.array([s(float(p)) for p in pts])
        assert np.array_equal(vec, scal)

    def test_bitwise_outside_range(self):
        s = self._spline()
        pts = np.array([-100.0, -2.5, 7.5, 1e4])
        assert np.array_equal(s.vector(pts),
                              np.array([s(float(p)) for p in pts]))

    def test_bitwise_at_knots(self):
        s = self._spline()
        knots = np.linspace(-2.0, 7.0, 181)
        assert np.array_equal(s.vector(knots),
                              np.array([s(float(p)) for p in knots]))

    def test_nd_shapes(self):
        s = self._spline()
        pts = np.linspace(-1.5, 6.5, 24).reshape(2, 3, 4)
        out = s.vector(pts)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.ravel(), s.vector(pts.ravel()))

    def test_coefficients_written_into_caller_storage(self):
        # two splines on one grid share a contiguous pack (the thermal
        # history's ln kappa' / ln cs^2 rows, read whole by the kernels)
        x = np.linspace(-2.0, 7.0, 181)
        pack = np.empty((8, 180))
        s = UniformGridCubic(x, np.sin(x), out=pack[:4])
        c = UniformGridCubic(x, np.cos(x), out=pack[4:])
        plain = self._spline()
        own = UniformGridCubic(x, np.sin(3.0 * x) / (1.0 + x * x),
                               out=np.empty((4, 180)))
        pts = np.linspace(-3.0, 8.0, 300)
        assert np.array_equal(own.vector(pts), plain.vector(pts))
        assert np.shares_memory(s.c3, pack) and np.shares_memory(c.c0, pack)
        assert np.array_equal(pack, np.concatenate(
            [[s.c3, s.c2, s.c1, s.c0], [c.c3, c.c2, c.c1, c.c0]]))

    def test_loglog_vector_close(self):
        # np.exp (SIMD) and math.exp (libm) may differ in the last ulp,
        # so the log-log wrapper is compared with tolerance, not bits
        x = np.geomspace(1e-2, 1e3, 101)
        s = LogLogCubic(x, 2.0 * x**-1.3)
        pts = np.geomspace(2e-2, 8e2, 333)
        scal = np.array([s(float(p)) for p in pts])
        assert np.allclose(s.vector(pts), scal, rtol=1e-15)
