"""Line-of-sight integration of the recorded temperature source.

LINGER itself carries the hierarchy to l = 10^4; at Python speed we
reach high multipoles instead through the standard line-of-sight
decomposition (Seljak & Zaldarriaga 1996) applied to *the same
integration*: the source function is assembled from the quantities the
mode evolution records, and

    Theta_l(k) = int dtau  S_T(k, tau)  j_l(k (tau0 - tau)).

The synchronous-gauge temperature source (SZ96 eq. 16) is

    S_T = g (T0 + 2 alpha' + vb'/k + Pi/4 + 3 Pi''/(4 k^2))
        + e^-kappa (eta' + alpha'')
        + g' (vb/k + alpha + 3 Pi'/(2 k^2))
        + (3/(4 k^2)) g'' Pi

with T0 the photon temperature monopole delta_g/4, vb = theta_b/k,
Pi = F2 + G0 + G2 and alpha = (h' + 6 eta')/(2 k^2).  alpha' is known
algebraically (= psi - H_conf alpha); the remaining time derivatives
are taken by splining the records.

The projection itself is :meth:`BesselCache.project`: the j_l tables
come from one recurrence sweep, and the tau quadrature of every source
against every multipole is one matrix product (temperature here,
polarization in :mod:`~repro.spectra.polarization`).

Consistency with the paper's direct method is enforced by the test
suite: at low l this projection and the full-hierarchy C_l agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..perturbations import ModeResult
from ..thermo import ThermalHistory
from ..util.fastspline import PiecewiseCubic, fit_cubic
from .cl import cl_integrate_over_k

__all__ = ["SourceTable", "BesselCache", "cl_from_los", "theta_l_los",
           "sources_from_result", "interpolate_sources_k"]


@dataclass
class SourceTable:
    """The line-of-sight source S_T(tau) for one wavenumber."""

    k: float
    tau: np.ndarray
    source: np.ndarray
    tau0: float
    _spline: PiecewiseCubic | None = field(
        default=None, repr=False, compare=False
    )
    _dense_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def from_mode(cls, mode: ModeResult, thermo: ThermalHistory,
                  tau0: float) -> "SourceTable":
        if mode.tau.size < 8:
            raise ParameterError("mode has too few records for a source table")
        k = mode.k
        k2 = k * k
        tau = mode.tau
        r = mode.records

        g = thermo.visibility(tau)
        gp = thermo.visibility_prime(tau)
        gpp = thermo.visibility_prime2(tau)
        emk = thermo.exp_minus_kappa(tau)

        vb = r["theta_b"] / k
        pi = r["pi"]
        alpha = r["alpha"]
        alpha_dot = r["alpha_dot"]

        # One stacked fit for all three records that need time
        # derivatives: the same tridiagonal system with three
        # right-hand sides instead of three solves.
        rec_spl = fit_cubic(tau, np.column_stack([vb, pi, alpha_dot]))
        d1 = rec_spl.derivative(1)(tau)
        vb_dot, pi_dot, alpha_ddot = d1[:, 0], d1[:, 1], d1[:, 2]
        pi_ddot = rec_spl.derivative(2)(tau)[:, 1]

        theta0 = r["delta_g"] / 4.0
        source = (
            g * (theta0 + 2.0 * alpha_dot + vb_dot / k + pi / 4.0
                 + 3.0 * pi_ddot / (4.0 * k2))
            + emk * (r["etadot"] + alpha_ddot)
            + gp * (vb / k + alpha + 3.0 * pi_dot / (2.0 * k2))
            + 3.0 / (4.0 * k2) * gpp * pi
        )
        return cls(k=k, tau=tau, source=source, tau0=tau0)

    def spline(self) -> PiecewiseCubic:
        """The source interpolant, fit once per table (both the
        temperature and polarization projections resample it)."""
        if self._spline is None:
            self._spline = fit_cubic(self.tau, self.source)
        return self._spline

    def dense(self, points_per_period: float = 8.0,
              max_dtau: float = 12.0) -> tuple[np.ndarray, np.ndarray]:
        """Source resampled on a uniform grid fine enough for j_l.

        The Bessel kernel oscillates in tau with period 2 pi / k, so the
        quadrature step is the smaller of ``max_dtau`` and that period
        over ``points_per_period``.  Memoized: repeated projections of
        the same table (temperature then polarization, or several l
        batches) resample once.
        """
        key = (points_per_period, max_dtau)
        hit = self._dense_cache.get(key)
        if hit is not None:
            return hit
        dtau = min(max_dtau, 2.0 * math.pi / self.k / points_per_period)
        n = max(int(math.ceil((self.tau0 - self.tau[0]) / dtau)), 16)
        t = np.linspace(self.tau[0], self.tau0, n)
        s = self.spline()(t)
        self._dense_cache[key] = (t, s)
        return t, s


class BesselCache:
    """Spherical Bessel functions j_l(x) tabulated on a uniform x grid,
    and the line-of-sight projection against them.

    The table rows are filled by one downward (Miller) recurrence
    vectorised over the grid (:meth:`table_matrix`), so building every
    multipole a projection needs costs one sweep over the orders rather
    than an O(l) evaluation per point per multipole.  Between grid
    points j_l is linear in the table values, which makes the whole
    projection a linear map of the source samples: :meth:`project`
    applies it as one matrix product.
    """

    def __init__(self, x_max: float, dx: float = 0.25) -> None:
        self.x_max = float(x_max)
        self.dx = float(dx)
        self._x = np.arange(0.0, self.x_max + 4.0 * dx, dx)
        self._tables: dict[int, np.ndarray] = {}

    def table(self, l: int) -> np.ndarray:
        """j_l on the grid (filled on first use, then the same array)."""
        if l not in self._tables:
            self._fill([l])
        return self._tables[l]

    def _fill(self, l_values: list[int]) -> None:
        """Tabulate every order of ``l_values`` in one downward sweep.

        j_(l-1) = (2l+1)/x j_l - j_(l+1), started for each x from a
        tiny seed at order ceil(x + 12 cbrt(max(x, 1)) + 25) — far
        enough past the turning point l ~ x that the minimal solution
        has taken over to double precision by the time l <= x, close
        enough that the growth on the way down (< 1e90 from a 1e-300
        seed) cannot overflow.  The start order rises with x, so the
        points active at order l are a suffix of the ascending grid.
        Rows are normalised by whichever closed form, j_0 or j_1, is
        larger in magnitude at that x; j_l(0) is exact.
        """
        x = self._x[1:]
        inv_x = 1.0 / x
        start_order = np.ceil(
            x + 12.0 * np.cbrt(np.maximum(x, 1.0)) + 25.0).astype(int)
        top = int(start_order[-1])
        # first[l]: where the points whose sweep starts at order >= l begin
        first = np.searchsorted(start_order, np.arange(top + 2))
        rows = {l: np.zeros(self._x.size) for l in l_values}
        above = np.zeros(x.size)  # j_(l+1), unnormalised
        cur = np.zeros(x.size)  # j_l
        below = np.zeros(x.size)
        for l in range(top, -1, -1):
            a = first[l]
            cur[a:first[l + 1]] = 1.0e-300
            row = rows.get(l)
            if row is not None:
                row[1 + a:] = cur[a:]
            if l == 0:
                break
            np.multiply(inv_x[a:], 2 * l + 1, out=below[a:])
            below[a:] *= cur[a:]
            below[a:] -= above[a:]
            above, cur, below = cur, below, above
        j0 = np.sin(x) * inv_x
        j1 = (j0 - np.cos(x)) * inv_x
        use_j0 = np.abs(j0) >= np.abs(j1)
        norm = np.where(use_j0, j0, j1) / np.where(use_j0, cur, above)
        for l, row in rows.items():
            row[1:] *= norm
            if l == 0:
                row[0] = 1.0
        self._tables.update(rows)

    def _check_covers(self, x_need: float) -> None:
        if x_need > self.x_max:
            raise ParameterError(
                f"Bessel table reaches x_max = {self.x_max:.6g} but j_l is "
                f"needed up to x = {x_need:.6g} (max k * tau0)"
            )

    def eval(self, l: int, x: np.ndarray) -> np.ndarray:
        """Linear interpolation of j_l at the points x in [0, x_max]."""
        if np.min(x) < 0.0:
            raise ParameterError("j_l is tabulated for x >= 0 only")
        self._check_covers(float(np.max(x)))
        tab = self.table(l)
        xi = x / self.dx
        i = xi.astype(int)
        frac = xi - i
        return tab[i] * (1.0 - frac) + tab[i + 1] * frac

    def table_matrix(self, l_values: np.ndarray) -> np.ndarray:
        """The stacked (nl, nx) table for many multipoles at once.

        Rows not tabulated yet are filled together, in one sweep.
        """
        key = [int(l) for l in np.asarray(l_values).ravel()]
        missing = sorted(set(key) - self._tables.keys())
        if missing:
            self._fill(missing)
        return np.stack([self._tables[l] for l in key])

    def project(self, l_values: np.ndarray, sources: list[SourceTable],
                weight=None) -> np.ndarray:
        """int dtau S(k, tau) w(x) j_l(x), x = k (tau0 - tau), for every
        source table and multipole; shape (nk, nl).

        Trapezoid quadrature over each source's dense grid of the
        linearly interpolated table is linear in the samples, so its
        transpose is applied instead: each sample, times its trapezoid
        weight (and ``weight(x)``, if given), is scattered onto the two
        table nodes bracketing its x with the interpolation weights.
        That leaves one (nk, nx) matrix, and a single product with the
        (nl, nx) table gives every Theta_l(k).
        """
        self._check_covers(max(s.k * s.tau0 for s in sources))
        table = self.table_matrix(l_values)
        nx = self._x.size
        scattered = np.empty((len(sources), nx))
        for row, src in zip(scattered, sources):
            t, s = src.dense()
            x = src.k * (src.tau0 - t)
            half = 0.5 * np.diff(t)
            f = np.zeros_like(s)  # trapezoid weights, then times samples
            f[:-1] = half
            f[1:] += half
            f *= s
            if weight is not None:
                f *= weight(x)
            xi = x / self.dx
            i = xi.astype(int)
            frac = xi - i
            row[:] = np.bincount(i, f * (1.0 - frac), minlength=nx)
            row += np.bincount(i + 1, f * frac, minlength=nx)
        return scattered @ table.T


def theta_l_los(
    sources: list[SourceTable],
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
) -> np.ndarray:
    """Theta_l(k) for every source table and multipole; shape (nk, nl).

    ``bessel`` must reach ``max(k * tau0)``; by default a table of
    exactly that extent is built here.
    """
    l_values = np.asarray(l_values, dtype=int)
    if bessel is None:
        bessel = BesselCache(max(s.k * s.tau0 for s in sources))
    return bessel.project(l_values, sources)


def sources_from_result(linger_result) -> list[SourceTable]:
    """One :class:`SourceTable` per mode of a recorded LINGER run.

    Requires ``keep_mode_results=True`` and ``record_sources=True``;
    both the dense LOS projection and the sparse-k fast path build on
    this list.
    """
    modes = [m for m in linger_result.modes if m is not None]
    if len(modes) != linger_result.kgrid.nk:
        raise ParameterError(
            "line-of-sight C_l needs a run with keep_mode_results=True "
            "and record_sources=True"
        )
    tau0 = linger_result.background.tau0
    return [
        SourceTable.from_mode(m, linger_result.thermo, tau0) for m in modes
    ]


def interpolate_sources_k(
    k_coarse: np.ndarray,
    source_matrix: np.ndarray,
    k_dense: np.ndarray,
) -> np.ndarray:
    """Spline source functions across wavenumber onto a dense k grid.

    ``source_matrix`` holds S_T(k_i, tau_j) rows on a *shared* tau grid;
    one stacked :func:`~repro.util.fastspline.fit_cubic` over k fits
    every tau column at once (same tridiagonal solve, n_tau right-hand
    sides).  Dense k that are bitwise members of ``k_coarse`` copy their
    row verbatim instead of evaluating the polynomial: that evaluation
    at a breakpoint is not guaranteed bit-identical, and the sparse fast
    path promises exact hits cost nothing in accuracy.

    Returns the (n_dense, n_tau) interpolated matrix.
    """
    k_coarse = np.asarray(k_coarse, dtype=float)
    src = np.asarray(source_matrix, dtype=float)
    k_dense = np.asarray(k_dense, dtype=float)
    if k_coarse.ndim != 1 or k_coarse.size < 2:
        raise ParameterError("need >= 2 coarse k nodes to interpolate")
    if src.ndim != 2 or src.shape[0] != k_coarse.size:
        raise ParameterError(
            "source matrix must be (n_coarse, n_tau) matching k_coarse"
        )
    if k_dense.min() < k_coarse[0] or k_dense.max() > k_coarse[-1]:
        raise ParameterError(
            "dense k outside the coarse grid: interpolation would "
            "extrapolate — the coarse grid must bracket every dense k"
        )
    out = fit_cubic(k_coarse, src)(k_dense)
    idx = np.minimum(
        np.searchsorted(k_coarse, k_dense), k_coarse.size - 1
    )
    hit = k_coarse[idx] == k_dense
    out[hit] = src[idx[hit]]
    return out


def cl_from_los(
    linger_result,
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """C_l via line-of-sight projection of a recorded LINGER run.

    Returns (l, C_l) with C_l unnormalized (same convention as
    :func:`repro.spectra.cl.cl_from_hierarchy`).
    """
    sources = sources_from_result(linger_result)
    theta = theta_l_los(sources, l_values, bessel=bessel)
    cl = cl_integrate_over_k(
        linger_result.k, theta, n_s=linger_result.params.n_s
    )
    return np.asarray(l_values, dtype=int), cl
