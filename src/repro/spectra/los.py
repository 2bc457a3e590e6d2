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

Consistency with the paper's direct method is enforced by the test
suite: at low l this projection and the full-hierarchy C_l agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import spherical_jn

from ..errors import ParameterError
from ..perturbations import ModeResult
from ..thermo import ThermalHistory
from .cl import cl_integrate_over_k

__all__ = ["SourceTable", "BesselCache", "cl_from_los", "theta_l_los",
           "resolve_bessel", "sources_from_result", "interpolate_sources_k"]


@dataclass
class SourceTable:
    """The line-of-sight source S_T(tau) for one wavenumber."""

    k: float
    tau: np.ndarray
    source: np.ndarray
    tau0: float
    _spline: CubicSpline | None = field(
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
        # derivatives: CubicSpline solves the same tridiagonal system
        # with three right-hand sides instead of three times.
        rec_spl = CubicSpline(tau, np.column_stack([vb, pi, alpha_dot]))
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

    def spline(self) -> CubicSpline:
        """The source interpolant, fit once per table (both the
        temperature and polarization projections resample it)."""
        if self._spline is None:
            self._spline = CubicSpline(self.tau, self.source)
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
    """Tabulated spherical Bessel functions j_l(x) on a uniform x grid.

    ``spherical_jn`` costs O(l) per evaluation; for C_l up to l ~ 10^3
    over hundreds of k values we would re-pay that cost millions of
    times.  One table per l, linearly interpolated, makes the Bessel
    kernel O(1) per point.
    """

    def __init__(self, x_max: float, dx: float = 0.25) -> None:
        self.x_max = float(x_max)
        self.dx = float(dx)
        self._x = np.arange(0.0, self.x_max + 4.0 * dx, dx)
        self._tables: dict[int, np.ndarray] = {}
        self._matrix: np.ndarray | None = None
        self._matrix_l: tuple[int, ...] = ()

    def table(self, l: int) -> np.ndarray:
        tab = self._tables.get(l)
        if tab is None:
            tab = spherical_jn(l, self._x)
            self._tables[l] = tab
        return tab

    # -- table round-tripping (precompute cache) ------------------------

    def to_tables(self) -> dict[str, np.ndarray]:
        """The dense j_l table as primitive arrays (precompute cache)."""
        l_values = np.array(sorted(self._tables), dtype=np.int64)
        return {
            "x_max": np.float64(self.x_max),
            "dx": np.float64(self.dx),
            "l_values": l_values,
            "jl": self.table_matrix(l_values),
        }

    @classmethod
    def from_tables(cls, tables: dict) -> "BesselCache":
        """Rebuild from :meth:`to_tables` output without a single
        ``spherical_jn`` call.

        The rows may be read-only views — they are consumed in place,
        and any multipole *not* in the table still materializes lazily
        on first use.
        """
        self = cls(float(tables["x_max"]), float(tables["dx"]))
        l_values = tuple(int(l) for l in np.asarray(tables["l_values"]))
        jl = np.asarray(tables["jl"], dtype=float)
        if jl.shape != (len(l_values), self._x.size):
            raise ParameterError(
                f"Bessel table shape {jl.shape} does not match its "
                f"(l_values, x grid) = ({len(l_values)}, {self._x.size})"
            )
        for l, row in zip(l_values, jl):
            self._tables[l] = row
        self._matrix = jl
        self._matrix_l = l_values
        return self

    def eval(self, l: int, x: np.ndarray) -> np.ndarray:
        """Linear interpolation of j_l at the (non-negative) points x."""
        tab = self.table(l)
        xi = np.clip(x, 0.0, self.x_max + 3.0 * self.dx) / self.dx
        # i+1 must stay in the table even when x sits exactly on the
        # clip bound (the grid carries a 4*dx margin past x_max)
        i = np.minimum(xi.astype(int), self._x.size - 2)
        frac = xi - i
        return tab[i] * (1.0 - frac) + tab[i + 1] * frac

    def table_matrix(self, l_values: np.ndarray) -> np.ndarray:
        """The stacked (nl, nx) table for many multipoles at once.

        Memoized on the requested l tuple, so per-source projection
        loops restack nothing.
        """
        key = tuple(int(l) for l in np.asarray(l_values).ravel())
        if self._matrix is not None and key == self._matrix_l:
            return self._matrix
        matrix = np.stack([self.table(l) for l in key])
        self._matrix = matrix
        self._matrix_l = key
        return matrix

    def eval_many(self, l_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """j_l(x) for every requested l as one (nl, nx) matrix.

        One fancy-index gather on the stacked table replaces the
        per-multipole Python loop; the interpolation weights are shared
        across rows.
        """
        tab = self.table_matrix(l_values)
        xi = np.clip(x, 0.0, self.x_max + 3.0 * self.dx) / self.dx
        i = np.minimum(xi.astype(int), self._x.size - 2)
        frac = xi - i
        return tab[:, i] * (1.0 - frac) + tab[:, i + 1] * frac


def resolve_bessel(
    sources: list[SourceTable],
    l_values: np.ndarray,
    bessel: BesselCache | None,
    cache,
) -> BesselCache:
    """The Bessel table a projection should use: the one given, the
    precompute cache's (persisted/shared dense table), or a fresh
    lazily-filled one."""
    if bessel is not None:
        return bessel
    x_max = max(s.k * s.tau0 for s in sources)
    if cache is not None:
        return cache.bessel(l_values, x_max)
    return BesselCache(x_max)


def theta_l_los(
    sources: list[SourceTable],
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
    cache=None,
) -> np.ndarray:
    """Theta_l(k) for every source table and multipole.

    Per source the quadrature over all multipoles is one (nl, ntau)
    matrix contraction against the stacked Bessel tables rather than a
    Python loop over l.  ``cache`` (a
    :class:`~repro.cache.PrecomputeCache`) supplies the dense j_l
    table from disk instead of ``spherical_jn``.

    Returns an array of shape (nk, nl).
    """
    l_values = np.asarray(l_values, dtype=int)
    bessel = resolve_bessel(sources, l_values, bessel, cache)
    out = np.empty((len(sources), l_values.size))
    for i, src in enumerate(sources):
        t, s = src.dense()
        x = src.k * (src.tau0 - t)
        kernel = s * bessel.eval_many(l_values, x)  # (nl, ntau)
        out[i] = np.trapezoid(kernel, t, axis=1)
    return out


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
    one stacked :class:`CubicSpline` over k fits every tau column at
    once (same tridiagonal solve, n_tau right-hand sides).  Dense k that
    are bitwise members of ``k_coarse`` copy their row verbatim instead
    of evaluating the polynomial: PPoly evaluation at a breakpoint is
    not guaranteed bit-identical, and the sparse fast path promises
    exact hits cost nothing in accuracy.

    Returns the (n_dense, n_tau) interpolated matrix.
    """
    k_coarse = np.asarray(k_coarse, dtype=float)
    src = np.asarray(source_matrix, dtype=float)
    k_dense = np.asarray(k_dense, dtype=float)
    if k_coarse.ndim != 1 or k_coarse.size < 2:
        raise ParameterError("need >= 2 coarse k nodes to interpolate")
    if np.any(np.diff(k_coarse) <= 0.0):
        raise ParameterError("coarse k grid must be strictly increasing")
    if src.ndim != 2 or src.shape[0] != k_coarse.size:
        raise ParameterError(
            "source matrix must be (n_coarse, n_tau) matching k_coarse"
        )
    if k_dense.min() < k_coarse[0] or k_dense.max() > k_coarse[-1]:
        raise ParameterError(
            "dense k outside the coarse grid: interpolation would "
            "extrapolate — the coarse grid must bracket every dense k"
        )
    out = CubicSpline(k_coarse, src, axis=0)(k_dense)
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
    cache=None,
) -> tuple[np.ndarray, np.ndarray]:
    """C_l via line-of-sight projection of a recorded LINGER run.

    Returns (l, C_l) with C_l unnormalized (same convention as
    :func:`repro.spectra.cl.cl_from_hierarchy`).  Pass a
    :class:`~repro.cache.PrecomputeCache` as ``cache`` to reuse a
    persisted Bessel table across runs.
    """
    sources = sources_from_result(linger_result)
    theta = theta_l_los(sources, l_values, bessel=bessel, cache=cache)
    cl = cl_integrate_over_k(
        linger_result.k, theta, n_s=linger_result.params.n_s
    )
    return np.asarray(l_values, dtype=int), cl
