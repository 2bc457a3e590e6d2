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
come from one recurrence sweep (the compiled ``bessel_sweep``), and the
tau quadrature of every source against every multipole is one matrix
product (temperature here, polarization in
:mod:`~repro.spectra.polarization`).

Both stages work on blocks of wavenumbers that share a grid, not one
wavenumber at a time: :func:`sources_from_result` assembles the modes
of one record grid with one stacked fit, and :meth:`BesselCache.project`
resamples the sources of one record and dense grid with one stacked fit
and scatters them with one pair of ``bincount`` calls.  Every element
goes through the arithmetic of the one-wavenumber form, so the blocks
change no bit (``tests/reference_projection.py`` keeps those forms).

Consistency with the paper's direct method is enforced by the test
suite: at low l this projection and the full-hierarchy C_l agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import _cext
from ..errors import ParameterError
from ..perturbations import ModeResult
from ..thermo import ThermalHistory
from ..util.fastspline import PiecewiseCubic, fit_cubic
from .cl import cl_integrate_over_k

__all__ = ["SourceTable", "BesselCache", "cl_from_los", "theta_l_los",
           "sources_from_result", "interpolate_sources_k"]


@dataclass
class SourceTable:
    """The line-of-sight source S(tau) for one wavenumber."""

    k: float
    tau: np.ndarray
    source: np.ndarray
    tau0: float

    @classmethod
    def from_mode(cls, mode: ModeResult, thermo: ThermalHistory,
                  tau0: float) -> "SourceTable":
        """The temperature source of one mode (:func:`_source_tables` of
        that mode alone)."""
        return _source_tables([mode], thermo, tau0)[0]

    def dense_size(self) -> int:
        """Points of the uniform tau grid, first record to tau0, that the
        j_l quadrature resamples the source on: the Bessel kernel
        oscillates in tau with period 2 pi / k, so the step is the
        smaller of 12 Mpc and an eighth of that period."""
        dtau = min(12.0, 2.0 * math.pi / self.k / 8.0)
        return max(int(math.ceil((self.tau0 - self.tau[0]) / dtau)), 16)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The source resampled for the quadrature: ``(t, S(t))``."""
        (t, _rows, block), = _resampled([self])
        return t, block[:, 0]


def _groups(keys) -> list[list[int]]:
    """Indices grouped by equal key, groups in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _source_tables(modes: list[ModeResult], thermo: ThermalHistory,
                  tau0: float) -> list[SourceTable]:
    """One temperature :class:`SourceTable` per mode, in mode order.

    Modes whose record grids are bitwise equal form one block: g, g',
    g'' and e^-kappa are evaluated once for it, and the three records
    that need time derivatives (vb, Pi, alpha') of every member go
    through one stacked :func:`~repro.util.fastspline.fit_cubic` —
    independent right-hand sides of one tridiagonal solve, so each
    column keeps the bits of its own fit, and every sample below is the
    elementwise expression of one mode.
    """
    if any(m.tau.size < 8 for m in modes):
        raise ParameterError("mode has too few records for a source table")
    out: list[SourceTable | None] = [None] * len(modes)
    for group in _groups(m.tau.tobytes() for m in modes):
        members = [modes[i] for i in group]
        tau = members[0].tau
        k = np.array([m.k for m in members])
        k2 = k * k

        def rec(name):
            return np.column_stack([m.records[name] for m in members])

        g, emk = thermo.line_of_sight(tau)
        g, emk = g[:, None], emk[:, None]
        gp = thermo.visibility_prime(tau)[:, None]
        gpp = thermo.visibility_prime2(tau)[:, None]

        vb = rec("theta_b") / k
        pi = rec("pi")
        alpha_dot = rec("alpha_dot")
        rec_spl = fit_cubic(tau, np.stack([vb, pi, alpha_dot], axis=1))
        d1 = rec_spl.derivative(1)(tau)
        vb_dot, pi_dot, alpha_ddot = d1[:, 0], d1[:, 1], d1[:, 2]
        pi_ddot = PiecewiseCubic(rec_spl.c[:, :, 1], tau).derivative(2)(tau)

        theta0 = rec("delta_g") / 4.0
        source = (
            g * (theta0 + 2.0 * alpha_dot + vb_dot / k + pi / 4.0
                 + 3.0 * pi_ddot / (4.0 * k2))
            + emk * (rec("etadot") + alpha_ddot)
            + gp * (vb / k + rec("alpha") + 3.0 * pi_dot / (2.0 * k2))
            + 3.0 / (4.0 * k2) * gpp * pi
        )
        for j, (i, m) in enumerate(zip(group, members)):
            out[i] = SourceTable(k=m.k, tau=m.tau,
                                 source=source[:, j].copy(), tau0=tau0)
    return out  # type: ignore[return-value]


def _resampled(sources: list[SourceTable]):
    """Yield ``(t, rows, block)`` per group of sources sharing a record
    grid, tau0 and dense grid: ``block[:, j]`` is source ``rows[j]``
    resampled on ``t`` — one stacked fit, one evaluation per group."""
    keys = ((s.tau.tobytes(), s.tau0, s.dense_size()) for s in sources)
    for rows in _groups(keys):
        first = sources[rows[0]]
        t = np.linspace(first.tau[0], first.tau0, first.dense_size())
        stacked = np.column_stack([sources[i].source for i in rows])
        yield t, rows, fit_cubic(first.tau, stacked)(t)


class BesselCache:
    """Spherical Bessel functions j_l(x) tabulated on a uniform x grid,
    and the line-of-sight projection against them.

    The table rows are filled by one downward (Miller) recurrence, a
    compiled loop over the grid (:meth:`table_matrix`), so building
    every multipole a projection needs costs one sweep over the orders
    rather than an O(l) evaluation per point per multipole.  Between grid
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
        seed) cannot overflow.  The sweep is the compiled
        ``bessel_sweep``; rows are normalised here by whichever closed
        form, j_0 or j_1, is larger in magnitude at that x (numpy's
        ``sin`` / ``cos``, not libm's); j_l(0) is exact.
        """
        x = self._x[1:]
        inv_x = 1.0 / x
        start_order = np.ceil(
            x + 12.0 * np.cbrt(np.maximum(x, 1.0)) + 25.0).astype(np.int64)
        want = np.array(sorted(set(l_values), reverse=True), dtype=np.int64)
        rows = np.zeros((want.size, self._x.size))
        work = np.zeros(3 * x.size)
        j0u, j1u = np.empty((2, x.size))
        _cext.get_cext().bessel_raw(
            x.size, inv_x.ctypes.data, start_order.ctypes.data, want.size,
            want.ctypes.data, rows.ctypes.data, self._x.size,
            work.ctypes.data, j0u.ctypes.data, j1u.ctypes.data)
        j0 = np.sin(x) * inv_x
        j1 = (j0 - np.cos(x)) * inv_x
        use_j0 = np.abs(j0) >= np.abs(j1)
        norm = np.where(use_j0, j0, j1) / np.where(use_j0, j0u, j1u)
        for l, row in zip(want.tolist(), rows):
            row[1:] *= norm
            if l == 0:
                row[0] = 1.0
            self._tables[l] = row

    def _check_covers(self, x_need: float) -> None:
        if x_need > self.x_max:
            raise ParameterError(
                f"Bessel table reaches x_max = {self.x_max:.6g} but j_l is "
                f"needed up to x = {x_need:.6g} (max k * tau0)"
            )

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
        Sources sharing a record grid and a dense grid are resampled as
        one block (:func:`_resampled`) and scattered together: two
        ``bincount`` calls whose bins are offset by row, the lower and
        upper node sums kept apart so that every bin adds in the order
        a single source's scatter would.  That leaves one (nk, nx)
        matrix, and a single product with the (nl, nx) table gives
        every Theta_l(k).
        """
        self._check_covers(max(s.k * s.tau0 for s in sources))
        table = self.table_matrix(l_values)
        nx = self._x.size
        scattered = np.empty((len(sources), nx))
        for t, rows, f in _resampled(sources):
            half = 0.5 * np.diff(t)
            w = np.zeros_like(t)  # trapezoid weights
            w[:-1] = half
            w[1:] += half
            f *= w[:, None]  # f: the samples, then times their weights
            x = (sources[rows[0]].tau0 - t)[:, None] * np.array(
                [sources[r].k for r in rows])
            if weight is not None:
                f *= weight(x)
            x /= self.dx
            i = x.astype(np.intp)
            x -= i  # the fraction past the lower node
            i += np.arange(len(rows)) * nx  # row j's bins start at j nx
            lower = 1.0 - x
            lower *= f
            block = np.bincount(i.ravel(), lower.ravel(),
                                minlength=len(rows) * nx)
            del lower
            f *= x
            i += 1
            block += np.bincount(i.ravel(), f.ravel(),
                                 minlength=len(rows) * nx)
            scattered[rows] = block.reshape(len(rows), nx)
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
    return _source_tables(modes, linger_result.thermo,
                         linger_result.background.tau0)


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
