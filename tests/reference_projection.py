"""The per-source line-of-sight pipeline (frozen references).

Two generations of the projection live here, each pinned against the
block path of ``repro.spectra.los``:

* the **gather** form: until the projection became one matrix product
  (``BesselCache.project``), ``theta_l_los`` and ``e_l_los`` each looped
  over the sources, gathered the linearly interpolated j_l table at
  every sample's ``x = k (tau0 - tau)`` for all multipoles at once
  (``BesselCache.eval_many``) and summed with ``np.trapezoid``;
  ``tests/test_spectra.py`` holds ``project`` to it to rounding;
* the **per-source** forms the block path replaced, one wavenumber at a
  time: the source assembly of one mode (``reference_source_table``),
  one source's fit and resample (``reference_dense``) and scatter
  (``reference_scatter_project``), the sparse-k coarse sources splined
  one table at a time (``reference_sparse_sources``), and the python
  loop of the j_l recurrence (``reference_tables``).  The block path is
  held to these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.perturbations import default_record_grid, record_grid_start
from repro.spectra.los import SourceTable, interpolate_sources_k
from repro.util.fastspline import fit_cubic

__all__ = ["eval_many", "reference_project", "reference_source_table",
           "reference_dense", "reference_scatter_project",
           "reference_sparse_sources", "reference_tables"]


def eval_many(bessel, l_values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """j_l(x) for every requested l as one (nl, nx) matrix: one
    fancy-index gather on the stacked table, the interpolation weights
    shared across rows."""
    tab = bessel.table_matrix(l_values)
    xi = np.clip(x, 0.0, bessel.x_max + 3.0 * bessel.dx) / bessel.dx
    i = np.minimum(xi.astype(int), tab.shape[1] - 2)
    frac = xi - i
    return tab[:, i] * (1.0 - frac) + tab[:, i + 1] * frac


def reference_project(bessel, l_values: np.ndarray, sources,
                      weight=None) -> np.ndarray:
    """What ``bessel.project(l_values, sources, weight)`` computes, one
    source and one (nl, ntau) kernel at a time; shape (nk, nl)."""
    l_values = np.asarray(l_values, dtype=int)
    out = np.empty((len(sources), l_values.size))
    for i, src in enumerate(sources):
        t, s = reference_dense(src)
        x = src.k * (src.tau0 - t)
        if weight is not None:
            s = s * weight(x)
        kernel = s * eval_many(bessel, l_values, x)  # (nl, ntau)
        out[i] = np.trapezoid(kernel, t, axis=1)
    return out


def reference_source_table(mode, thermo, tau0: float) -> SourceTable:
    """The temperature source of one mode, assembled on its own."""
    k = mode.k
    k2 = k * k
    tau = mode.tau
    r = mode.records

    g = thermo.visibility(tau)
    gp = thermo.visibility_prime(tau)
    gpp = thermo.visibility_prime2(tau)
    emk = thermo.line_of_sight(tau)[1]

    vb = r["theta_b"] / k
    pi = r["pi"]
    alpha = r["alpha"]
    alpha_dot = r["alpha_dot"]

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
    return SourceTable(k=k, tau=tau, source=source, tau0=tau0)


def reference_dense(src, points_per_period: float = 8.0,
                    max_dtau: float = 12.0):
    """One source fitted on its own and resampled on a uniform grid
    fine enough for j_l: ``(t, S(t))``."""
    dtau = min(max_dtau, 2.0 * math.pi / src.k / points_per_period)
    n = max(int(math.ceil((src.tau0 - src.tau[0]) / dtau)), 16)
    t = np.linspace(src.tau[0], src.tau0, n)
    return t, fit_cubic(src.tau, src.source)(t)


def reference_scatter_project(bessel, l_values: np.ndarray, sources,
                              weight=None) -> np.ndarray:
    """The scatter + matrix-product projection, one source's scatter at
    a time; shape (nk, nl)."""
    table = bessel.table_matrix(l_values)
    nx = bessel._x.size
    scattered = np.empty((len(sources), nx))
    for row, src in zip(scattered, sources):
        t, s = reference_dense(src)
        x = src.k * (src.tau0 - t)
        half = 0.5 * np.diff(t)
        f = np.zeros_like(s)  # trapezoid weights, then times samples
        f[:-1] = half
        f[1:] += half
        f *= s
        if weight is not None:
            f *= weight(x)
        xi = x / bessel.dx
        i = xi.astype(int)
        frac = xi - i
        row[:] = np.bincount(i, f * (1.0 - frac), minlength=nx)
        row += np.bincount(i + 1, f * frac, minlength=nx)
    return scattered @ table.T


def reference_sparse_sources(coarse_result, kgrid) -> list[SourceTable]:
    """The dense-grid source tables of ``sparse_sources``, each coarse
    table splined onto the shared record grid on its own."""
    k_coarse, k_dense = coarse_result.kgrid.k, kgrid.k
    background, thermo = coarse_result.background, coarse_result.thermo
    tau0 = background.tau0
    tau_end = (tau0 if coarse_result.config.tau_end is None
               else coarse_result.config.tau_end)
    coarse_tables = [reference_source_table(m, thermo, tau0)
                     for m in coarse_result.modes]
    shared_tau = default_record_grid(background, thermo, float(k_dense[-1]),
                                     tau_end=tau_end)
    stacked = np.zeros((k_coarse.size, shared_tau.size))
    for row, src in zip(stacked, coarse_tables):
        j = np.searchsorted(shared_tau, src.tau[0])
        row[j:] = fit_cubic(src.tau, src.source)(shared_tau[j:])
    interp = interpolate_sources_k(k_coarse, stacked, k_dense)
    coarse_by_k = {float(s.k): s for s in coarse_tables}
    sources = []
    for i, k in enumerate(k_dense):
        hit = coarse_by_k.get(float(k))
        if hit is not None:
            sources.append(hit)
            continue
        j = np.searchsorted(shared_tau, record_grid_start(
            background, thermo, float(k), tau_end=tau_end))
        sources.append(SourceTable(k=float(k), tau=shared_tau[j:],
                                   source=interp[i, j:], tau0=tau0))
    return sources


def reference_tables(x_grid: np.ndarray, l_values) -> dict[int, np.ndarray]:
    """j_l on ``x_grid`` (``x_grid[0] == 0``) for every order of
    ``l_values``: the downward recurrence as a python loop over the
    orders, vectorised over the grid, normalised by j_0 or j_1."""
    x = x_grid[1:]
    inv_x = 1.0 / x
    start_order = np.ceil(
        x + 12.0 * np.cbrt(np.maximum(x, 1.0)) + 25.0).astype(int)
    top = int(start_order[-1])
    # first[l]: where the points whose sweep starts at order >= l begin
    first = np.searchsorted(start_order, np.arange(top + 2))
    rows = {int(l): np.zeros(x_grid.size) for l in l_values}
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
    return rows
