"""The gather-form line-of-sight projection (frozen reference).

Until the projection became one matrix product
(``BesselCache.project``), ``theta_l_los`` and ``e_l_los`` each looped
over the sources, gathered the linearly interpolated j_l table at every
sample's ``x = k (tau0 - tau)`` for all multipoles at once
(``BesselCache.eval_many``) and summed with ``np.trapezoid``.  That
form moved here unchanged; ``tests/test_spectra.py`` holds ``project``
to it, to rounding, over random sources.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eval_many", "reference_project"]


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
        t, s = src.dense()
        x = src.k * (src.tau0 - t)
        if weight is not None:
            s = s * weight(x)
        kernel = s * eval_many(bessel, l_values, x)  # (nl, ntau)
        out[i] = np.trapezoid(kernel, t, axis=1)
    return out
