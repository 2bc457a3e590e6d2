"""C_l directly from the evolved multipole hierarchy (the paper's method).

LINGER carries the full Boltzmann hierarchy to the present, so the
temperature transfer function at multipole l is simply
``Theta_l(k) = F_l(k, tau0) / 4`` and

    C_l = 4 pi  int dln k  P(k)  |Theta_l(k)|^2,

with ``P(k) = (k / k_pivot)^(n_s - 1)`` the dimensionless primordial
spectrum for unit-amplitude initial conditions (the absolute
normalization is fixed afterwards against the COBE Q_rms-PS).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError

__all__ = ["cl_integrate_over_k", "cl_from_hierarchy", "los_l_grid"]


def los_l_grid(l_max: int, n: int = 40, l_min: int = 2) -> np.ndarray:
    """A log-spaced multipole grid for line-of-sight spectra.

    Every l up to ~12 (where C_l varies fastest relative to l) plus
    ``n`` geometrically spaced multipoles up to ``l_max``: the one
    canonical grid the LOS and sparse-k routes default to.
    """
    if l_max < l_min:
        raise ParameterError("l_max must be >= l_min")
    dense_top = min(12, l_max)
    dense = np.arange(l_min, dense_top + 1)
    # geomspace endpoints carry exp(log x) float jitter (e.g. 7.999...),
    # which astype(int) truncates below l_min when l_max < 12; clip so
    # the grid never leaves [l_min, l_max].
    sparse = np.geomspace(dense_top, l_max, n).astype(int)
    sparse = np.clip(sparse, l_min, l_max)
    return np.unique(np.concatenate([dense, sparse]))


def cl_integrate_over_k(
    k: np.ndarray,
    theta_l_of_k: np.ndarray,
    n_s: float = 1.0,
    k_pivot: float = 0.05,
) -> np.ndarray:
    """Integrate |Theta_l(k)|^2 against the primordial spectrum.

    Parameters
    ----------
    k:
        Ascending wavenumber grid [Mpc^-1], shape (nk,).
    theta_l_of_k:
        Transfer functions, shape (nk,) for one l or (nk, nl) for many.

    Returns
    -------
    C_l (unnormalized), scalar or shape (nl,).
    """
    k = np.asarray(k, dtype=float)
    th = np.asarray(theta_l_of_k, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise ParameterError("need an ascending k grid with >= 2 points")
    power = (k / k_pivot) ** (n_s - 1.0)
    integrand = power[:, None] * th.reshape(k.size, -1) ** 2
    lnk = np.log(k)
    cl = 4.0 * np.pi * np.trapezoid(integrand, lnk, axis=0)
    return cl[0] if th.ndim == 1 else cl


def cl_from_hierarchy(
    linger_result,
    l_values: np.ndarray | None = None,
    l_margin: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """C_l from a fixed-lmax LINGER run's final multipoles.

    Multipoles within ``l_margin`` of the truncation cutoff are excluded
    (they are contaminated by the truncation boundary condition).

    Returns (l, C_l) with C_l unnormalized.
    """
    theta = linger_result.theta_l_matrix()  # (nk, lmax+1)
    lmax = theta.shape[1] - 1
    l_top = lmax - l_margin
    if l_values is None:
        l_values = np.arange(2, l_top + 1)
    l_values = np.asarray(l_values, dtype=int)
    if l_values.min() < 2 or l_values.max() > l_top:
        raise ParameterError(
            f"l must lie in [2, {l_top}] for this run (lmax={lmax})"
        )
    cl = cl_integrate_over_k(
        linger_result.k,
        theta[:, l_values],
        n_s=linger_result.params.n_s,
    )
    return l_values, cl
