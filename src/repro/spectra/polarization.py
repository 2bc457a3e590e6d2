"""E-mode polarization spectrum from the recorded sources.

The paper's physics includes "two photon polarizations and the full
angular dependences of the scattering cross section"; the natural
observable that machinery predicts beyond the temperature spectrum is
the E-mode polarization power spectrum.  In the line-of-sight
formalism (Seljak & Zaldarriaga 1996) the E source is purely the
polarization sum Pi = F2 + G0 + G2 weighted by the visibility:

    E_l(k) = sqrt((l+2)!/(l-2)!) int dtau  (3 g Pi / 4) j_l(x) / x^2,
    x = k (tau0 - tau),

and C_l^EE = 4 pi int dln k P(k) |E_l(k)|^2 with the same primordial
spectrum and normalization factor as the temperature C_l.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..perturbations import ModeResult
from ..thermo import ThermalHistory
from .cl import cl_integrate_over_k
from .los import BesselCache, SourceTable

__all__ = ["polarization_source", "e_l_los", "cl_ee_from_los"]


def polarization_source(mode: ModeResult, thermo: ThermalHistory,
                        tau0: float) -> SourceTable:
    """The E-mode source 3 g(tau) Pi(k, tau) / 4 for one mode.

    The geometric j_l(x)/x^2 factor is applied at projection time.
    """
    if mode.tau.size < 8:
        raise ParameterError("mode has too few records for a source table")
    g = thermo.visibility(mode.tau)
    source = 0.75 * g * mode.records["pi"]
    return SourceTable(k=mode.k, tau=mode.tau, source=source, tau0=tau0)


def e_l_los(
    sources: list[SourceTable],
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
) -> np.ndarray:
    """E_l(k) for every polarization source table; shape (nk, nl).

    The temperature projection (:meth:`BesselCache.project`) with the
    geometric 1/x^2 riding as its sample weight.
    """
    l_values = np.asarray(l_values, dtype=int)
    if np.any(l_values < 2):
        raise ParameterError("polarization is defined for l >= 2")
    if bessel is None:
        bessel = BesselCache(max(s.k * s.tau0 for s in sources))
    lv = l_values.astype(float)
    geom = np.sqrt((lv + 2.0) * (lv + 1.0) * lv * (lv - 1.0))
    return geom * bessel.project(
        l_values, sources,
        weight=lambda x: 1.0 / np.maximum(x, 1e-8) ** 2)


def cl_ee_from_los(
    linger_result,
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """C_l^EE (unnormalized, same convention as the temperature C_l).

    Multiply by the *same* COBE normalization factor obtained from the
    temperature spectrum of the same run to get dimensionless C_l^EE.
    """
    modes = [m for m in linger_result.modes if m is not None]
    if len(modes) != linger_result.kgrid.nk:
        raise ParameterError(
            "polarization C_l needs a run with keep_mode_results=True"
        )
    tau0 = linger_result.background.tau0
    sources = [
        polarization_source(m, linger_result.thermo, tau0) for m in modes
    ]
    e_l = e_l_los(sources, l_values, bessel=bessel)
    cl = cl_integrate_over_k(
        linger_result.k, e_l, n_s=linger_result.params.n_s
    )
    return np.asarray(l_values, dtype=int), cl
