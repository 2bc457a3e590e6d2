"""CMB and matter power spectra from LINGER output.

Two independent routes to the CMB anisotropy spectrum C_l:

* :mod:`cl` — the paper's method: read Theta_l = F_l/4 directly off the
  evolved hierarchy at tau_0 and integrate over k (requires lmax >= l).
* :mod:`los` — the line-of-sight projection of the recorded source
  function against spherical Bessel functions, which reaches high l
  from a low-lmax integration.  The two must agree at low l; the test
  suite enforces this.

Plus COBE Q_rms-PS normalization (:mod:`normalize`) and the linear
matter power spectrum (:mod:`matterpower`).
"""

from .cl import cl_from_hierarchy, cl_integrate_over_k, los_l_grid
from .los import (
    SourceTable,
    cl_from_los,
    BesselCache,
    interpolate_sources_k,
    sources_from_result,
)
from .sparse import SparseClResult, coarse_subset, run_sparse_cl, sparse_cl
from .matterpower import matter_power, sigma_r, transfer_function
from .normalize import band_power_uk, cobe_normalization, qrms_ps_from_cl
from .polarization import cl_ee_from_los, e_l_los, polarization_source

__all__ = [
    "cl_from_hierarchy",
    "cl_integrate_over_k",
    "los_l_grid",
    "SourceTable",
    "cl_from_los",
    "BesselCache",
    "interpolate_sources_k",
    "sources_from_result",
    "SparseClResult",
    "coarse_subset",
    "run_sparse_cl",
    "sparse_cl",
    "matter_power",
    "sigma_r",
    "transfer_function",
    "band_power_uk",
    "cobe_normalization",
    "qrms_ps_from_cl",
    "cl_ee_from_los",
    "e_l_los",
    "polarization_source",
]
