#!/usr/bin/env python
"""Quickstart: evolve a handful of modes and print low-l band powers.

Runs the serial LINGER pipeline end to end for the paper's standard-CDM
model on a deliberately small k-grid: background -> recombination ->
per-mode Einstein-Boltzmann integration -> C_l -> COBE normalization.
Finishes in well under a minute.

Usage:  python examples/quickstart.py
"""

import numpy as np

from repro import KGrid, LingerConfig, standard_cdm, run_linger
from repro.spectra import band_power_uk, cl_from_hierarchy, cobe_normalization
from repro.util import format_table


def main() -> None:
    params = standard_cdm()
    print("Model: standard CDM "
          f"(h={params.h}, Omega_b={params.omega_b}, n_s={params.n_s})")

    # A coarse grid covering COBE scales; it must reach k tau0 < 2 so
    # the quadrupole (the COBE normalization point) is captured.  (The
    # full Fig. 2 run uses a much denser grid; see
    # examples/cmb_power_spectrum.py.)
    kgrid = KGrid.from_k(np.linspace(3e-5, 3e-3, 28))
    config = LingerConfig(lmax_photon=24, lmax_nu=12, rtol=1e-4)

    print(f"Integrating {kgrid.nk} wavenumbers "
          f"(largest first, exactly as PLINGER dispatches them)...")
    result = run_linger(params, kgrid, config)
    print(f"done in {result.wall_seconds:.1f} s wallclock; "
          f"total CPU {result.cpu_seconds.sum():.1f} s\n")

    l, cl = cl_from_hierarchy(result, l_values=np.arange(2, 16))
    cl = cl * cobe_normalization(l, cl, params.q_rms_ps_uk, params.t_cmb)
    bp = band_power_uk(l, cl, params.t_cmb)

    rows = [[int(li), float(ci), float(bi)] for li, ci, bi in zip(l, cl, bp)]
    print(format_table(
        ["l", "C_l (dimensionless)", "delta-T_l [uK]"],
        rows,
        title="COBE-normalized low-l spectrum (Sachs-Wolfe plateau)",
        float_fmt="{:.4g}",
    ))
    print("The plateau sits near ~28 uK: compare the two leftmost "
          "(COBE) points of the paper's Fig. 2.")


if __name__ == "__main__":
    main()
