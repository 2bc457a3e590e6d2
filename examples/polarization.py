#!/usr/bin/env python
"""Beyond temperature: the E-mode polarization spectrum.

The paper's physics includes the full polarized Thomson scattering;
this example computes the scalar E-mode spectrum C_l^EE from the
recorded polarization source Pi = F2 + G0 + G2 and prints it against
the scalar temperature spectrum from the same run.

Usage: python examples/polarization.py [--lmax N]
"""

import argparse
import sys

import numpy as np

from repro import Background, KGrid, LingerConfig, ThermalHistory, run_linger, standard_cdm
from repro.spectra import (
    band_power_uk,
    cl_ee_from_los,
    cl_from_los,
    cobe_normalization,
)
from repro.util import ascii_plot, format_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=250)
    ap.add_argument("--nk", type=int, default=60)
    args = ap.parse_args(argv)

    params = standard_cdm()
    bg = Background(params)
    thermo = ThermalHistory(bg)

    k_max = 1.4 * args.lmax / bg.tau0
    kgrid = KGrid.from_k(np.linspace(0.3 / bg.tau0, k_max, args.nk))
    config = LingerConfig(lmax_photon=10, lmax_nu=10, rtol=3e-4)
    print(f"integrating {kgrid.nk} scalar modes ...")
    run = run_linger(params, kgrid, config, background=bg, thermo=thermo)

    l = np.unique(np.geomspace(2, args.lmax, 24).astype(int))
    _, cl_tt = cl_from_los(run, l)
    _, cl_ee = cl_ee_from_los(run, l)
    norm = cobe_normalization(l, cl_tt, params.q_rms_ps_uk, params.t_cmb)
    cl_tt = cl_tt * norm
    cl_ee = cl_ee * norm

    bp_tt = band_power_uk(l, cl_tt, params.t_cmb)
    bp_ee = band_power_uk(l, cl_ee, params.t_cmb)

    print()
    print(ascii_plot(
        l, bp_tt, overlay=(l, np.maximum(bp_ee * 10, 1e-3)),
        logx=True, logy=True, width=72, height=18,
        title="temperature (*) vs 10x E-mode (o) band powers [uK]",
        xlabel="l (log)", ylabel="uK (log)",
    ))
    rows = [[int(li), float(t), float(e)]
            for li, t, e in zip(l, bp_tt, bp_ee)]
    print(format_table(
        ["l", "dT (temperature) [uK]", "dT (E-mode) [uK]"],
        rows,
        title="spectra from one LINGER run",
    ))
    print("E-modes are ~1-2 orders below temperature (no reionization).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
