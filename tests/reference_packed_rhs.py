"""Plain-python evaluation of the packed operator ABI (frozen reference).

:func:`kernel_rhs_full` and :func:`kernel_rhs_tca` are the scalar-loop
evaluation of the flat arrays ``PerturbationSystem.pack`` builds (that
docstring is the ABI contract), in the evaluation order the C kernels
in ``repro._cext`` transcribe — one body for both phases, as there, which
differs only in the photon-baryon sector.  The full-hierarchy half is
the source of the retired numba backend: run as ordinary python it is
how ``tests/test_rhs_operator.py`` pins the packed evaluation order
against the NumPy kernels, on machines with or without a C compiler.

Synchronous gauge only: the conformal-Newtonian twin is not packed.
"""

from __future__ import annotations

import math

__all__ = ["kernel_rhs_full", "kernel_rhs_tca"]


def kernel_rhs_full(*args):
    _kernel_rhs(*args, tight=False)


def kernel_rhs_tca(*args):
    _kernel_rhs(*args, tight=True)


def _kernel_rhs(ints, flts, th_c, adv_lo, adv_hi,
                nu_pack, mnu_pack, rf_c, t, Y, dY, tight):
    lg = ints[1]
    ln = ints[2]
    nq = ints[3]
    lm = ints[4]
    i_fg = ints[5]
    i_gg = ints[6]
    i_nl = ints[7]
    i_psi = ints[8]
    adv0 = ints[9]
    adv1 = ints[10]
    damp0 = ints[11]
    damp1 = ints[12]
    th_n = ints[13]
    rf_n = ints[14]
    gr_m = flts[0]
    gr_gnl = flts[1]
    gr_lam = flts[2]
    gr_k = flts[3]
    gr_c = flts[4]
    gr_b = flts[5]
    gr_g = flts[6]
    gr_nl = flts[7]
    gr_nu_rel = flts[8]
    r_coef = flts[9]
    x0 = flts[10]
    irho = flts[11]
    th_x0 = flts[12]
    th_dx = flts[13]
    rf_x0 = flts[14]
    rf_dx = flts[15]
    k = flts[16]
    k2 = flts[17]
    k075 = flts[18]
    k43i = flts[19]

    # -- background factors -------------------------------------------
    a = Y[0]
    a2 = a * a
    grho = gr_m / a + gr_gnl / a2 + gr_lam * a * a
    ax = a * x0
    if nq > 0:
        lx = math.log(ax)
        i = int((lx - rf_x0) / rf_dx)
        if i < 0:
            i = 0
        if i > rf_n - 1:
            i = rf_n - 1
        u_nu = lx - (rf_x0 + i * rf_dx)
        p = (
            (rf_c[0, i] * u_nu + rf_c[1, i]) * u_nu + rf_c[2, i]
        ) * u_nu + rf_c[3, i]
        grho += gr_nu_rel / a2 * (math.exp(p) / irho)
    hc = math.sqrt(grho + gr_k)

    # -- fused thermo lookup ------------------------------------------
    lna = math.log(a)
    ti = int((lna - th_x0) / th_dx)
    if ti < 0:
        ti = 0
    if ti > th_n - 1:
        ti = th_n - 1
    u = lna - (th_x0 + ti * th_dx)
    kap = math.exp(
        ((th_c[0, ti] * u + th_c[1, ti]) * u + th_c[2, ti]) * u + th_c[3, ti]
    )
    cs2 = math.exp(
        ((th_c[4, ti] * u + th_c[5, ti]) * u + th_c[6, ti]) * u + th_c[7, ti]
    )

    # -- metric sources (Einstein constraints) ------------------------
    inv_a = 1.0 / a
    inv_a2 = inv_a * inv_a
    gdrho = 1.5 * (
        (gr_c * Y[3] + gr_b * Y[4]) * inv_a
        + (gr_g * Y[i_fg] + gr_nl * Y[i_nl]) * inv_a2
    )
    theta_g = k075 * Y[i_fg + 1]
    theta_n = k075 * Y[i_nl + 1]
    gdq = 1.5 * (
        gr_b * Y[5] * inv_a
        + (4.0 / 3.0) * (gr_g * theta_g + gr_nl * theta_n) * inv_a2
    )
    if nq > 0:
        s_rho = 0.0
        s_q = 0.0
        for j in range(nq):
            epsj = math.sqrt(nu_pack[0, j] * nu_pack[0, j] + ax * ax)
            base = i_psi + j * (lm + 1)
            s_rho += (nu_pack[2, j] * epsj) * Y[base]
            s_q += nu_pack[3, j] * Y[base + 1]
        gdrho += 1.5 * gr_nu_rel * inv_a2 * s_rho
        gdq += 1.5 * gr_nu_rel * inv_a2 * k * s_q
    hdot = 2.0 * (k2 * Y[2] + gdrho) / hc
    etadot = gdq / k2

    dY[0] = a * hc
    dY[1] = hdot
    dY[2] = etadot
    hdot23 = (2.0 / 3.0) * hdot
    src2 = (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot
    theta_b = Y[5]
    r = r_coef / a

    if tight:
        # -- photon-baryon fluid to first order in 1/kappa' -----------
        delta_g = Y[i_fg]
        delta_b = Y[4]
        sigma_g = (2.0 / (3.0 * kap)) * (
            (8.0 / 15.0) * theta_g + (4.0 / 15.0) * hdot
            + (8.0 / 5.0) * etadot
        )
        ddelta_b = -theta_b - 0.5 * hdot
        ddelta_g = -(4.0 / 3.0) * theta_g - hdot23
        gpres = gr_gnl / (3.0 * a * a) - gr_lam * a * a
        if nq > 0:
            # the pressure-integral spline: rows 4..7 of rf_c, on
            # the piece (i, u_nu) the rho-integral lookup found
            p = (
                (rf_c[4, i] * u_nu + rf_c[5, i]) * u_nu + rf_c[6, i]
            ) * u_nu + rf_c[7, i]
            gpres += gr_nu_rel / a2 * (3.0 * math.exp(p) / irho) / 3.0
        addot_a = -0.5 * (grho + 3.0 * gpres) + hc * hc
        slip = (2.0 * r / (1.0 + r)) * hc * (theta_b - theta_g) + (
            1.0 / (kap * (1.0 + r))
        ) * (
            -addot_a * theta_b
            - hc * k2 * 0.5 * delta_g
            + k2 * (cs2 * ddelta_b - 0.25 * ddelta_g)
        )
        dtheta_b = (
            -hc * theta_b
            + cs2 * k2 * delta_b
            + r * (k2 * (0.25 * delta_g - sigma_g))
            + r * slip
        ) / (1.0 + r)
        dY[3] = -0.5 * hdot
        dY[4] = ddelta_b
        dY[5] = dtheta_b
        dY[i_fg] = ddelta_g
        dY[i_fg + 1] = k43i * (dtheta_b - slip)
        for c in range(i_fg + 2, i_nl):
            dY[c] = 0.0
        # massless-neutrino interior advection
        for c in range(i_nl + 1, adv1):
            dY[c] = (
                adv_lo[c - adv0] * Y[c - 1]
                - adv_hi[c - adv0] * Y[c + 1]
            )
    else:
        # -- CDM and baryons ------------------------------------------
        dY[3] = -0.5 * hdot
        dY[4] = -theta_b - 0.5 * hdot
        dY[5] = (
            -hc * theta_b + cs2 * k2 * Y[4]
            + r * kap * (theta_g - theta_b)
        )

        # -- fused hierarchy advection --------------------------------
        for c in range(adv0, adv1):
            dY[c] = (
                adv_lo[c - adv0] * Y[c - 1]
                - adv_hi[c - adv0] * Y[c + 1]
            )

        # -- photon boundary rows, damping, Thomson sources -----------
        lg1_tau = (lg + 1.0) / t
        dY[i_fg] = (-k) * Y[i_fg + 1] - hdot23
        dY[i_fg + lg] = (
            k * Y[i_fg + lg - 1] - lg1_tau * Y[i_fg + lg]
        )
        dY[i_gg] = (-k) * Y[i_gg + 1]
        dY[i_gg + lg] = (
            k * Y[i_gg + lg - 1] - lg1_tau * Y[i_gg + lg]
        )
        for c in range(damp0, damp1):
            dY[c] -= kap * Y[c]
        pi_pol = Y[i_fg + 2] + Y[i_gg] + Y[i_gg + 2]
        dY[i_fg + 1] += kap * (k43i * theta_b - Y[i_fg + 1])
        dY[i_fg + 2] += src2 + kap * (0.1 * pi_pol - Y[i_fg + 2])
        dY[i_gg] += 0.5 * kap * pi_pol
        dY[i_gg + 2] += 0.1 * kap * pi_pol

    # -- massless neutrinos -------------------------------------------
    dY[i_nl] = (-k) * Y[i_nl + 1] - hdot23
    dY[i_nl + 2] += src2
    dY[i_nl + ln] = (
        k * Y[i_nl + ln - 1] - ((ln + 1.0) / t) * Y[i_nl + ln]
    )

    # -- massive neutrinos --------------------------------------------
    for j in range(nq):
        epsj = math.sqrt(nu_pack[0, j] * nu_pack[0, j] + ax * ax)
        qk = k * nu_pack[0, j] / epsj
        base = i_psi + j * (lm + 1)
        for l in range(1, lm):
            dY[base + l] = qk * (
                mnu_pack[0, l] * Y[base + l - 1]
                - mnu_pack[1, l] * Y[base + l + 1]
            )
        dY[base + lm] = (
            qk * Y[base + lm - 1] - ((lm + 1.0) / t) * Y[base + lm]
        )
        dY[base] = (-qk) * Y[base + 1] + (hdot / 6.0) * nu_pack[1, j]
        dY[base + 2] += (
            -((1.0 / 15.0) * hdot + (2.0 / 5.0) * etadot) * nu_pack[1, j]
        )
