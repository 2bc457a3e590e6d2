"""The compiled solver: the packed RHS kernels, the DVERK step loop, the
thermal history's ODE solve and the spline fit's tridiagonal solve.

One shared object — one build, one cache directory, resolved once per
process by whichever layer asks first (a ``Background``'s first spline
fit, usually) — carries three entry points over one packed ABI, the
assembled structure of one wavenumber (see ``PerturbationSystem.pack``
for the layout contract):

* ``rhs_full`` and ``rhs_tca`` — the synchronous-gauge right-hand side
  of the full-hierarchy phase and of the tight-coupling phase, in the
  evaluation order ``tests/reference_packed_rhs.py`` pins; one body,
  which differs between the two only in the photon-baryon sector;
* ``integrate_phase`` — one wavenumber's whole phase (either one): the
  Verner stages calling that phase's RHS in-process, error norm, step
  controller, stop points, accept/reject.  A transcription of
  ``RKDriver.integrate`` under the arithmetic contract of
  :mod:`repro.integrators.contract`, bitwise equal to it.

and, each over arguments of its own,

* ``thermo_rhs`` — the thermal history's ODE right-hand side, massive
  neutrinos or not (one state at a time on libm);
* ``thermo_ode`` — a three-stage Radau IIA stepper calling
  ``thermo_rhs`` about five thousand times per ``ThermalHistory`` build
  without leaving C;
* ``tridiag_solve`` — reference LAPACK's ``DGTSV`` for
  :func:`repro.util.fastspline.fit_cubic`.

Each of the last three is pinned bitwise to a python transcription in
``tests/`` (``reference_thermo.py``, ``reference_tridiag.py``).

The source is compiled once with the system C compiler into a
content-addressed shared object under :func:`cache_dir`, then loaded
through ctypes.  It is the one engine: a process that cannot build it
(no compiler, unwritable cache, broken toolchain) gets a
:class:`~repro.errors.CompilerError` naming ``CC`` at the first call
that needs it.

Compiled ``-O3 -ffp-contract=off`` and **never** ``-ffast-math``: ISO C
forbids reassociating floating-point expressions and contraction is
switched off, so the C code reproduces the written evaluation order
exactly, and it shares libm's exp/log/pow with python's ``math``.  The
massive-neutrino block of either RHS lands within a few ulps of the
python reference (``tests/reference_rhs.py``, budgeted by
``oracle.rhs_kernel`` at rtol 1e-10); without massive neutrinos both
are bitwise.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

from .errors import CompilerError

__all__ = ["get_cext", "reset_cext", "cache_dir", "private_cache",
           "CextKernel", "BUILD_EVENTS", "C_SOURCE", "CFLAGS"]

C_SOURCE = r"""
#include <math.h>

/* The fused thermo lookup: exp of the cubic whose coefficients c3..c0 are
 * rows [row, row + 4) of th_c — 0: ln kappa', 4: ln cs2 — at ln a on the
 * uniform grid, UniformGridCubic.__call__'s index arithmetic and Horner
 * grouping. */
static inline double thermo_exp(const long long *ints, const double *flts,
                                const double *th_c, long long row,
                                double lna)
{
    const long long th_n = ints[13];
    const double th_x0 = flts[12], th_dx = flts[13];
    const double *c = th_c + row * th_n;
    long long ti = (long long)((lna - th_x0) / th_dx);
    double u;
    if (ti < 0) ti = 0;
    if (ti > th_n - 1) ti = th_n - 1;
    u = lna - (th_x0 + ti * th_dx);
    return exp(((c[ti] * u + c[th_n + ti]) * u + c[2 * th_n + ti]) * u
               + c[3 * th_n + ti]);
}

/* The packed-ABI synchronous-gauge right-hand side of either phase at
 * (t, Y), into dY; see PerturbationSystem.pack for the layout contract.
 * ``tight`` selects the photon-baryon sector: the full hierarchies with
 * Thomson scattering, or the first-order tight-coupling approximation
 * (MB95 eqs. 74-75) with F_(l>=2) and the polarization slaved (their
 * derivatives are zero).  Background, thermo lookup, metric sources and
 * both neutrino sectors are the same code in both. */
static inline void rhs_eval(const long long *ints, const double *flts,
                            const double *th_c, const double *alo,
                            const double *ahi, const double *nu_pack,
                            const double *mnu_pack, const double *rf_c,
                            const double t, const double *Y, double *dY,
                            const int tight)
{
    const long long lg = ints[1], ln = ints[2];
    const long long nq = ints[3], lm = ints[4];
    const long long i_fg = ints[5], i_gg = ints[6], i_nl = ints[7];
    const long long i_psi = ints[8];
    const long long adv0 = ints[9], adv1 = ints[10];
    const long long damp0 = ints[11], damp1 = ints[12];
    const long long rf_n = ints[14];
    const double gr_m = flts[0], gr_gnl = flts[1], gr_lam = flts[2];
    const double gr_k = flts[3], gr_c = flts[4], gr_b = flts[5];
    const double gr_g = flts[6], gr_nl = flts[7], gr_nu_rel = flts[8];
    const double r_coef = flts[9], x0 = flts[10], irho = flts[11];
    const double rf_x0 = flts[14], rf_dx = flts[15];
    const double k = flts[16], k2 = flts[17];
    const double k075 = flts[18], k43i = flts[19];
    const double *q = nu_pack, *dlnf = nu_pack + nq;
    const double *w_rho = nu_pack + 2 * nq, *w_q3 = nu_pack + 3 * nq;
    const double *mnu_lo = mnu_pack, *mnu_hi = mnu_pack + (lm + 1);
    long long c, j, l;

    /* background factors */
    const double a = Y[0];
    const double a2 = a * a;
    double grho = gr_m / a + gr_gnl / a2 + gr_lam * a * a;
    const double ax = a * x0;
    long long ri = 0;   /* massive-nu spline piece and offset in it */
    double ru = 0.0;
    if (nq > 0) {
        double lx = log(ax);
        double p;
        ri = (long long)((lx - rf_x0) / rf_dx);
        if (ri < 0) ri = 0;
        if (ri > rf_n - 1) ri = rf_n - 1;
        ru = lx - (rf_x0 + ri * rf_dx);
        p = ((rf_c[ri] * ru + rf_c[rf_n + ri]) * ru
             + rf_c[2 * rf_n + ri]) * ru + rf_c[3 * rf_n + ri];
        grho += gr_nu_rel / a2 * (exp(p) / irho);
    }
    const double hc = sqrt(grho + gr_k);

    const double lna = log(a);
    const double kap = thermo_exp(ints, flts, th_c, 0, lna);
    const double cs2 = thermo_exp(ints, flts, th_c, 4, lna);

    /* metric sources (Einstein constraints) */
    const double inv_a = 1.0 / a;
    const double inv_a2 = inv_a * inv_a;
    double gdrho = 1.5 * ((gr_c * Y[3] + gr_b * Y[4]) * inv_a
                          + (gr_g * Y[i_fg] + gr_nl * Y[i_nl]) * inv_a2);
    const double theta_g = k075 * Y[i_fg + 1];
    const double theta_n = k075 * Y[i_nl + 1];
    double gdq = 1.5 * (gr_b * Y[5] * inv_a
                        + (4.0 / 3.0) * (gr_g * theta_g + gr_nl * theta_n)
                          * inv_a2);
    if (nq > 0) {
        double s_rho = 0.0, s_q = 0.0;
        for (j = 0; j < nq; j++) {
            const double epsj = sqrt(q[j] * q[j] + ax * ax);
            const long long base = i_psi + j * (lm + 1);
            s_rho += (w_rho[j] * epsj) * Y[base];
            s_q += w_q3[j] * Y[base + 1];
        }
        gdrho += 1.5 * gr_nu_rel * inv_a2 * s_rho;
        gdq += 1.5 * gr_nu_rel * inv_a2 * k * s_q;
    }
    const double hdot = 2.0 * (k2 * Y[2] + gdrho) / hc;
    const double etadot = gdq / k2;

    dY[0] = a * hc;
    dY[1] = hdot;
    dY[2] = etadot;
    const double hdot23 = (2.0 / 3.0) * hdot;
    const double src2 = (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot;
    const double theta_b = Y[5];
    const double r = r_coef / a;

    if (tight) {
        /* photon-baryon fluid to first order in 1/kappa' */
        const double delta_g = Y[i_fg], delta_b = Y[4];
        const double sigma_g = (2.0 / (3.0 * kap))
            * ((8.0 / 15.0) * theta_g + (4.0 / 15.0) * hdot
               + (8.0 / 5.0) * etadot);
        const double ddelta_b = -theta_b - 0.5 * hdot;
        const double ddelta_g = -(4.0 / 3.0) * theta_g - hdot23;
        double gpres = gr_gnl / (3.0 * a * a) - gr_lam * a * a;
        if (nq > 0) {
            const double *pf_c = rf_c + 4 * rf_n;
            const double p = ((pf_c[ri] * ru + pf_c[rf_n + ri]) * ru
                              + pf_c[2 * rf_n + ri]) * ru
                             + pf_c[3 * rf_n + ri];
            gpres += gr_nu_rel / a2 * (3.0 * exp(p) / irho) / 3.0;
        }
        /* MB95 eq. (75): first-order slip theta_b' - theta_g' */
        const double addot_a = -0.5 * (grho + 3.0 * gpres) + hc * hc;
        const double slip =
            (2.0 * r / (1.0 + r)) * hc * (theta_b - theta_g)
            + (1.0 / (kap * (1.0 + r)))
              * (-addot_a * theta_b - hc * k2 * 0.5 * delta_g
                 + k2 * (cs2 * ddelta_b - 0.25 * ddelta_g));
        /* MB95 eq. (74): combined momentum equation + slip */
        const double dtheta_b =
            (-hc * theta_b + cs2 * k2 * delta_b
             + r * (k2 * (0.25 * delta_g - sigma_g)) + r * slip)
            / (1.0 + r);
        dY[3] = -0.5 * hdot;
        dY[4] = ddelta_b;
        dY[5] = dtheta_b;
        dY[i_fg] = ddelta_g;
        dY[i_fg + 1] = k43i * (dtheta_b - slip);
        for (c = i_fg + 2; c < i_nl; c++)
            dY[c] = 0.0;
        /* massless-neutrino interior advection */
        for (c = i_nl + 1; c < adv1; c++)
            dY[c] = alo[c - adv0] * Y[c - 1] - ahi[c - adv0] * Y[c + 1];
    } else {
        /* CDM and baryons */
        dY[3] = -0.5 * hdot;
        dY[4] = -theta_b - 0.5 * hdot;
        dY[5] = -hc * theta_b + cs2 * k2 * Y[4]
                + r * kap * (theta_g - theta_b);

        /* fused hierarchy advection */
        for (c = adv0; c < adv1; c++)
            dY[c] = alo[c - adv0] * Y[c - 1] - ahi[c - adv0] * Y[c + 1];

        /* photon boundary rows, damping, Thomson sources */
        const double lg1_tau = (lg + 1.0) / t;
        dY[i_fg] = (-k) * Y[i_fg + 1] - hdot23;
        dY[i_fg + lg] = k * Y[i_fg + lg - 1] - lg1_tau * Y[i_fg + lg];
        dY[i_gg] = (-k) * Y[i_gg + 1];
        dY[i_gg + lg] = k * Y[i_gg + lg - 1] - lg1_tau * Y[i_gg + lg];
        for (c = damp0; c < damp1; c++)
            dY[c] -= kap * Y[c];
        const double pi_pol = Y[i_fg + 2] + Y[i_gg] + Y[i_gg + 2];
        dY[i_fg + 1] += kap * (k43i * theta_b - Y[i_fg + 1]);
        dY[i_fg + 2] += src2 + kap * (0.1 * pi_pol - Y[i_fg + 2]);
        dY[i_gg] += 0.5 * kap * pi_pol;
        dY[i_gg + 2] += 0.1 * kap * pi_pol;
    }

    /* massless neutrinos */
    dY[i_nl] = (-k) * Y[i_nl + 1] - hdot23;
    dY[i_nl + 2] += src2;
    dY[i_nl + ln] = k * Y[i_nl + ln - 1]
                    - ((ln + 1.0) / t) * Y[i_nl + ln];

    /* massive neutrinos */
    for (j = 0; j < nq; j++) {
        const double epsj = sqrt(q[j] * q[j] + ax * ax);
        const double qk = k * q[j] / epsj;
        const long long base = i_psi + j * (lm + 1);
        for (l = 1; l < lm; l++)
            dY[base + l] = qk * (mnu_lo[l] * Y[base + l - 1]
                                 - mnu_hi[l] * Y[base + l + 1]);
        dY[base + lm] = qk * Y[base + lm - 1]
                        - ((lm + 1.0) / t) * Y[base + lm];
        dY[base] = (-qk) * Y[base + 1] + (hdot / 6.0) * dlnf[j];
        dY[base + 2] += -((1.0 / 15.0) * hdot + (2.0 / 5.0) * etadot)
                        * dlnf[j];
    }
}

#define RHS_ARGS const long long *ints, const double *flts, \
    const double *th_c, const double *adv_lo, const double *adv_hi, \
    const double *nu_pack, const double *mnu_pack, const double *rf_c, \
    double t, const double *Y, double *dY
#define RHS_PASS ints, flts, th_c, adv_lo, adv_hi, nu_pack, mnu_pack, \
    rf_c, t, Y, dY

void rhs_full(RHS_ARGS) { rhs_eval(RHS_PASS, 0); }
void rhs_tca(RHS_ARGS) { rhs_eval(RHS_PASS, 1); }

/* numpy's pairwise summation (DOUBLE_pairwise_sum, unit stride),
 * transcribed: np.add.reduce of a contiguous double vector. */
double pairwise_sum(const double *a, long long n)
{
    long long i;
    if (n < 8) {
        double res = -0.0;  /* numpy's start: a sum of -0 stays -0 */
        for (i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7], res;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i + 0]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    {
        long long n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* acc[c] = sum_j w[j] * K[j][c] over the non-zero weights, left to right
 * in j, a row of K at a time: every component sees the rounded multiplies
 * and adds of the arithmetic contract's rule 1 in its order, over
 * contiguous c, which is what lets the compiler vectorise them (the same
 * elementwise IEEE operations at any width). */
static inline void row_sum(const double *restrict w, long long s,
                           const double *restrict K, long long n,
                           double *restrict acc)
{
    long long j, c, first = 1;
    for (j = 0; j < s; j++) {
        const double wj = w[j];
        const double *restrict Kj = K + j * n;
        if (wj == 0.0) continue;
        if (first)
            for (c = 0; c < n; c++) acc[c] = wj * Kj[c];
        else
            for (c = 0; c < n; c++) acc[c] += wj * Kj[c];
        first = 0;
    }
}

/* StepController.factor */
static inline double step_factor(double err_norm, const double *ctl)
{
    const double order = ctl[7], safety = ctl[8];
    const double min_factor = ctl[9], max_factor = ctl[10];
    double fac;
    if (err_norm == 0.0) return max_factor;
    fac = safety * pow(err_norm, -(1.0 / order));
    if (fac < min_factor) fac = min_factor;
    if (fac > max_factor) fac = max_factor;
    return fac;
}

/* integrate_phase alone is built twice, for AVX2 and for the baseline,
 * and glibc's loader picks by cpuid: its loops are elementwise IEEE
 * multiplies and adds, the same at any width, and contraction stays off,
 * so no clone can move a bit. */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__GLIBC__)
#define PHASE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define PHASE_CLONES
#endif

/* One phase: RKDriver.integrate transcribed under the
 * arithmetic contract (repro/integrators/contract.py), its stages calling
 * rhs_tca (``tight``) or rhs_full in-process.
 *
 *   tab   s*s stage matrix, then b_high, error weights, c (s each)
 *   ctl   t0, t1, rtol, atol, max_step, min_step, first_step (NaN:
 *         choose), order_low + 1, safety, min_factor, max_factor,
 *         STABILITY_FRACTION * real_stability (NaN: no bound; else every
 *         attempt keeps h * kappa'(1 + r) at or under it, the driver's
 *         stiff_rate = PerturbationSystem.thomson_rate, formed here from
 *         y[0] by the RHS's own thermo lookup); on return ctl[0] holds
 *         the time reached and ctl[6] the step size last set, which the
 *         caller's failure message names
 *   stops ascending stop points in (t0, t1], the last one equal to t1
 *   y     in: state at t0; out: state at t1
 *   rows  out: the state at every stop point, (n_stops, n)
 *   work  (s + 5) * n doubles, zeroed by the caller; nothing is static
 *   out   accepted steps, rejected steps, RHS evaluations, rows written,
 *         attempts whose step the stability bound set
 *
 * Returns 0, or the python driver's failure: 1 max_steps reached,
 * 2 step underflow before a step, 3 step underflow after a rejection. */
PHASE_CLONES
long long integrate_phase(const long long *ints, const double *flts,
                          const double *th_c, const double *adv_lo,
                          const double *adv_hi, const double *nu_pack,
                          const double *mnu_pack, const double *rf_c,
                          long long tight,
                          const double *tab, long long s,
                          double *ctl, const double *stops,
                          long long max_steps, double *y, double *rows,
                          double *work, long long *out)
{
    void (*const rhs)(RHS_ARGS) = tight ? rhs_tca : rhs_full;
    const long long n = ints[0];
    const double t0 = ctl[0], t1 = ctl[1], rtol = ctl[2], atol = ctl[3];
    const double max_step = ctl[4], min_step = ctl[5], first_step = ctl[6];
    const double stable_z = ctl[11], r_coef = flts[9];
    const double *b_high = tab + s * s, *e_w = b_high + s, *cs = e_w + s;
    double *K = work, *yi = K + s * n, *ya = yi + n, *yb = ya + n;
    double *sq = yb + n, *acc = sq + n, *ycur = ya, *ynew = yb, *swap;
    long long n_steps = 0, n_rejected = 0, n_rhs = 0, istop = 0, n_bound = 0;
    long long status = 0, i, c, finite;
    double t = t0, next_stop = stops[0], h, err_norm, ts;
    double h_stable = INFINITY;

#define RHS(tt, yy, dd) rhs(ints, flts, th_c, adv_lo, adv_hi, nu_pack, \
                            mnu_pack, rf_c, (tt), (yy), (dd))

    for (c = 0; c < n; c++) ycur[c] = y[c];

    /* f0 and the initial step */
    RHS(t, ycur, K);
    n_rhs = 1;
    if (first_step == first_step) {
        h = fabs(t1 - t0) < first_step ? fabs(t1 - t0) : first_step;
    } else {
        double d0, d1;
        for (c = 0; c < n; c++) {
            const double r = ycur[c] / (fabs(atol) + rtol * fabs(ycur[c]));
            sq[c] = r * r;
        }
        d0 = sqrt(pairwise_sum(sq, n) / n);
        for (c = 0; c < n; c++) {
            const double r = K[c] / (fabs(atol) + rtol * fabs(ycur[c]));
            sq[c] = r * r;
        }
        d1 = sqrt(pairwise_sum(sq, n) / n);
        h = (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1 : 1e-6 * (t1 - t0);
        if (0.1 * (t1 - t0) < h) h = 0.1 * (t1 - t0);
        if (max_step < h) h = max_step;
    }

    while (t < t1) {
        if (n_steps >= max_steps) { status = 1; break; }
        if (max_step < h) h = max_step;
        if (stable_z == stable_z) {
            /* PerturbationSystem.thomson_rate: kappa' (1 + r) */
            const double a = ycur[0];
            const double lam = thermo_exp(ints, flts, th_c, 0, log(a))
                               * (1.0 + r_coef / a);
            h_stable = lam > 0.0 ? stable_z / lam : INFINITY;
            if (h_stable < h) h = h_stable;
        }
        if (next_stop - t < h) h = next_stop - t;
        if (h == h_stable) n_bound++;
        if (h <= 0.0 || t + h == t) { status = 2; break; }

        /* one trial step */
        RHS(t, ycur, K);
        for (i = 1; i < s; i++) {
            row_sum(tab + i * s, s, K, n, acc);
            for (c = 0; c < n; c++) yi[c] = ycur[c] + h * acc[c];
            ts = t + cs[i] * h;
            RHS(ts, yi, K + i * n);
        }
        n_rhs += s;
        row_sum(b_high, s, K, n, acc);
        finite = 1;
        for (c = 0; c < n; c++) {
            ynew[c] = ycur[c] + h * acc[c];
            if (!isfinite(ynew[c])) finite = 0;
        }
        if (finite) {
            row_sum(e_w, s, K, n, acc);
            for (c = 0; c < n; c++) {
                const double err = h * acc[c];
                const double ao = fabs(ycur[c]), an = fabs(ynew[c]);
                const double r = err / (atol + rtol * (ao >= an ? ao : an));
                sq[c] = r * r;
            }
            err_norm = sqrt(pairwise_sum(sq, n) / n);
        } else {
            err_norm = INFINITY;
        }

        if (err_norm <= 1.0) {
            double at;
            t += h;
            swap = ycur; ycur = ynew; ynew = swap;
            n_steps++;
            at = fabs(t) > 1.0 ? fabs(t) : 1.0;
            if (t >= next_stop - 1e-12 * at) {
                t = next_stop;
                for (c = 0; c < n; c++) rows[istop * n + c] = ycur[c];
                istop++;
                if (t < t1) next_stop = stops[istop];
            }
            h *= step_factor(err_norm, ctl);
        } else {
            double at, fac;
            n_rejected++;
            if (!isfinite(err_norm)) {
                h *= 0.1;
            } else {
                /* a rejected step at least halves (see RKDriver) */
                fac = step_factor(err_norm, ctl);
                h *= fac < 0.5 ? fac : 0.5;
            }
            at = fabs(t) > 1.0 ? fabs(t) : 1.0;
            if (h < min_step || h < 1e-14 * at) { status = 3; break; }
        }
    }
#undef RHS

    for (c = 0; c < n; c++) y[c] = ycur[c];
    ctl[0] = t; ctl[6] = h;
    out[0] = n_steps; out[1] = n_rejected; out[2] = n_rhs; out[3] = istop;
    out[4] = n_bound;
    return status;
}

/* python's two-argument max/min: the first unless the second is
 * strictly beyond it (so the first also when either is a NaN) */
static inline double py_max(double a, double b) { return b > a ? b : a; }
static inline double py_min(double a, double b) { return b < a ? b : a; }

/* recombination._saha_factor, given its thermal prefactor and chi/kT */
static inline double saha_factor(double prefac, double arg)
{
    return arg > 650.0 ? 0.0 : prefac * exp(-arg);
}

/* The thermal history's ODE right-hand side, d[x_H, T_b]/d ln a at
 * (ln a, x_H, T_b): Background.hubble of a float, saha_electron_fraction,
 * PeeblesRates.at, peebles_rhs and the Compton term, transcribed
 * grouping for grouping, libm wherever python calls math.* or **.
 * tests/reference_thermo.py composes them in python, the reference;
 * the two are pinned bitwise.
 *
 *   P        the parameter block, ThermalHistory._rhs_block's layout
 *   nu_pack  MassiveNuTables._rhs_pack (it starts with rows c3..c0 of
 *            ln I_rho), or NULL without a massive species
 *   out      d x_H/d ln a, d T_b/d ln a, then two slots that only ever
 *            grow: 1 once the Saha Newton iteration has hit its cap
 *            (python raises there), and the evaluations made so far;
 *            nothing is static */
void thermo_rhs(const double *P, const double *nu_pack, double lna,
                double x_h_in, double t_b_in, double *out)
{
    const double gr_c = P[0], gr_b = P[1], gr_g = P[2], gr_nl = P[3];
    const double gr_lam = P[4], gr_nu = P[5], gr_k = P[6];
    const double x0 = P[7], x_min = P[8], x_max = P[9];
    const double rf_x0 = P[10], rf_dx = P[11], irho = P[13];
    const long long rf_n = (long long)P[12];
    const double n_h0 = P[14], f_he = P[15], t_cmb = P[16];
    const double c_light = P[17], mpc_cm = P[18], k_b = P[19];
    const double m_e = P[20], two_pi_hbar2 = P[21];
    const double chi_h = P[22], chi_he1 = P[23], chi_he2 = P[24];
    const double sigma_t = P[25], a_rad = P[26], lam_2s = P[27];
    const double lya_cube = P[28], eight_pi_sq = P[29];
    const long long saha_cap = (long long)P[30];
    const double a = exp(lna), a2 = a * a;
    const double t_b = py_max(t_b_in, 1e-3);
    long long it;

    /* Background.hubble: the six grho terms added left to right */
    double gr_nu_a = 0.0 * a;
    if (nu_pack) {
        const double lx = log(py_min(py_max(a * x0, x_min), x_max));
        long long ri = (long long)((lx - rf_x0) / rf_dx);
        double ru;
        if (ri < 0) ri = 0;
        if (ri > rf_n - 1) ri = rf_n - 1;
        ru = lx - (rf_x0 + ri * rf_dx);
        gr_nu_a = gr_nu / a2
            * (exp(((nu_pack[ri] * ru + nu_pack[rf_n + ri]) * ru
                    + nu_pack[2 * rf_n + ri]) * ru + nu_pack[3 * rf_n + ri])
               / irho);
    }
    const double grho = gr_c / a + gr_b / a + gr_g / a2 + gr_nl / a2
                        + gr_lam * a2 + gr_nu_a;
    /* proper Hubble rate in s^-1 */
    const double h_s = sqrt(grho + gr_k) / a * c_light / mpc_cm;
    const double n_h = n_h0 / pow(a, 3.0);

    /* saha_electron_fraction: helium electrons at the current
     * temperature, by Newton's method inside a bracket */
    const double kt = k_b * t_b;
    /* (m_e k T / 2 pi hbar^2)^(3/2): python forms it once per Saha
     * factor and once more in PeeblesRates.at, from the same doubles */
    const double thermal = pow(m_e * kt / two_pi_hbar2, 1.5);
    const double s_h = saha_factor(thermal, chi_h / kt) / n_h;
    double x_he2 = 0.0, x_he3 = 0.0;
    if (s_h != 0.0) {
        const double s_he1 = 4.0 * saha_factor(thermal, chi_he1 / kt) / n_h;
        const double s_he2 = 1.0 * saha_factor(thermal, chi_he2 / kt) / n_h;
        double lo = 2.0 * s_h / (s_h + sqrt(s_h * s_h + 4.0 * s_h));
        double hi = 1.0 + 2.0 * f_he;
        double x_e = lo;
        for (it = 0; it < saha_cap; it++) {
            /* _saha_residual */
            const double h_den = x_e + s_h;
            const double x_h = s_h / h_den;
            const double q = s_he1 * (s_he2 / x_e);
            const double he_den = x_e + s_he1 + q;
            double g, dg, x_new;
            x_he2 = s_he1 / he_den;
            x_he3 = q / he_den;
            g = x_h + f_he * (x_he2 + 2.0 * x_he3) - x_e;
            dg = -x_h / h_den
                 - f_he * (x_he2 + x_he3 * (4.0 + s_he1 / x_e)) / he_den
                 - 1.0;
            if (g > 0.0) lo = x_e; else hi = x_e;
            x_new = x_e - g / dg;
            if (!(lo <= x_new && x_new <= hi)) x_new = sqrt(lo * hi);
            if (fabs(x_new - x_e) < 1e-14 * x_e) break;
            x_e = x_new;
        }
        if (it == saha_cap) out[2] = 1.0;
    }
    const double x_h = py_min(py_max(x_h_in, 0.0), 1.0);
    const double x_e = x_h + f_he * (x_he2 + 2.0 * x_he3);
    const double n_e = py_max(x_e, 1e-12) * n_h;

    /* PeeblesRates.at and peebles_rhs */
    const double eps = chi_h / kt;
    const double phi2 = py_max(0.448 * log(py_max(eps, 1.0 + 1e-12)), 0.0);
    const double alpha2 = 9.78e-14 * sqrt(eps) * phi2;
    const double beta = alpha2 * thermal * (eps < 650.0 ? exp(-eps) : 0.0);
    const double beta2 =
        alpha2 * thermal * (eps < 2600.0 ? exp(-eps / 4.0) : 0.0);
    const double n_1s = py_max((1.0 - x_h) * n_h, 1e-300);
    const double lam_alpha = h_s * lya_cube / (eight_pi_sq * n_1s);
    const double c_peebles = (lam_2s + lam_alpha)
                             / (lam_2s + lam_alpha + beta2);
    const double recomb = alpha2 * n_e * x_h;
    const double ionize = beta * (1.0 - x_h);
    const double dxh_dt = c_peebles * (ionize - recomb);

    /* baryon temperature: adiabatic cooling + Compton heating */
    const double t_g = t_cmb / a;
    const double compton_prefac = 8.0 * sigma_t * a_rad * pow(t_g, 4.0)
                                  / (3.0 * m_e * c_light);
    const double dtb_dt = -2.0 * h_s * t_b
        + compton_prefac * x_e / (1.0 + f_he + x_e) * (t_g - t_b);

    out[0] = dxh_dt / h_s;
    out[1] = dtb_dt / h_s;
    out[3] += 1.0;
}

#define NEWTON_MAXITER 6

/* The thermal history's ODE solve, (x_H, T_b) over ln a on the table's
 * own grid: three-stage Radau IIA, simplified Newton on the six stage
 * unknowns, RADAU5's error estimate, the collocation polynomial as dense
 * output (repro/thermo/radau.py explains the method) — calling
 * thermo_rhs without leaving C.  tests/reference_thermo.py holds its
 * python transcription, expression for expression; the two are pinned
 * bitwise.
 *
 *   P, nu_pack  thermo_rhs's
 *   tab         repro.thermo.radau.TABLE
 *   grid        n ascending ln a; the solve runs from the first to the last
 *   rows        (n, 2): row 0 in: the start; rows 1.. out: the state at
 *               every grid point
 *   out         thermo_rhs's four slots, then accepted and rejected steps;
 *               nothing is static
 *
 * Returns 0, or a failure: 1 a step that no longer advances ln a,
 * 2 max_attempts reached. */
long long thermo_ode(const double *P, const double *nu_pack,
                     const double *tab, const double *grid, long long n,
                     long long max_attempts, double *rows, double *out)
{
    const double nodes[3] = {tab[0], tab[1], 1.0};
    const double *ai = tab + 2, *p = tab + 15;
    const double e0 = tab[11], e1 = tab[12], e2 = tab[13], mu = tab[14];
    const double rtol = tab[24], atol0 = tab[25], atol1 = tab[26];
    const double newton_tol = tab[27];
    const double t_end = grid[n - 1];
    double t = grid[0], y0 = rows[0], y1 = rows[1], h = grid[1] - grid[0];
    double f0, f1, j00 = 0.0, j01 = 0.0, j10 = 0.0, j11 = 0.0;
    double q00 = 0.0, q01 = 0.0, q02 = 0.0, q10 = 0.0, q11 = 0.0, q12 = 0.0;
    double qy0 = 0.0, qy1 = 0.0, qt = 0.0, qh = 0.0;
    double m[6][6], z[6], f[6], b[6];
    long long piv[6], n_steps = 0, n_rejected = 0, irow = 1;
    long long i, j, k, c, r;
    int need_jac = 1, have_q = 0;

#define RHS(tt, a0, a1) thermo_rhs(P, nu_pack, (tt), (a0), (a1), out)

    RHS(t, y0, y1);
    f0 = out[0]; f1 = out[1];
    while (irow < n) {
        int last, singular = 0, converged = 0;
        long long n_iter = 0;
        double sc0, sc1, dz_old = 0.0, rate = 0.0;
        double a00, a11, det, r0, r1, err, fac, t_new;

        if (n_steps + n_rejected >= max_attempts) {
            out[4] = n_steps; out[5] = n_rejected;
            return 2;
        }
        if (need_jac) {
            /* forward differences of the same function, one column each */
            double d = 1.5e-8 * py_max(fabs(y0), 1e-3);
            RHS(t, y0 + d, y1);
            j00 = (out[0] - f0) / d;
            j10 = (out[1] - f1) / d;
            d = 1.5e-8 * py_max(fabs(y1), 1e-3);
            RHS(t, y0, y1 + d);
            j01 = (out[0] - f0) / d;
            j11 = (out[1] - f1) / d;
            need_jac = 0;
        }
        last = t + h >= t_end;
        if (last) h = t_end - t;
        if (t + h == t) {
            out[4] = n_steps; out[5] = n_rejected;
            return 1;
        }

        /* A^-1/h (x) I - I (x) J, then Gaussian elimination, row pivoting */
        for (i = 0; i < 3; i++) {
            double *ra = m[2 * i], *rb = m[2 * i + 1];
            for (j = 0; j < 3; j++) {
                const double v = ai[3 * i + j] / h;
                ra[2 * j] = v;
                ra[2 * j + 1] = 0.0;
                rb[2 * j] = 0.0;
                rb[2 * j + 1] = v;
            }
            ra[2 * i] -= j00;
            ra[2 * i + 1] -= j01;
            rb[2 * i] -= j10;
            rb[2 * i + 1] -= j11;
        }
        for (c = 0; c < 6; c++) {
            long long r_big = c;
            double big = fabs(m[c][c]);
            for (r = c + 1; r < 6; r++)
                if (fabs(m[r][c]) > big) { big = fabs(m[r][c]); r_big = r; }
            piv[c] = r_big;
            if (r_big != c)
                for (k = 0; k < 6; k++) {
                    const double v = m[c][k];
                    m[c][k] = m[r_big][k];
                    m[r_big][k] = v;
                }
            if (m[c][c] == 0.0) { singular = 1; break; }
            for (r = c + 1; r < 6; r++) {
                const double fc = m[r][c] / m[c][c];
                m[r][c] = fc;
                for (k = c + 1; k < 6; k++)
                    m[r][k] -= fc * m[c][k];
            }
        }

        /* stage increments Z_i = Y_i - y: start on the previous step's
         * collocation polynomial, extrapolated */
        for (i = 0; i < 3; i++) {
            if (have_q) {
                const double s = (t + nodes[i] * h - qt) / qh;
                z[2 * i] = qy0 + ((q02 * s + q01) * s + q00) * s - y0;
                z[2 * i + 1] = qy1 + ((q12 * s + q11) * s + q10) * s - y1;
            } else {
                z[2 * i] = z[2 * i + 1] = 0.0;
            }
        }
        sc0 = atol0 + rtol * fabs(y0);
        sc1 = atol1 + rtol * fabs(y1);
        while (!singular && n_iter < NEWTON_MAXITER) {
            int finite = 1;
            double acc, dz;
            for (i = 0; i < 3; i++) {
                RHS(t + nodes[i] * h, y0 + z[2 * i], y1 + z[2 * i + 1]);
                f[2 * i] = out[0]; f[2 * i + 1] = out[1];
                if (!(isfinite(f[2 * i]) && isfinite(f[2 * i + 1])))
                    finite = 0;
            }
            if (!finite) break;
            for (i = 0; i < 3; i++)
                for (k = 0; k < 2; k++)
                    b[2 * i + k] = f[2 * i + k]
                        - (ai[3 * i] * z[k] + ai[3 * i + 1] * z[2 + k]
                           + ai[3 * i + 2] * z[4 + k]) / h;
            for (c = 0; c < 6; c++)
                if (piv[c] != c) {
                    const double v = b[c];
                    b[c] = b[piv[c]];
                    b[piv[c]] = v;
                }
            for (c = 0; c < 6; c++)
                for (r = c + 1; r < 6; r++)
                    b[r] -= m[r][c] * b[c];
            for (c = 5; c >= 0; c--) {
                acc = b[c];
                for (k = c + 1; k < 6; k++)
                    acc -= m[c][k] * b[k];
                b[c] = acc / m[c][c];
            }
            acc = 0.0;
            for (i = 0; i < 3; i++) {
                double v = b[2 * i] / sc0;
                acc += v * v;
                v = b[2 * i + 1] / sc1;
                acc += v * v;
            }
            dz = sqrt(acc / 6.0);
            if (n_iter > 0) {
                rate = dz / dz_old;
                if (rate >= 1.0
                    || pow(rate, (double)(NEWTON_MAXITER - n_iter))
                       / (1.0 - rate) * dz > newton_tol)
                    break;
            }
            for (k = 0; k < 6; k++) z[k] += b[k];
            n_iter++;
            if (dz == 0.0
                || (n_iter > 1 && rate / (1.0 - rate) * dz < newton_tol)) {
                converged = 1;
                break;
            }
            dz_old = dz;
        }
        if (!converged) {
            h *= 0.5;
            n_rejected++;
            continue;
        }

        /* RADAU5's error estimate, filtered through (mu/h - J)^-1 */
        a00 = mu / h - j00;
        a11 = mu / h - j11;
        det = a00 * a11 - j01 * j10;
        r0 = f0 + (e0 * z[0] + e1 * z[2] + e2 * z[4]) / h;
        r1 = f1 + (e0 * z[1] + e1 * z[3] + e2 * z[5]) / h;
        err = INFINITY;
        if (det != 0.0) {
            const double v0 = (r0 * a11 + j01 * r1) / det
                / (atol0 + rtol * py_max(fabs(y0), fabs(y0 + z[4])));
            const double v1 = (a00 * r1 + j10 * r0) / det
                / (atol1 + rtol * py_max(fabs(y1), fabs(y1 + z[5])));
            err = sqrt((v0 * v0 + v1 * v1) / 2.0);
        }
        fac = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter);
        fac = err == 0.0 ? 10.0 : fac * pow(err, -0.25);
        if (!(err <= 1.0)) {
            h *= py_max(0.2, fac);
            n_rejected++;
            continue;
        }

        /* accepted: the collocation polynomial through 0, Z1, Z2, Z3 is
         * the dense output, and the next step's Newton start */
        q00 = z[0] * p[0] + z[2] * p[3] + z[4] * p[6];
        q01 = z[0] * p[1] + z[2] * p[4] + z[4] * p[7];
        q02 = z[0] * p[2] + z[2] * p[5] + z[4] * p[8];
        q10 = z[1] * p[0] + z[3] * p[3] + z[5] * p[6];
        q11 = z[1] * p[1] + z[3] * p[4] + z[5] * p[7];
        q12 = z[1] * p[2] + z[3] * p[5] + z[5] * p[8];
        t_new = last ? t_end : t + h;
        while (irow < n && grid[irow] <= t_new) {
            const double s = (grid[irow] - t) / h;
            rows[2 * irow] = y0 + ((q02 * s + q01) * s + q00) * s;
            rows[2 * irow + 1] = y1 + ((q12 * s + q11) * s + q10) * s;
            irow++;
        }
        qy0 = y0; qy1 = y1; qt = t; qh = h;
        have_q = 1;
        t = t_new;
        y0 += z[4];
        y1 += z[5];
        RHS(t, y0, y1);
        f0 = out[0]; f1 = out[1];
        n_steps++;
        h *= fac < 10.0 ? fac : 10.0;
        need_jac = 1;
    }
#undef RHS
    out[4] = n_steps; out[5] = n_rejected;
    return 0;
}

/* Reference LAPACK's DGTSV transcribed, rows of b contiguous: solve the
 * tridiagonal system (dl, d, du) x = b for nrhs right-hand sides by
 * Gaussian elimination with partial pivoting (rows i, i+1 interchanged
 * where |d[i]| < |dl[i]|, the fill landing in dl as a second
 * superdiagonal), then back-substitution.  Overwrites all four arrays,
 * b with the solution; returns 0, or LAPACK's info: the 1-based row of
 * an exactly zero pivot.  tests/reference_tridiag.py holds its python
 * transcription; the two are pinned bitwise. */
long long tridiag_solve(long long n, long long nrhs, double *dl, double *d,
                double *du, double *b)
{
    long long i, j;
    for (i = 0; i < n - 1; i++) {
        double *bi = b + i * nrhs, *bn = bi + nrhs;
        if (fabs(d[i]) >= fabs(dl[i])) {
            double fact;
            if (d[i] == 0.0) return i + 1;
            fact = dl[i] / d[i];
            d[i + 1] = d[i + 1] - fact * du[i];
            for (j = 0; j < nrhs; j++) bn[j] = bn[j] - fact * bi[j];
            if (i < n - 2) dl[i] = 0.0;
        } else {
            const double fact = d[i] / dl[i];
            double temp = d[i + 1];
            d[i] = dl[i];
            d[i + 1] = du[i] - fact * temp;
            if (i < n - 2) {
                dl[i] = du[i + 1];
                du[i + 1] = -fact * dl[i];
            }
            du[i] = temp;
            for (j = 0; j < nrhs; j++) {
                temp = bi[j];
                bi[j] = bn[j];
                bn[j] = temp - fact * bn[j];
            }
        }
    }
    if (d[n - 1] == 0.0) return n;
    for (i = n - 1; i >= 0; i--) {
        double *bi = b + i * nrhs;
        for (j = 0; j < nrhs; j++) {
            double v = bi[j];
            if (i < n - 1) v = v - du[i] * bi[nrhs + j];
            if (i < n - 2) v = v - dl[i] * bi[2 * nrhs + j];
            bi[j] = v / d[i];
        }
    }
    return 0;
}
"""

#: -O3 but NOT -ffast-math, and no contraction into fused multiply-adds:
#: the written evaluation order (the arithmetic contract, and hence the
#: oracle budget) survives optimization on every target.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_CEXT = None  # the CextKernel; holds the CDLL for the life of the process
_CEXT_ERROR: str | None = None  # why this process has none
#: one resolution per process: every spline fit asks, on whatever thread,
#: and a thread that found another's build under way must wait for it
_CEXT_LOCK = threading.Lock()

#: Build/load incidents of this process's resolution: retries after a
#: torn or stale .so, injected chaos faults, the final outcome.  Tests
#: and the chaos oracle read this to attribute recovery behavior.
BUILD_EVENTS: list[dict] = []


def reset_cext() -> None:
    """Forget the memoized resolution (tests and chaos recovery)."""
    global _CEXT, _CEXT_ERROR
    _CEXT = None
    _CEXT_ERROR = None
    BUILD_EVENTS.clear()


def _find_compiler() -> str | None:
    """``$CC`` when set (and nothing else: an unresolvable ``CC`` means
    "no compiler"), otherwise the first of cc/gcc/clang on ``PATH``."""
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def cache_dir() -> str:
    """Where compiled kernels live: ``$REPRO_KERNEL_CACHE``, else
    ``$XDG_CACHE_HOME/repro/kernels``, else ``~/.cache/repro/kernels``,
    else ``<tempdir>/repro-rhs-cache-<uid>`` — the first that can be
    created and written.  Outside ``TMPDIR`` on purpose: a process
    started with a private ``TMPDIR`` reuses the compile."""
    candidates = []
    if os.environ.get("REPRO_KERNEL_CACHE"):
        candidates.append(os.environ["REPRO_KERNEL_CACHE"])
    if os.environ.get("XDG_CACHE_HOME"):
        candidates.append(os.path.join(os.environ["XDG_CACHE_HOME"],
                                       "repro", "kernels"))
    home = os.path.expanduser("~")
    if home != "~":
        candidates.append(os.path.join(home, ".cache", "repro", "kernels"))
    candidates.append(os.path.join(tempfile.gettempdir(),
                                   f"repro-rhs-cache-{os.getuid()}"))
    for path in candidates:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK | os.X_OK):
            return path
    raise OSError(f"no writable kernel cache directory among {candidates}")


@contextlib.contextmanager
def private_cache(path):
    """Resolve kernels under ``path`` for the duration (child processes
    inherit it), re-resolving on entry and exit: for code that plants
    faults in the cache — the test suite, the chaos oracle — and must
    not do so in the user's."""
    old = os.environ.get("REPRO_KERNEL_CACHE")
    os.environ["REPRO_KERNEL_CACHE"] = str(path)
    reset_cext()
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_KERNEL_CACHE"]
        else:
            os.environ["REPRO_KERNEL_CACHE"] = old
        reset_cext()


def _write_atomic(path: str, text: str) -> None:
    """Publish a complete file or none: concurrent compilers of the
    same digest must never read a half-written source."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _build() -> ctypes.CDLL:
    """Compile-or-load the content-addressed .so, surviving races.

    Multiple processes (forked PLINGER workers, parallel test runners)
    may resolve the same digest concurrently against one shared cache.
    Every write is staged per-pid and atomically renamed, and a shared
    object that fails to load (torn by a crashed writer, stale from an
    interrupted build) is quarantined — unlinked and recompiled under a
    bounded :class:`~repro.resilience.RetryPolicy` — instead of
    poisoning every later process that trusts the path.
    """
    from .chaos import current_engine
    from .resilience import RetryPolicy

    cc = _find_compiler()
    if cc is None:
        named = os.environ.get("CC")
        raise OSError(f"CC={named!r} names no executable" if named else
                      "CC is unset and no cc, gcc or clang is on PATH")
    eng = current_engine()
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    cache = cache_dir()
    so_path = os.path.join(cache, f"rhs_{digest}.so")
    if eng is not None and eng.stale_so():
        # chaos: plant a truncated "shared object" at the published
        # path, as an interrupted non-atomic writer would have.  The
        # plant itself must rename in (fresh inode): truncating the
        # path in place would tear pages out from under any mapping a
        # *previous* resolution of this digest created in this process.
        stale = os.path.join(cache, f"rhs_{digest}.{os.getpid()}.stale")
        with open(stale, "wb") as fh:
            fh.write(b"\x7fELF" + b"\x00" * 28)
        os.replace(stale, so_path)
        BUILD_EVENTS.append({"event": "chaos_stale_so", "path": so_path})

    def compile_and_load() -> ctypes.CDLL:
        if eng is not None and eng.fail_compile():
            BUILD_EVENTS.append({"event": "chaos_compile_failure"})
            raise subprocess.SubprocessError("chaos: injected compile failure")
        if not os.path.exists(so_path):
            c_path = os.path.join(cache, f"rhs_{digest}.c")
            tmp_so = os.path.join(cache, f"rhs_{digest}.{os.getpid()}.so")
            _write_atomic(c_path, C_SOURCE)
            subprocess.run(
                [cc, *CFLAGS, "-o", tmp_so, c_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic: races produce one winner
        try:
            return ctypes.CDLL(so_path)
        except OSError:
            # torn/stale .so: quarantine it so the retry recompiles
            try:
                os.unlink(so_path)
            except OSError:
                pass
            raise

    def on_retry(n: int, exc: BaseException) -> None:
        BUILD_EVENTS.append({"event": "build_retry", "attempt": n,
                             "error": str(exc)})

    policy = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.1)
    return policy.call(compile_and_load,
                       retry_on=(OSError, subprocess.SubprocessError),
                       on_retry=on_retry)


class CextKernel:
    """The loaded shared object.

    Calling the instance evaluates ``rhs_full`` — or, with
    ``tight=True``, ``rhs_tca`` — with the packed-ABI *array* signature
    (tests, cold paths).
    The hot paths use the raw entry points, which take addresses:
    ``rhs_raw(*table, tau, y, dy)``, its tight-coupling twin
    ``rhs_tca_raw`` and
    ``integrate_raw(*table, tight, tab, s, ctl, stops, max_steps, y,
    rows, work, out) -> status`` where ``table`` is the system's
    eight-pointer table (``PerturbationSystem.pack()["table"]``, built
    once), and ``pairwise_raw(a, n) -> float``.  ctypes releases the
    GIL around each call and the C side keeps no static state, so
    threads may call concurrently.  ``thermo_rhs_raw(params, nu_pack,
    lna, x_h, t_b, out)``, ``thermo_ode_raw(params, nu_pack, tab, grid,
    n, max_attempts, rows, out) -> status`` and ``tridiag_raw(n, nrhs,
    dl, d, du, b) -> info`` are the C functions of those names.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        ptr, i64 = ctypes.c_void_p, ctypes.c_longlong
        self.rhs_raw = lib.rhs_full
        self.rhs_tca_raw = lib.rhs_tca
        for fn in (self.rhs_raw, self.rhs_tca_raw):
            fn.argtypes = [ptr] * 8 + [ctypes.c_double, ptr, ptr]
            fn.restype = None
        self.integrate_raw = lib.integrate_phase
        self.integrate_raw.argtypes = ([ptr] * 8 + [i64, ptr, i64, ptr, ptr,
                                                    i64, ptr, ptr, ptr, ptr])
        self.integrate_raw.restype = i64
        self.pairwise_raw = lib.pairwise_sum
        self.pairwise_raw.argtypes = [ptr, i64]
        self.pairwise_raw.restype = ctypes.c_double
        self.thermo_rhs_raw = lib.thermo_rhs
        self.thermo_rhs_raw.argtypes = ([ptr, ptr] + [ctypes.c_double] * 3
                                        + [ptr])
        self.thermo_rhs_raw.restype = None
        self.thermo_ode_raw = lib.thermo_ode
        self.thermo_ode_raw.argtypes = [ptr] * 4 + [i64, i64, ptr, ptr]
        self.thermo_ode_raw.restype = i64
        self.tridiag_raw = lib.tridiag_solve
        self.tridiag_raw.argtypes = [i64, i64] + [ptr] * 4
        self.tridiag_raw.restype = i64

    def __call__(self, ints, flts, th_c, adv_lo, adv_hi, nu_pack, mnu_pack,
                 rf_c, tau, y, dy, tight=False) -> None:
        fn = self.rhs_tca_raw if tight else self.rhs_raw
        fn(*(a.ctypes.data for a in (ints, flts, th_c, adv_lo, adv_hi,
                                     nu_pack, mnu_pack, rf_c)),
           tau, y.ctypes.data, dy.ctypes.data)


def get_cext() -> CextKernel:
    """The compiled object, built or loaded on first use (~1 s to
    compile, cached on disk afterwards).

    Raises :class:`~repro.errors.CompilerError`, naming ``CC`` and the
    build's own reason, when it cannot be had.  The failure is
    remembered, so a broken toolchain costs one attempt per process,
    not one per call (``reset_cext`` re-arms it).
    """
    global _CEXT, _CEXT_ERROR
    if _CEXT is None:
        with _CEXT_LOCK:
            if _CEXT is None and _CEXT_ERROR is None:
                try:
                    _CEXT = CextKernel(_build())
                except Exception as exc:
                    reason = " ".join(str(exc).split())
                    BUILD_EVENTS.append({"event": "unavailable",
                                         "error": reason})
                    _CEXT_ERROR = (
                        f"the compiled solver could not be built ({reason});"
                        " repro needs a C compiler: set CC to one")
        if _CEXT_ERROR is not None:
            raise CompilerError(_CEXT_ERROR)
    return _CEXT
