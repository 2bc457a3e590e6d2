"""The compiled solver: the packed RHS kernels, the DVERK step loop, a
whole mode in one call, the thermal history's ODE solve, the spline
Saha sweeps, the spline fit and the j_l recurrence.

One shared object — one build, one cache directory, resolved once per
process by whichever layer asks first (a ``Background``'s first spline
fit, usually) — carries seven entry points over one packed ABI, the
assembled structure of one wavenumber (see ``PerturbationSystem.pack``
for the layout contract):

* ``rhs_full`` and ``rhs_tca`` — the synchronous-gauge right-hand side
  of the full-hierarchy phase and of the tight-coupling phase, in the
  evaluation order ``tests/reference_packed_rhs.py`` pins; one body,
  which differs between the two only in the photon-baryon sector;
* ``integrate_phase`` — one wavenumber's whole phase (either one): the
  Verner stages evaluating that phase's RHS inline, error norm, step
  controller, stop points, accept/reject.  A transcription of
  ``RKDriver.integrate`` under the arithmetic contract of
  :mod:`repro.integrators.contract`, bitwise equal to it;
* ``record_pass`` — every ``RECORD_FIELDS`` observable of a block of
  states; ``tca_handoff`` — the slaved moments as tight coupling ends;
  ``momentum_rows`` — the massive species' three momentum sums that
  both read, in the order numpy's ``@`` takes them;
  ``evolve_mode`` — a whole mode in one call: both phases, the hand-off
  and the record pass.

and, each over arguments of its own,

* ``thermo_rhs`` — the thermal history's ODE right-hand side, massive
  neutrinos or not (one state at a time on libm);
* ``thermo_ode`` — a three-stage Radau IIA stepper calling
  ``thermo_rhs`` about five thousand times per ``ThermalHistory`` build
  without leaving C, forming its ln a terms once per abscissa;
* ``nu_integrals`` — the massive-neutrino background's momentum
  integrals over numpy's node weights, and ``uniform_cubic`` — a
  uniform-knot spline at many abscissae (the background's ν factors);
* ``saha_sweeps`` — the thermal history's Saha grid pass;
* ``tridiag_solve`` — reference LAPACK's ``DGTSV``, and ``cubic_fit`` —
  :func:`repro.util.fastspline.fit_cubic` from four knots up;
* ``bessel_sweep`` — the downward recurrence behind the j_l tables of
  :class:`repro.spectra.los.BesselCache`.

Each of the last seven is pinned bitwise to a python transcription in
``tests/`` (``reference_thermo.py``, ``reference_nu.py``,
``reference_tridiag.py``, ``reference_projection.py``); ``cubic_fit`` to
scipy's spline as well, and ``momentum_rows`` to numpy's ``@``.

The source is compiled once with the system C compiler into a
content-addressed shared object under :func:`cache_dir`, then loaded
through ctypes.  It is the one engine: a process that cannot build it
(no compiler, unwritable cache, broken toolchain) gets a
:class:`~repro.errors.CompilerError` naming ``CC`` at the first call
that needs it.

Compiled ``-O3 -ffp-contract=off`` and **never** ``-ffast-math``: ISO C
forbids reassociating floating-point expressions and contraction is
switched off, so the C code reproduces the written evaluation order
exactly, and it shares libm's exp/log/pow with python's ``math`` and
numpy's scalar ``**`` (numpy's array exp/log/power are its own, so
those stay numpy's, formed before a call).  The
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
#include <time.h>

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
 * both neutrino sectors are the same code in both.  Always inlined (gcc
 * finds it too large to inline by itself): each clone of integrate_phase
 * compiles it with the step loop, at the clone's vector width. */
#if defined(__GNUC__)
#define RHS_INLINE static inline __attribute__((always_inline))
#else
#define RHS_INLINE static inline
#endif
RHS_INLINE void rhs_eval(const long long *ints, const double *flts,
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

/* integrate_phase alone is built three times, for x86-64-v4 (AVX-512),
 * AVX2 and the baseline, and glibc's loader picks by cpuid: with the
 * right-hand side inlined, its loops and the step loop's are elementwise
 * IEEE multiplies and adds, the same at any width, and contraction stays
 * off, so no clone can move a bit.  gcc before 11 knows no x86-64-v4:
 * there the first clone is left out. */
#if defined(__GNUC__) && defined(__x86_64__) && defined(__GLIBC__)
#if __GNUC__ >= 11 && !defined(__clang__)
#define PHASE_ISAS "arch=x86-64-v4", "avx2", "default"
#else
#define PHASE_ISAS "avx2", "default"
#endif
#define PHASE_CLONES __attribute__((target_clones(PHASE_ISAS)))
#else
#define PHASE_CLONES
#endif

/* One phase: RKDriver.integrate transcribed under the
 * arithmetic contract (repro/integrators/contract.py), its stages
 * evaluating rhs_eval inline, tight coupling (``tight``) or the full
 * hierarchies.
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

    for (c = 0; c < n; c++) ycur[c] = y[c];

    /* f0 and the initial step */
    (tight ? rhs_tca : rhs_full)(ints, flts, th_c, adv_lo, adv_hi, nu_pack,
                                 mnu_pack, rf_c, t, ycur, K);
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

        /* one trial step: stage 0 at (t, ycur), stage i at
         * (t + c_i h, ycur + h sum_j a_ij K_j) */
        for (i = 0; i < s; i++) {
            const double *yy = ycur;
            ts = t;
            if (i > 0) {
                row_sum(tab + i * s, s, K, n, acc);
                for (c = 0; c < n; c++) yi[c] = ycur[c] + h * acc[c];
                yy = yi;
                ts = t + cs[i] * h;
            }
            rhs_eval(ints, flts, th_c, adv_lo, adv_hi, nu_pack, mnu_pack,
                     rf_c, ts, yy, K + i * n, tight != 0);
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

    for (c = 0; c < n; c++) y[c] = ycur[c];
    ctl[0] = t; ctl[6] = h;
    out[0] = n_steps; out[1] = n_rejected; out[2] = n_rhs; out[3] = istop;
    out[4] = n_bound;
    return status;
}

#define TABLE_ARGS const long long *ints, const double *flts, \
    const double *th_c, const double *adv_lo, const double *adv_hi, \
    const double *nu_pack, const double *mnu_pack, const double *rf_c
#define TABLE ints, flts, th_c, adv_lo, adv_hi, nu_pack, mnu_pack, rf_c

/* numpy's ``v ** 2`` of a float64 scalar is libm's pow, which can differ
 * from v * v in the last bit; the volatile exponent keeps the compiler
 * from folding pow(v, 2.0) into the product. */
static inline double scalar_square(double v)
{
    volatile double two = 2.0;
    return pow(v, two);
}

/* The three massive-neutrino momentum sums of the state Y into s:
 * (w_rho eps).psi_0, w_q3.psi_1 and (w_q4 / eps).psi_2 over the nq nodes,
 * eps = sqrt(q^2 + (a x0)^2), the factors formed elementwise as
 * PerturbationSystem's numpy formed them.  Each sum is numpy's ``@`` of
 * a contiguous vector with a strided psi column, which is OpenBLAS's
 * non-unit-stride ddot (kernel/x86_64/ddot.c, built with FMA
 * contraction): of every four nodes the products of (0, 2) are added to
 * one accumulator and those of (1, 3) to a second, each node left over
 * is fused into the first, then the two are summed, and numpy's
 * DOUBLE_dot adds that to its 0.0.  tests/reference_nu.py writes the
 * order out, and tests pin it to ``@`` itself. */
static void momentum_sums(TABLE_ARGS, const double *Y, double *s)
{
    const long long nq = ints[3], st = ints[4] + 1;
    const double *q = nu_pack, *w_rho = nu_pack + 2 * nq;
    const double *w_q3 = nu_pack + 3 * nq, *w_q4 = nu_pack + 4 * nq;
    const double *psi = Y + ints[8];
    const double ax2 = scalar_square(Y[0] * flts[10]);
    double t1[3] = {0.0, 0.0, 0.0}, t2[3] = {0.0, 0.0, 0.0}, f[4][3];
    long long j, g, c;
    for (j = 0; j < nq; j += 4) {
        const long long m = nq - j < 4 ? nq - j : 4;
        for (g = 0; g < m; g++) {
            const double eps = sqrt(q[j + g] * q[j + g] + ax2);
            f[g][0] = w_rho[j + g] * eps;
            f[g][1] = w_q3[j + g];
            f[g][2] = w_q4[j + g] / eps;
        }
        for (c = 0; c < 3; c++) {
            const double *col = psi + j * st + c;
            if (m == 4) {
                const double m1 = f[0][c] * col[0];
                const double m2 = f[1][c] * col[st];
                const double m3 = f[2][c] * col[2 * st];
                const double m4 = f[3][c] * col[3 * st];
                t1[c] += m1 + m3;
                t2[c] += m2 + m4;
            } else {
                for (g = 0; g < m; g++)
                    t1[c] = fma(f[g][c], col[g * st], t1[c]);
            }
        }
    }
    for (c = 0; c < 3; c++) s[c] = 0.0 + (t1[c] + t2[c]);
}

/* momentum_sums of the m states rows (m, n) into out (3, m) */
void momentum_rows(TABLE_ARGS, const double *rows, long long m, double *out)
{
    const long long n = ints[0];
    double s[3];
    long long i;
    for (i = 0; i < m; i++) {
        momentum_sums(TABLE, rows + i * n, s);
        out[i] = s[0];
        out[m + i] = s[1];
        out[2 * m + i] = s[2];
    }
}

/* The record pass: the RECORD_FIELDS of the m states in rows (the first
 * n_tight in tight coupling), field f of row i into rec[f stride + i], each
 * the scalar expression of PerturbationSystem's helpers and the row
 * recorder, the massive species' sums by momentum_sums (nq > 0); par:
 * omega_c, omega_b, omega_nu, omega_m. */
void record_pass(TABLE_ARGS, const double *rows, long long m,
                 long long n_tight, const double *par, double *rec,
                 long long stride)
{
    const long long n = ints[0], nq = ints[3], rf_n = ints[14];
    const long long i_fg = ints[5], i_gg = ints[6], i_nl = ints[7];
    const double gr_nu_rel = flts[8], k2 = flts[17], k075 = flts[18];
    long long i;
    for (i = 0; i < m; i++) {
        const double *Y = rows + i * n;
        const double a = Y[0], inv_a = 1.0 / a, inv_a2 = inv_a * inv_a;
        const double inv_aa = 1.0 / (a * a), f2 = Y[i_fg + 2];
        const double theta_g = k075 * Y[i_fg + 1];
        const double kap = thermo_exp(ints, flts, th_c, 0, log(a));
        double grho = flts[0] / a + flts[1] / (a * a) + flts[2] * a * a;
        double rho_f = 0.0, gdrho, gdq, hc, hdot, etadot, alpha;
        double sigma_g, pi_pol, gshear, num, dnu_m = NAN, *r = rec + i;
        double mom[3] = {0.0, 0.0, 0.0};
        if (nq > 0) {
            const double lx = log(a * flts[10]);
            long long ri = (long long)((lx - flts[14]) / flts[15]);
            double ru;
            if (ri < 0) ri = 0;
            if (ri > rf_n - 1) ri = rf_n - 1;
            ru = lx - (flts[14] + ri * flts[15]);
            rho_f = exp(((rf_c[ri] * ru + rf_c[rf_n + ri]) * ru
                         + rf_c[2 * rf_n + ri]) * ru + rf_c[3 * rf_n + ri])
                    / flts[11];
            grho += gr_nu_rel / (a * a) * rho_f;
            momentum_sums(TABLE, Y, mom);
        }
        hc = sqrt(grho + flts[3]);
        /* the Einstein constraints */
        gdrho = 1.5 * ((flts[4] * Y[3] + flts[5] * Y[4]) * inv_a
                       + (flts[6] * Y[i_fg] + flts[7] * Y[i_nl]) * inv_a2);
        gdq = 1.5 * (flts[5] * Y[5] * inv_a
                     + (4.0 / 3.0) * (flts[6] * theta_g
                                      + flts[7] * (k075 * Y[i_nl + 1]))
                       * inv_a2);
        if (nq > 0) {
            gdrho = gdrho + 1.5 * gr_nu_rel * inv_a2 * mom[0];
            gdq = gdq + 1.5 * gr_nu_rel * inv_a2 * flts[16] * mom[1];
        }
        hdot = 2.0 * (k2 * Y[2] + gdrho) / hc;
        etadot = gdq / k2;
        if (i < n_tight) {
            sigma_g = (2.0 / (3.0 * kap)) * ((8.0 / 15.0) * theta_g
                      + (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot);
            pi_pol = 2.5 * 2.0 * sigma_g;
        } else {
            sigma_g = 0.5 * f2;
            pi_pol = f2 + Y[i_gg] + Y[i_gg + 2];
        }
        gshear = 1.5 * (4.0 / 3.0)
            * (flts[6] * sigma_g + flts[7] * (0.5 * Y[i_nl + 2])) * inv_aa;
        num = par[0] * Y[3] + par[1] * Y[4];
        if (nq > 0) {
            gshear = gshear + 1.5 * gr_nu_rel * inv_aa * (2.0 / 3.0) * mom[2];
            dnu_m = mom[0] / rho_f;
            if (par[2] > 0) num = num + par[2] * dnu_m;
        }
        alpha = (hdot + 6.0 * etadot) / (2.0 * k2);  /* the potentials */
        r[0] = a; r[stride] = Y[i_fg]; r[2 * stride] = theta_g;
        r[3 * stride] = sigma_g; r[4 * stride] = Y[4]; r[5 * stride] = Y[5];
        r[6 * stride] = Y[3]; r[7 * stride] = Y[i_nl];
        r[8 * stride] = k075 * Y[i_nl + 1]; r[9 * stride] = dnu_m;
        r[10 * stride] = num / par[3]; r[11 * stride] = pi_pol;
        r[12 * stride] = Y[2]; r[13 * stride] = etadot;
        r[14 * stride] = hdot; r[15 * stride] = alpha;
        r[17 * stride] = Y[2] - hc * alpha;
        r[18 * stride] = r[17 * stride] - 3.0 * gshear / k2;
        r[16 * stride] = r[18 * stride] - hc * alpha;
        r[19 * stride] = kap;
    }
}

/* The hand-off from tight coupling, in y: F2 twice the quasi-static shear
 * (record_pass's tight sigma_g), G0 = 5/4 F2, G2 = 1/4 F2, the other
 * F_(l>=3) and G_l zero; par as record_pass's. */
void tca_handoff(TABLE_ARGS, double *y, const double *par)
{
    const long long lg = ints[1], i_fg = ints[5], i_gg = ints[6];
    double rec[20];
    long long l;
    record_pass(TABLE, y, 1, 1, par, rec, 1);
    y[i_fg + 2] = 2.0 * rec[3];
    for (l = 3; l <= lg; l++) y[i_fg + l] = 0.0;
    for (l = 0; l <= lg; l++) y[i_gg + l] = 0.0;
    y[i_gg] = 1.25 * y[i_fg + 2];
    y[i_gg + 2] = 0.25 * y[i_fg + 2];
}

/* One mode: the tight-coupling phase, tca_handoff, the full phase,
 * record_pass over the recorded rows and the final state.  stops: each
 * phase's (cnt[0], cnt[1] of them), of which the
 * first cnt[2], cnt[3] are recorded; ctl: the full phase's, but t_init,
 * t_switch, tau_end in ctl[0, 1, 12]; back in ctl[0, 6] what integrate_phase
 * leaves there, in ctl[13, 14] each phase's wall seconds (the hand-off
 * counts to the first); out: integrate_phase's counters per phase.
 * Returns 0, integrate_phase's failure, or 4: a non-finite end state. */
long long evolve_mode(TABLE_ARGS, const double *tab, long long s, double *ctl,
                      const double *stops, const long long *cnt,
                      long long max_steps, double *y, double *rows,
                      const double *par, double *rec, double *work,
                      long long *out)
{
    const long long n = ints[0], m = cnt[2] + cnt[3] + 1;
    double c[12];
    struct timespec w0, w1;
    long long phase, i, status = 0;
    for (phase = 0; phase < 2; phase++) {
        for (i = 0; i < 12; i++) c[i] = ctl[i];
        if (phase == 0) c[11] = NAN;  /* tight coupling: no stiff rate */
        else { c[0] = ctl[1]; c[1] = ctl[12]; }
        for (i = 0; i < (s + 5) * n; i++) work[i] = 0.0;
        clock_gettime(CLOCK_MONOTONIC, &w0);
        status = integrate_phase(TABLE, 1 - phase, tab, s, c,
                                 phase ? stops + cnt[0] : stops,
                                 phase ? max_steps - out[0] : max_steps, y,
                                 phase ? rows + cnt[2] * n : rows, work,
                                 out + 5 * phase);
        if (status == 0 && !isfinite(pairwise_sum(y, n))) status = 4;
        if (status) break;
        if (phase == 0) tca_handoff(TABLE, y, par);
        clock_gettime(CLOCK_MONOTONIC, &w1);
        ctl[13 + phase] = (w1.tv_sec - w0.tv_sec)
                          + 1e-9 * (w1.tv_nsec - w0.tv_nsec);
    }
    ctl[0] = c[0]; ctl[6] = c[6];
    if (status) return status;
    for (i = 0; i < n; i++) rows[(m - 1) * n + i] = y[i];
    record_pass(TABLE, rows, m, cnt[2], par, rec, m);
    return 0;
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

/* saha_electron_fraction's Newton on the Saha factors per nucleus (start,
 * bracket, geometric-midpoint fallback, 1e-14 stop): x gets x_e and, at
 * the last iterate, x_H, x_HeII, x_HeIII.  Returns the iterations made,
 * cap + 1 if the stop was never met */
static inline long long saha_newton(double s_h, double s_he1, double s_he2,
                                    double f_he, long long cap, double *x)
{
    double lo = 2.0 * s_h / (s_h + sqrt(s_h * s_h + 4.0 * s_h));
    double hi = 1.0 + 2.0 * f_he, x_e = lo, x_new = lo;
    long long it;
    for (it = 1; it <= cap; it++, x_e = x_new) {
        /* _saha_residual */
        const double h_den = x_e + s_h, q = s_he1 * (s_he2 / x_e);
        const double he_den = x_e + s_he1 + q;
        double g, dg;
        x[1] = s_h / h_den;
        x[2] = s_he1 / he_den;
        x[3] = q / he_den;
        g = x[1] + f_he * (x[2] + 2.0 * x[3]) - x_e;
        dg = -x[1] / h_den
             - f_he * (x[2] + x[3] * (4.0 + s_he1 / x_e)) / he_den - 1.0;
        if (g > 0.0) lo = x_e; else hi = x_e;
        x_new = x_e - g / dg;
        if (!(lo <= x_new && x_new <= hi)) x_new = sqrt(lo * hi);
        if (fabs(x_new - x_e) < 1e-14 * x_e) break;
    }
    x[0] = x_new;
    return it;
}

/* recombination._saha_sweeps: saha_newton row by row over the Saha
 * factors numpy formed (its exp is not libm's); a row whose s_h
 * underflowed stays neutral.  out: four rows of n, x_e, x_H, x_HeII,
 * x_HeIII.  Returns the slowest row's iterations (1 at least, the
 * numpy sweeps' count in tests/reference_thermo.py, pinned bitwise), or
 * minus the number of rows that never stopped within cap. */
long long saha_sweeps(long long n, const double *s_h, const double *s_he1,
                      const double *s_he2, double f_he, long long cap,
                      double *out)
{
    long long i, k, it, most = 1, stuck = 0;
    for (i = 0; i < n; i++) {
        double x[4] = {0.0, 0.0, 0.0, 0.0};
        it = s_h[i] > 0.0 ? saha_newton(s_h[i], s_he1[i], s_he2[i], f_he,
                                        cap, x) : 1;
        if (it > cap) stuck++;
        else if (it > most) most = it;
        for (k = 0; k < 4; k++) out[k * n + i] = x[k];
    }
    return stuck ? -stuck : most;
}

/* What thermo_eval keeps between evaluations: the part of the
 * right-hand side that reads ln a alone (the expansion rate, the hydrogen
 * density, the photon temperature and its Compton prefactor) for the last
 * THERMO_NODES abscissae — a step attempt's start and its three stage
 * nodes — and the part that reads ln a and T_b (the Saha helium electrons
 * and the Peebles rates) for the last evaluation, each keyed by its
 * inputs; thermo_memo_init empties it. */
#define THERMO_NODES 4
struct thermo_memo {
    double lna[THERMO_NODES], h_s[THERMO_NODES], n_h[THERMO_NODES];
    double t_g[THERMO_NODES], compton[THERMO_NODES];
    long long next;
    double tb_lna, tb_in, t_b, x_he, alpha2, beta, beta2;
};

static void thermo_memo_init(struct thermo_memo *M)
{
    long long i;
    for (i = 0; i < THERMO_NODES; i++) M->lna[i] = NAN;
    M->tb_lna = NAN;
    M->next = 0;
}

/* The thermal history's ODE right-hand side, d[x_H, T_b]/d ln a at
 * (ln a, x_H, T_b): Background.hubble of a float, saha_electron_fraction,
 * PeeblesRates.at, peebles_rhs and the Compton term, transcribed
 * grouping for grouping, libm wherever python calls math.* or **.
 * tests/reference_thermo.py composes them in python, the reference;
 * the two are pinned bitwise.  A part of it whose inputs are the same
 * doubles as a kept one's is read from M, not formed again.
 *
 *   P        the parameter block, ThermalHistory._rhs_block's layout
 *   nu_pack  MassiveNuTables._rhs_pack (it starts with rows c3..c0 of
 *            ln I_rho), or NULL without a massive species
 *   out      d x_H/d ln a, d T_b/d ln a, then two slots that only ever
 *            grow: 1 once the Saha Newton iteration has hit its cap
 *            (python raises there), and the evaluations made so far;
 *            nothing is static */
static void thermo_eval(const double *P, const double *nu_pack,
                        struct thermo_memo *M, double lna, double x_h_in,
                        double t_b_in, double *out)
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
    long long i;

    for (i = 0; i < THERMO_NODES && M->lna[i] != lna; i++)
        ;
    if (i == THERMO_NODES) {
        const double a = exp(lna), a2 = a * a;
        double gr_nu_a = 0.0 * a;
        i = M->next;
        M->next = (i + 1) % THERMO_NODES;
        /* Background.hubble: the six grho terms added left to right */
        if (nu_pack) {
            const double lx = log(py_min(py_max(a * x0, x_min), x_max));
            long long ri = (long long)((lx - rf_x0) / rf_dx);
            double ru;
            if (ri < 0) ri = 0;
            if (ri > rf_n - 1) ri = rf_n - 1;
            ru = lx - (rf_x0 + ri * rf_dx);
            gr_nu_a = gr_nu / a2
                * (exp(((nu_pack[ri] * ru + nu_pack[rf_n + ri]) * ru
                        + nu_pack[2 * rf_n + ri]) * ru
                       + nu_pack[3 * rf_n + ri])
                   / irho);
        }
        const double grho = gr_c / a + gr_b / a + gr_g / a2 + gr_nl / a2
                            + gr_lam * a2 + gr_nu_a;
        M->lna[i] = lna;
        /* proper Hubble rate in s^-1 */
        M->h_s[i] = sqrt(grho + gr_k) / a * c_light / mpc_cm;
        M->n_h[i] = n_h0 / pow(a, 3.0);
        M->t_g[i] = t_cmb / a;
        M->compton[i] = 8.0 * sigma_t * a_rad * pow(M->t_g[i], 4.0)
                        / (3.0 * m_e * c_light);
    }
    const double h_s = M->h_s[i], n_h = M->n_h[i], t_g = M->t_g[i];

    if (!(M->tb_lna == lna && M->tb_in == t_b_in)) {
        const double t_b = py_max(t_b_in, 1e-3);
        /* saha_electron_fraction: helium electrons at the current
         * temperature, by Newton's method inside a bracket */
        const double kt = k_b * t_b;
        /* (m_e k T / 2 pi hbar^2)^(3/2): python forms it once per Saha
         * factor and once more in PeeblesRates.at, from the same
         * doubles */
        const double thermal = pow(m_e * kt / two_pi_hbar2, 1.5);
        const double s_h = saha_factor(thermal, chi_h / kt) / n_h;
        double sf[4] = {0.0, 0.0, 0.0, 0.0};
        if (s_h != 0.0) {
            const double s_he1 = 4.0 * saha_factor(thermal, chi_he1 / kt)
                                 / n_h;
            const double s_he2 = 1.0 * saha_factor(thermal, chi_he2 / kt)
                                 / n_h;
            if (saha_newton(s_h, s_he1, s_he2, f_he, saha_cap, sf)
                > saha_cap)
                out[2] = 1.0;
        }
        /* PeeblesRates.at */
        const double eps = chi_h / kt;
        const double phi2 = py_max(0.448 * log(py_max(eps, 1.0 + 1e-12)),
                                   0.0);
        M->tb_lna = lna;
        M->tb_in = t_b_in;
        M->t_b = t_b;
        M->x_he = f_he * (sf[2] + 2.0 * sf[3]);
        M->alpha2 = 9.78e-14 * sqrt(eps) * phi2;
        M->beta = M->alpha2 * thermal * (eps < 650.0 ? exp(-eps) : 0.0);
        M->beta2 = M->alpha2 * thermal
                   * (eps < 2600.0 ? exp(-eps / 4.0) : 0.0);
    }
    const double t_b = M->t_b;

    /* peebles_rhs */
    const double x_h = py_min(py_max(x_h_in, 0.0), 1.0);
    const double x_e = x_h + M->x_he;
    const double n_e = py_max(x_e, 1e-12) * n_h;
    const double n_1s = py_max((1.0 - x_h) * n_h, 1e-300);
    const double lam_alpha = h_s * lya_cube / (eight_pi_sq * n_1s);
    const double c_peebles = (lam_2s + lam_alpha)
                             / (lam_2s + lam_alpha + M->beta2);
    const double recomb = M->alpha2 * n_e * x_h;
    const double ionize = M->beta * (1.0 - x_h);
    const double dxh_dt = c_peebles * (ionize - recomb);

    /* baryon temperature: adiabatic cooling + Compton heating */
    const double dtb_dt = -2.0 * h_s * t_b
        + M->compton[i] * x_e / (1.0 + f_he + x_e) * (t_g - t_b);

    out[0] = dxh_dt / h_s;
    out[1] = dtb_dt / h_s;
    out[3] += 1.0;
}

/* thermo_eval of one state, keeping nothing */
void thermo_rhs(const double *P, const double *nu_pack, double lna,
                double x_h_in, double t_b_in, double *out)
{
    struct thermo_memo M;
    thermo_memo_init(&M);
    thermo_eval(P, nu_pack, &M, lna, x_h_in, t_b_in, out);
}

#define NEWTON_MAXITER 6

/* The thermal history's ODE solve, (x_H, T_b) over ln a on the table's
 * own grid: three-stage Radau IIA, simplified Newton on the six stage
 * unknowns, RADAU5's error estimate, the collocation polynomial as dense
 * output (repro/thermo/radau.py explains the method) — evaluating the
 * right-hand side by thermo_eval without leaving C, over one memo: a
 * Newton iteration forms only the state part at each stage node, and the
 * Jacobian's x_H column only the state part.  tests/reference_thermo.py
 * holds its
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
    struct thermo_memo memo;

    thermo_memo_init(&memo);
#define RHS(tt, a0, a1) thermo_eval(P, nu_pack, &memo, (tt), (a0), (a1), out)

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

/* repro.background.nu_massive's rho_integral and pressure_integral at
 * the n abscissae x, over the nq momentum nodes q: rho[i] is numpy's
 * pairwise row sum of (wq2 eps) f0, p[i] that of (wq4 / eps) f0 over 3,
 * eps = sqrt(q^2 + x[i]^2), the elementwise terms grouped as numpy
 * groups them; drho[i] (unless NULL), solve_mass_parameter's Newton
 * slope dI_rho/dx, that of ((wq2 f0) x[i]) / eps.  wq2 = w q^2,
 * wq4 = w q^4 and f0 come formed by numpy, whose power and exp are not
 * libm's; row: 3 nq doubles of work. */
void nu_integrals(long long n, const double *x, long long nq,
                  const double *q, const double *wq2, const double *wq4,
                  const double *f0, double *rho, double *p, double *drho,
                  double *row)
{
    long long i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < nq; j++) {
            const double eps = sqrt(q[j] * q[j] + x[i] * x[i]);
            row[j] = wq2[j] * eps * f0[j];
            row[nq + j] = wq4[j] / eps * f0[j];
            if (drho) row[2 * nq + j] = wq2[j] * f0[j] * x[i] / eps;
        }
        rho[i] = pairwise_sum(row, nq);
        p[i] = pairwise_sum(row + nq, nq) / 3.0;
        if (drho) drho[i] = pairwise_sum(row + 2 * nq, nq);
    }
}

/* UniformGridCubic.vector: the cubic on n pieces of the uniform knots
 * x0 + i dx (coef: rows c3, c2, c1, c0 of n each) at the m abscissae x,
 * into y, in __call__'s index arithmetic (truncated toward zero, clamped
 * to [0, n - 1]) and Horner grouping. */
void uniform_cubic(long long m, const double *x, double x0, double dx,
                   long long n, const double *coef, double *y)
{
    long long j, i;
    for (j = 0; j < m; j++) {
        double t;
        i = (long long)((x[j] - x0) / dx);
        if (i < 0) i = 0;
        if (i > n - 1) i = n - 1;
        t = x[j] - (x0 + i * dx);
        y[j] = ((coef[i] * t + coef[n + i]) * t + coef[2 * n + i]) * t
               + coef[3 * n + i];
    }
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

/* fit_cubic from n = 4 knots x up, m columns y (n rows of m): the
 * not-a-knot system assembled as fastspline.py documents, tridiag_solve,
 * then the (4, n - 1, m) Hermite coefficients into c, which is the
 * work space too: row 0 the subdiagonal, row 1 the slopes, rows 2-3 the
 * right-hand sides, solved in place into row 2.  sq0, sq1: the end
 * spacings squared by the caller's libm pow (a compiler folds pow(d, 2.0)
 * into d * d).  work: 2 n doubles.  Returns tridiag_solve's info */
long long cubic_fit(long long n, long long m, const double *x,
                    const double *y, double sq0, double sq1, double *c,
                    double *work)
{
    long long i, j, k, info, p = n - 1, pm = p * m;
    double *d = work, *du = d + n, *dl = c, *slope = c + pm, *b = c + 2 * pm;
    double e, h;
    for (i = 0; i < p; i++)
        for (h = x[i + 1] - x[i], k = i * m; k < i * m + m; k++)
            slope[k] = (y[k + m] - y[k]) / h;
    for (i = 1; i < p; i++) {
        const double h0 = x[i] - x[i - 1], h1 = x[i + 1] - x[i];
        d[i] = 2 * (h0 + h1);
        du[i] = h0;
        dl[i - 1] = h1;
        for (k = i * m; k < i * m + m; k++)
            b[k] = 3 * (h1 * slope[k - m] + h0 * slope[k]);
    }
    d[0] = h = x[2] - x[1];
    du[0] = e = x[2] - x[0];
    for (j = 0; j < m; j++)
        b[j] = ((x[1] - x[0] + 2 * e) * h * slope[j] + sq0 * slope[m + j]) / e;
    d[p] = h = x[p - 1] - x[p - 2];
    dl[p - 1] = e = x[p] - x[p - 2];
    for (j = 0; j < m; j++)
        b[pm + j] = (sq1 * slope[pm - 2 * m + j]
                     + (2 * e + (x[p] - x[p - 1])) * h * slope[pm - m + j])
                    / e;
    if ((info = tridiag_solve(n, m, dl, d, du, b)) != 0) return info;
    for (i = 0; i < p; i++)
        for (h = x[i + 1] - x[i], k = i * m; k < i * m + m; k++) {
            const double s0 = b[k], t = (s0 + b[k + m] - 2 * slope[k]) / h;
            c[k] = t / h;
            slope[k] = (slope[k] - s0) / h - t;
        }
    for (k = 0; k < pm; k++) c[3 * pm + k] = y[k];
    return 0;
}

/* BesselCache's downward recurrence over the whole grid, order by order:
 * start[j] (ascending) is where point j joins, 1e-300 over a zero
 * j_(l+1); then j_(l-1) = ((2l+1) inv_x[j]) j_l - j_(l+1) down to order 0
 * for every point joined.  Row w of rows (stride apart, column 1 + j)
 * gets j_l at order want[w] (want descending); work holds 3 nx zeros;
 * j0u / j1u get the unnormalised j_0 / j_1.  tests/reference_projection.py
 * holds the python loop it transcribes; the two are pinned bitwise. */
void bessel_sweep(long long nx, const double *inv_x, const long long *start,
                  long long nwant, const long long *want, double *rows,
                  long long stride, double *work, double *j0u, double *j1u)
{
    double *above = work, *cur = work + nx, *below = work + 2 * nx, *t;
    long long j, l, w = 0, a = nx, joined;
    for (l = start[nx - 1]; l >= 0; l--) {
        for (joined = a; a > 0 && start[a - 1] >= l; a--)
            ;
        for (j = a; j < joined; j++) cur[j] = 1.0e-300;
        for (; w < nwant && want[w] > l; w++)
            ;
        if (w < nwant && want[w] == l) {
            for (j = a; j < nx; j++) rows[w * stride + 1 + j] = cur[j];
            w++;
        }
        if (l == 0) break;
        for (j = a; j < nx; j++)
            below[j] = inv_x[j] * (double)(2 * l + 1) * cur[j] - above[j];
        t = above; above = cur; cur = below; below = t;
    }
    for (j = 0; j < nx; j++) {
        j0u[j] = cur[j];
        j1u[j] = above[j];
    }
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


def _digest(cc: str) -> str:
    """The object's address: its source, flags and compiler ``cc``."""
    key = "\0".join((C_SOURCE, *CFLAGS, cc))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


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
    digest = _digest(cc)
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
    rows, work, out) -> status``, ``handoff_raw(*table, y, par)``,
    ``record_raw(*table, rows, m, n_tight, par, rec, stride)``,
    ``momentum_raw(*table, rows, m, out)`` and
    ``evolve_raw(*table, tab, s, ctl, stops, cnt, max_steps, y, rows,
    par, rec, work, out) -> status`` where ``table`` is the system's
    eight-pointer table (``PerturbationSystem.pack()["table"]``, built
    once), ``pairwise_raw(a, n) -> float``, ``nu_raw(n, x, nq, q, wq2,
    wq4, f0, rho, p, drho, row)`` (``nu_integrals``) and
    ``uniform_raw(m, x, x0, dx, n, coef, y)`` (``uniform_cubic``).
    ctypes releases the
    GIL around each call and the C side keeps no static state, so
    threads may call concurrently.  ``thermo_rhs_raw(params, nu_pack,
    lna, x_h, t_b, out)``, ``thermo_ode_raw(params, nu_pack, tab, grid,
    n, max_attempts, rows, out) -> status``, ``saha_raw(n, s_h, s_he1,
    s_he2, f_he, cap, out) -> sweeps``, ``tridiag_raw(n, nrhs, dl, d,
    du, b) -> info``, ``fit_raw(n, m, x, y, sq0, sq1, c, work) -> info``
    and ``bessel_raw(nx, inv_x, start, nwant, want, rows, stride, work,
    j0u, j1u)`` are the C functions ``thermo_rhs``, ``thermo_ode``,
    ``saha_sweeps``, ``tridiag_solve``, ``cubic_fit`` and
    ``bessel_sweep``.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_longlong, ctypes.c_double
        self.rhs_raw = lib.rhs_full
        self.rhs_tca_raw = lib.rhs_tca
        for fn in (self.rhs_raw, self.rhs_tca_raw):
            fn.argtypes = [ptr] * 8 + [ctypes.c_double, ptr, ptr]
            fn.restype = None
        self.integrate_raw = lib.integrate_phase
        self.integrate_raw.argtypes = ([ptr] * 8 + [i64, ptr, i64, ptr, ptr,
                                                    i64, ptr, ptr, ptr, ptr])
        self.integrate_raw.restype = i64
        self.evolve_raw = lib.evolve_mode
        self.evolve_raw.argtypes = ([ptr] * 8 + [ptr, i64, ptr, ptr, ptr, i64]
                                    + [ptr] * 6)
        self.evolve_raw.restype = i64
        self.handoff_raw = lib.tca_handoff
        self.handoff_raw.argtypes = [ptr] * 10
        self.handoff_raw.restype = None
        self.record_raw = lib.record_pass
        self.record_raw.argtypes = [ptr] * 9 + [i64, i64] + [ptr] * 2 + [i64]
        self.record_raw.restype = None
        self.momentum_raw = lib.momentum_rows
        self.momentum_raw.argtypes = [ptr] * 9 + [i64, ptr]
        self.momentum_raw.restype = None
        self.nu_raw = lib.nu_integrals
        self.nu_raw.argtypes = [i64, ptr, i64] + [ptr] * 8
        self.nu_raw.restype = None
        self.uniform_raw = lib.uniform_cubic
        self.uniform_raw.argtypes = [i64, ptr, f64, f64, i64, ptr, ptr]
        self.uniform_raw.restype = None
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
        self.saha_raw = lib.saha_sweeps
        self.saha_raw.argtypes = [i64, ptr, ptr, ptr, f64, i64, ptr]
        self.fit_raw = lib.cubic_fit
        self.fit_raw.argtypes = [i64, i64, ptr, ptr, f64, f64, ptr, ptr]
        self.saha_raw.restype = self.fit_raw.restype = i64
        self.bessel_raw = lib.bessel_sweep
        self.bessel_raw.argtypes = [i64, ptr, ptr, i64, ptr, ptr, i64, ptr,
                                    ptr, ptr]
        self.bessel_raw.restype = None

    def __call__(self, ints, flts, th_c, adv_lo, adv_hi, nu_pack, mnu_pack,
                 rf_c, tau, y, dy, tight=False) -> None:
        fn = self.rhs_tca_raw if tight else self.rhs_raw
        fn(*(a.ctypes.data for a in (ints, flts, th_c, adv_lo, adv_hi,
                                     nu_pack, mnu_pack, rf_c)),
           tau, y.ctypes.data, dy.ctypes.data)


def get_cext() -> CextKernel:
    """The compiled object, built or loaded on first use (~3 s to
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
