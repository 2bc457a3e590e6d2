"""The thermal history's solve in plain python (frozen reference).

:func:`rhs` is the (x_H, T_b) right-hand side and :func:`integrate` the
three-stage Radau IIA stepper that the compiled ``thermo_rhs`` and
``thermo_ode`` of ``repro._cext`` transcribe, grouping for grouping and
expression for expression under the arithmetic contract: the same
doubles at every step.  :func:`saha_sweeps` is the Saha grid pass as
numpy vector sweeps, which the compiled ``saha_sweeps`` runs row by
row to the same doubles and the same sweep count.  Until the compiled object became the one
engine they were the package's own path in a process without a C
compiler; now they are what ``tests/test_thermo.py`` and
``tests/test_rhs_operator.py`` hold the compiled solve to, bitwise, and
what scipy's LSODA is run over as the accuracy oracle.  Do not "fix"
this file to suit the C: the python is the contract.
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants as const
from repro.errors import IntegrationError
from repro.thermo import (
    peebles_rhs,
    radau,
    recombination,
    saha_electron_fraction,
)
from repro.thermo.recombination import _saha_factor

__all__ = ["rhs", "integrate", "saha_sweeps"]

_NEWTON_MAXITER = 6


def rhs(history, lna: float, x_h: float, t_b: float) -> tuple[float, float]:
    """ODE right-hand side in ln a for (x_H, T_b) of a
    :class:`~repro.thermo.ThermalHistory`: scalar python arithmetic
    throughout, one state at a time."""
    a = math.exp(lna)
    t_b = max(t_b, 1e-3)
    # proper Hubble rate in s^-1
    h_s = history.background.hubble(a) * const.C_LIGHT / const.MPC_CM
    n_h = history._n_h0 / a**3
    # helium electrons from Saha at the current temperature
    _, _, x_he2, x_he3 = saha_electron_fraction(t_b, n_h, history.f_he)
    x_e = min(max(x_h, 0.0), 1.0) + history.f_he * (x_he2 + 2.0 * x_he3)
    n_e = max(x_e, 1e-12) * n_h

    dxh_dt = peebles_rhs(x_h, t_b, n_h, n_e, h_s)

    # Baryon temperature: adiabatic cooling + Compton heating
    t_g = history.params.t_cmb / a
    compton_prefac = (
        8.0
        * const.SIGMA_THOMSON
        * const.A_RAD
        * t_g**4
        / (3.0 * const.M_ELECTRON * const.C_LIGHT)
    )  # s^-1, multiplies x_e/(1+f_He+x_e) (T_g - T_b)
    dtb_dt = -2.0 * h_s * t_b + compton_prefac * x_e / (
        1.0 + history.f_he + x_e
    ) * (t_g - t_b)

    return dxh_dt / h_s, dtb_dt / h_s


def _max(a: float, b: float) -> float:
    """The C twin's ``py_max``: the first unless the second is strictly
    beyond it (so the first also when either is a NaN)."""
    return b if b > a else a


def integrate(rhs, grid: np.ndarray, rows: np.ndarray):
    """Integrate ``d(x_H, T_b)/d ln a = rhs(ln a, x_H, T_b)`` from
    ``grid[0]`` to ``grid[-1]``, writing the state at every grid point
    into ``rows`` (``(len(grid), 2)``; row 0 holds the start on entry).

    Returns ``(status, n_rhs, n_steps, n_rejected)``; status 0 is
    success, 1 a step that no longer advances ``ln a``, 2
    ``radau.MAX_ATTEMPTS`` reached.
    """
    c1, c2 = radau.TABLE[:2].tolist()
    nodes = (c1, c2, 1.0)
    ai = radau.TABLE[2:11].tolist()
    e0, e1, e2, mu = radau.TABLE[11:15].tolist()
    p = radau.TABLE[15:24].tolist()
    rtol, atol0, atol1, newton_tol = radau.TABLE[24:28].tolist()
    grid = grid.tolist()
    n = len(grid)
    t, t_end = grid[0], grid[n - 1]
    y0, y1 = rows[0].tolist()
    h = grid[1] - grid[0]
    f0, f1 = rhs(t, y0, y1)
    n_rhs = 1
    n_steps = n_rejected = 0
    irow = 1
    need_jac = True
    have_q = False
    j00 = j01 = j10 = j11 = 0.0
    q00 = q01 = q02 = q10 = q11 = q12 = qy0 = qy1 = qt = qh = 0.0
    m = [[0.0] * 6 for _ in range(6)]
    piv = [0] * 6
    z = [0.0] * 6
    f = [0.0] * 6
    b = [0.0] * 6

    while irow < n:
        if n_steps + n_rejected >= radau.MAX_ATTEMPTS:
            return 2, n_rhs, n_steps, n_rejected
        if need_jac:
            # forward differences of the same function, one column each
            d = 1.5e-8 * _max(abs(y0), 1e-3)
            g0, g1 = rhs(t, y0 + d, y1)
            j00 = (g0 - f0) / d
            j10 = (g1 - f1) / d
            d = 1.5e-8 * _max(abs(y1), 1e-3)
            g0, g1 = rhs(t, y0, y1 + d)
            j01 = (g0 - f0) / d
            j11 = (g1 - f1) / d
            n_rhs += 2
            need_jac = False
        last = t + h >= t_end
        if last:
            h = t_end - t
        if t + h == t:
            return 1, n_rhs, n_steps, n_rejected

        # A^-1/h (x) I - I (x) J, then Gaussian elimination, row pivoting
        for i in range(3):
            ra, rb = m[2 * i], m[2 * i + 1]
            for j in range(3):
                v = ai[3 * i + j] / h
                ra[2 * j] = v
                ra[2 * j + 1] = 0.0
                rb[2 * j] = 0.0
                rb[2 * j + 1] = v
            ra[2 * i] -= j00
            ra[2 * i + 1] -= j01
            rb[2 * i] -= j10
            rb[2 * i + 1] -= j11
        singular = False
        for c in range(6):
            r_big = c
            big = abs(m[c][c])
            for r in range(c + 1, 6):
                if abs(m[r][c]) > big:
                    big = abs(m[r][c])
                    r_big = r
            piv[c] = r_big
            if r_big != c:
                m[c], m[r_big] = m[r_big], m[c]
            rc = m[c]
            if rc[c] == 0.0:
                singular = True
                break
            for r in range(c + 1, 6):
                rr = m[r]
                mult = rr[c] / rc[c]
                rr[c] = mult
                for k in range(c + 1, 6):
                    rr[k] -= mult * rc[k]

        # stage increments Z_i = Y_i - y: start on the previous step's
        # collocation polynomial, extrapolated
        for i in range(3):
            if have_q:
                s = (t + nodes[i] * h - qt) / qh
                z[2 * i] = qy0 + ((q02 * s + q01) * s + q00) * s - y0
                z[2 * i + 1] = qy1 + ((q12 * s + q11) * s + q10) * s - y1
            else:
                z[2 * i] = z[2 * i + 1] = 0.0
        sc0 = atol0 + rtol * abs(y0)
        sc1 = atol1 + rtol * abs(y1)
        converged = False
        dz_old = rate = 0.0
        n_iter = 0
        while not singular and n_iter < _NEWTON_MAXITER:
            finite = True
            for i in range(3):
                f[2 * i], f[2 * i + 1] = rhs(
                    t + nodes[i] * h, y0 + z[2 * i], y1 + z[2 * i + 1])
                if not (math.isfinite(f[2 * i])
                        and math.isfinite(f[2 * i + 1])):
                    finite = False
            n_rhs += 3
            if not finite:
                break
            for i in range(3):
                for k in range(2):
                    b[2 * i + k] = f[2 * i + k] - (
                        ai[3 * i] * z[k] + ai[3 * i + 1] * z[2 + k]
                        + ai[3 * i + 2] * z[4 + k]) / h
            for c in range(6):
                if piv[c] != c:
                    b[c], b[piv[c]] = b[piv[c]], b[c]
            for c in range(6):
                for r in range(c + 1, 6):
                    b[r] -= m[r][c] * b[c]
            for c in range(5, -1, -1):
                rc = m[c]
                acc = b[c]
                for k in range(c + 1, 6):
                    acc -= rc[k] * b[k]
                b[c] = acc / rc[c]
            acc = 0.0
            for i in range(3):
                v = b[2 * i] / sc0
                acc += v * v
                v = b[2 * i + 1] / sc1
                acc += v * v
            dz = math.sqrt(acc / 6.0)
            if n_iter > 0:
                rate = dz / dz_old
                if (rate >= 1.0 or rate ** (_NEWTON_MAXITER - n_iter)
                        / (1.0 - rate) * dz > newton_tol):
                    break
            for k in range(6):
                z[k] += b[k]
            n_iter += 1
            if dz == 0.0 or (n_iter > 1
                             and rate / (1.0 - rate) * dz < newton_tol):
                converged = True
                break
            dz_old = dz
        if not converged:
            h *= 0.5
            n_rejected += 1
            continue

        # RADAU5's error estimate, filtered through (mu/h - J)^-1
        a00 = mu / h - j00
        a11 = mu / h - j11
        det = a00 * a11 - j01 * j10
        r0 = f0 + (e0 * z[0] + e1 * z[2] + e2 * z[4]) / h
        r1 = f1 + (e0 * z[1] + e1 * z[3] + e2 * z[5]) / h
        err = math.inf
        if det != 0.0:
            v0 = (r0 * a11 + j01 * r1) / det / (
                atol0 + rtol * _max(abs(y0), abs(y0 + z[4])))
            v1 = (a00 * r1 + j10 * r0) / det / (
                atol1 + rtol * _max(abs(y1), abs(y1 + z[5])))
            err = math.sqrt((v0 * v0 + v1 * v1) / 2.0)
        fac = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
        fac = 10.0 if err == 0.0 else fac * err ** -0.25
        if not err <= 1.0:
            h *= _max(0.2, fac)
            n_rejected += 1
            continue

        # accepted: the collocation polynomial through 0, Z1, Z2, Z3 is
        # the dense output, and the next step's Newton start
        q00 = z[0] * p[0] + z[2] * p[3] + z[4] * p[6]
        q01 = z[0] * p[1] + z[2] * p[4] + z[4] * p[7]
        q02 = z[0] * p[2] + z[2] * p[5] + z[4] * p[8]
        q10 = z[1] * p[0] + z[3] * p[3] + z[5] * p[6]
        q11 = z[1] * p[1] + z[3] * p[4] + z[5] * p[7]
        q12 = z[1] * p[2] + z[3] * p[5] + z[5] * p[8]
        t_new = t_end if last else t + h
        while irow < n and grid[irow] <= t_new:
            s = (grid[irow] - t) / h
            rows[irow, 0] = y0 + ((q02 * s + q01) * s + q00) * s
            rows[irow, 1] = y1 + ((q12 * s + q11) * s + q10) * s
            irow += 1
        qy0, qy1, qt, qh = y0, y1, t, h
        have_q = True
        t = t_new
        y0 += z[4]
        y1 += z[5]
        f0, f1 = rhs(t, y0, y1)
        n_rhs += 1
        n_steps += 1
        h *= fac if fac < 10.0 else 10.0
        need_jac = True
    return 0, n_rhs, n_steps, n_rejected


def saha_sweeps(
    t_kelvin: np.ndarray, n_h_cgs: np.ndarray, f_he: float,
    s_h: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`~repro.thermo.saha_electron_fraction` over arrays of
    epochs at once, ``recombination._saha_sweeps``' signature and
    result.

    The same residual, start, bracket and stop, with every point still
    iterating advanced by one Newton step per sweep; a point leaves the
    sweep the moment its own step passes the stop, so it ends on the
    iterate the scalar solver ends on (and on the same one whichever
    other points share its sweeps).  Returns the four fractions and the
    number of sweeps the slowest point needed.
    """
    cap = recombination._SAHA_MAX_ITER
    out = np.zeros((4, t_kelvin.size))  # underflowed points stay neutral
    if s_h is None:
        s_h = _saha_factor(t_kelvin, const.E_ION_H) / n_h_cgs
    live = np.flatnonzero(s_h > 0.0)
    t_kelvin, n_h_cgs, s_h = t_kelvin[live], n_h_cgs[live], s_h[live]
    s_he1 = 4.0 * _saha_factor(t_kelvin, const.E_ION_HE1) / n_h_cgs
    s_he2 = 1.0 * _saha_factor(t_kelvin, const.E_ION_HE2) / n_h_cgs
    lo = 2.0 * s_h / (s_h + np.sqrt(s_h * s_h + 4.0 * s_h))
    hi = np.full_like(lo, 1.0 + 2.0 * f_he)
    x_e = lo
    for sweep in range(1, cap + 1):
        g, dg, *fractions = recombination._saha_residual(
            x_e, s_h, s_he1, s_he2, f_he)
        rising = g > 0.0
        lo = np.where(rising, x_e, lo)
        hi = np.where(rising, hi, x_e)
        x_new = x_e - g / dg
        x_new = np.where((lo <= x_new) & (x_new <= hi), x_new,
                         np.sqrt(lo * hi))
        done = np.abs(x_new - x_e) < 1e-14 * x_e
        out[:, live[done]] = x_new[done], *(f[done] for f in fractions)
        if done.all():
            return *out, sweep
        go = ~done
        live, x_e, lo, hi = live[go], x_new[go], lo[go], hi[go]
        s_h, s_he1, s_he2 = s_h[go], s_he1[go], s_he2[go]
    raise IntegrationError(
        f"Saha equilibrium did not converge in {cap} sweeps "
        f"at {live.size} of {out.shape[1]} epochs (f_He = {f_he!r})"
    )
