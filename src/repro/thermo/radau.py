"""The thermal history's ODE stepper: three-stage Radau IIA for (x_H, T_b).

After the Saha/Peebles switch the ionization fraction and the baryon
temperature obey a stiff two-variable system in ``ln a`` (Compton
coupling holds T_b on T_gamma with a rate ~1e6 H, the Peebles rates hold
x_H near equilibrium with ~1e3 H), so the integrator is implicit: the
order-5, L-stable, stiffly accurate Radau IIA collocation method of
Hairer & Wanner's RADAU5, cut down to what two unknowns need —

* a fresh forward-difference Jacobian at every step (two evaluations);
* simplified Newton on the six stage unknowns, the 6x6 matrix
  ``A^-1/h (x) I - I (x) J`` factored once per attempt by Gaussian
  elimination with partial pivoting, started from the previous step's
  collocation polynomial;
* the RADAU5 error estimate ``(mu/h - J)^-1 (f0 + E.Z/h)``, a closed-form
  2x2 solve, and the elementary controller ``0.9 err^(-1/4)`` scaled by
  the Newton effort;
* output on the caller's grid by the step's own collocation polynomial.

The compiled ``thermo_ode`` (``repro._cext``) is the stepper;
``tests/reference_thermo.py`` holds its python transcription, expression
for expression under the arithmetic contract of
:mod:`repro.integrators.contract`, and the two are pinned bitwise.
Every constant the method reads is in :data:`TABLE`, formed here once by
python's own arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TABLE", "MAX_ATTEMPTS"]

_S6 = math.sqrt(6.0)
_RTOL = 1e-8

#: What the stepper reads besides the right-hand side, in the order the
#: compiled ``thermo_ode`` unpacks it: the inner collocation nodes; the
#: inverse of the Radau IIA matrix, by rows; the error weights and the
#: real eigenvalue of that inverse; the coefficients, stage by stage, of
#: the collocation polynomial's three powers; rtol, atol of x_H and of
#: T_b; the Newton tolerance (RADAU5's, in units of the error scale).
TABLE = np.array([
    (4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0,
    2.0 + _S6 / 2.0, -1.2 + 29.0 * _S6 / 30.0, 0.4 - 4.0 * _S6 / 15.0,
    -1.2 - 29.0 * _S6 / 30.0, 2.0 - _S6 / 2.0, 0.4 + 4.0 * _S6 / 15.0,
    -1.0 + 8.0 * _S6 / 3.0, -1.0 - 8.0 * _S6 / 3.0, 5.0,
    (-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0,
    3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0),
    13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0,
    10.0 / 3.0 + 5.0 * _S6,
    13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0,
    10.0 / 3.0 - 5.0 * _S6,
    1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0,
    _RTOL, 1e-12, 1e-8,
    max(10.0 * 2.220446049250313e-16 / _RTOL, min(0.03, _RTOL ** 0.5)),
])
TABLE.setflags(write=False)

#: attempts (accepted + rejected) before the solve gives up; a build
#: takes about 560
MAX_ATTEMPTS = 100_000

