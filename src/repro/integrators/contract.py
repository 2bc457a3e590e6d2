"""The step loop's arithmetic contract (DESIGN.md, "Arithmetic contract").

Both implementations of the adaptive Runge-Kutta loop in this package —
:class:`~repro.integrators.dverk.RKDriver` and the C ``integrate_phase``
in ``repro._cext`` — evaluate the same floating-point
expressions in the same order, so their results are bitwise equal, not
merely close:

1. a tableau contraction ``sum_j w[j] * k[j]`` is accumulated **left to
   right in j**, one rounded multiply and one rounded add per term, with
   structurally-zero weights skipped, a whole row ``k[j]`` at a time
   (elementwise, so any vector width gives the same bits).  No BLAS:
   the summation order of ``w @ k`` belongs to whichever gemv kernel the
   BLAS build selects and changes with the shape of ``k``;
2. the error norm is ``sqrt(S / n)`` with ``S`` numpy's pairwise sum of
   the squared scaled errors — ``np.add.reduce`` here, transcribed in
   C (n < 8 linear; n <= 128 eight strided accumulators; else split at
   ``n/2 - (n/2) % 8``);
3. the step controller's factor is one libm ``pow`` on scalars, never
   an array power;
4. compiled code is built ``-ffp-contract=off`` and never
   ``-ffast-math``: no fused multiply-add, no reassociation;
5. a ``stiff_rate`` bounds the step by
   ``STABILITY_FRACTION * real_stability / lam`` — that product, then one
   division — and ``h = min(h, max_step, bound, next_stop - t)`` in that
   order; C forms ``lam`` from the doubles and the expression
   ``PerturbationSystem.thomson_rate`` uses.

The helpers below are the python side of rules 1 and 2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ordered_weighted_sum", "rms"]


def ordered_weighted_sum(weights: np.ndarray, terms: tuple[int, ...],
                         k: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``sum_j weights[j] * k[j]`` over ``terms``, left to right (rule 1).

    ``terms`` are the non-zero weights' indices, ascending (see
    ``ButcherTableau.contraction_terms``).  ``weights`` is a column
    broadcasting against the ``(s, n)`` stage buffer ``k``; ``scratch``
    is a buffer of ``k``'s shape holding the products.  Returns a new
    array of ``k[0]``'s shape.
    """
    m = terms[-1] + 1
    prod = np.multiply(k[:m], weights[:m], out=scratch[:m])
    if len(terms) == 1:
        return prod[terms[0]].copy()
    acc = prod[terms[0]] + prod[terms[1]]
    for j in terms[2:]:
        acc += prod[j]
    return acc


def rms(ratio: np.ndarray) -> float:
    """Root mean square of a 1-d array through the pairwise sum (rule 2)."""
    return math.sqrt(np.add.reduce(ratio * ratio) / ratio.size)
