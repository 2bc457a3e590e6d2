"""The tolerance-budget registry: every rtol/atol the verify suite asserts.

One place declares every numerical threshold the Einstein-constraint
verification subsystem (and the tests that ride on it) is allowed to
use, each with a provenance note saying where the number comes from.
This is the COSMICS discipline made explicit: an accuracy claim is only
as good as the budget it was checked against, so the budget itself is
reviewable, versioned data — not constants scattered through call
sites.

Conventions
-----------
* ``atol`` budgets bound a *dimensionless residual* (already normalized
  by the largest term entering the identity), so "atol" is itself a
  relative number.  A residual check passes when
  ``measured <= atol``.
* ``rtol``/``atol`` pairs bound an elementwise comparison in the
  ``np.allclose`` sense: ``|a - b| <= atol + rtol * |b|``.

Use :func:`budget` to fetch an entry (unknown keys raise — a typo in a
tolerance name must never silently pass) and the methods on
:class:`Tolerance` to apply it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError

__all__ = ["Tolerance", "TOLERANCES", "budget"]


@dataclass(frozen=True)
class Tolerance:
    """One named entry of the tolerance budget."""

    key: str
    rtol: float = 0.0
    atol: float = 0.0
    provenance: str = ""

    def admits(self, residual: float) -> bool:
        """True when a (normalized) residual is within budget."""
        if np.isnan(residual):
            return False
        return abs(float(residual)) <= self.atol

    def allclose(self, a, b) -> bool:
        """Elementwise comparison under this budget."""
        return bool(np.allclose(np.asarray(a, dtype=float),
                                np.asarray(b, dtype=float),
                                rtol=self.rtol, atol=self.atol))

    def max_rel_deviation(self, a, b) -> float:
        """max |a - b| / max(|b|, atol-floor) — the measured number a
        report shows next to this budget's threshold."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        scale = np.maximum(np.abs(b), self.atol if self.atol > 0 else 1e-300)
        return float(np.max(np.abs(a - b) / scale))


#: The registry.  Keys are grouped by subsystem:
#: ``constraint.*`` — runtime per-term Einstein invariants,
#: ``quality.*``    — record-level integration-quality checks,
#: ``oracle.*``     — differential oracles (paths, gauges),
#: ``analytic.*``   — closed-form-limit oracles,
#: ``test.*``       — satellite regression tests that borrow a budget.
TOLERANCES: dict[str, Tolerance] = {
    t.key: t
    for t in [
        # -- runtime constraint monitors (per-term, full-state) -----------
        Tolerance(
            "constraint.pressure_evolution", atol=1e-8,
            provenance=(
                "MB95 eq. 21c rebuilt per-term from the coded RHS (with the "
                "documented omega_k closure term); analytically zero by the "
                "Bianchi identity, so the residual is float64 cancellation "
                "noise — measured ~1e-10 on the golden CDM config.  1e-8 "
                "leaves ~100x margin while catching any mistyped "
                "continuity/pressure coefficient, which shifts it to O(1).  "
                "Applies to nq = 0 runs: with massive neutrinos the monitor "
                "measures the *genuine* momentum-quadrature truncation "
                "(2.4e-2 at nq=4, 3.2e-4 at nq=8, 6e-6 at nq=16 on MDM), "
                "which is a diagnostic, not a pass/fail gate."
            ),
        ),
        Tolerance(
            "constraint.shear_evolution", atol=1e-8,
            provenance=(
                "MB95 eq. 21d rebuilt per-term from the coded Euler/dipole "
                "equations and the shear sum; same Bianchi argument and "
                "measured floor (~1e-10, nq = 0) as "
                "constraint.pressure_evolution."
            ),
        ),
        Tolerance(
            "constraint.thomson_exchange", atol=1e-8,
            provenance=(
                "Thomson momentum transfer extracted from the coded "
                "photon-dipole and baryon-Euler scattering terms must cancel "
                "in the (rho+p)-weighted sum (elastic scattering conserves "
                "momentum); exact in infinite precision, measured ~2e-10 "
                "(the extraction subtracts nearly-equal advection terms "
                "once kappa' is tiny, which sets the float floor)."
            ),
        ),
        Tolerance(
            "constraint.truncation_photon", atol=0.05,
            provenance=(
                "|F_lmax| / max|F_{0..2}| through the source era "
                "(tau <= 2.2 tau_rec): the hierarchy populates the cutoff "
                "only once k tau ~ lmax, so on the golden grid "
                "(k <= 0.03, lmax = 24) this is ~6e-10, and a few 1e-3 at "
                "the FIG2 production settings (k ~ 0.2, lmax = 10); a "
                "reflecting truncation bug drives it to O(1)."
            ),
        ),
        Tolerance(
            "constraint.truncation_polarization", atol=0.3,
            provenance=(
                "|G_lmax| / max|G_{0..2}| through the source era; the "
                "polarization hierarchy is sourced only at l <= 2, so a "
                "looser bound; measured ~5e-8 on the golden grid and "
                "<~0.1 at the FIG2 settings."
            ),
        ),
        # -- record-level integration quality -----------------------------
        Tolerance(
            "quality.eta_consistency", atol=0.03,
            provenance=(
                "Numerical d(eta)/dtau from a cubic spline of the recorded "
                "eta vs the recorded algebraic etadot, interior points of "
                "the uniform recombination window; dominated by spline "
                "differentiation error on the record grid (matches the "
                "long-standing bound in tests/test_equation_consistency.py)."
            ),
        ),
        Tolerance(
            "quality.alpha_consistency", atol=0.03,
            provenance=(
                "Same check for alpha vs the algebraic alpha_dot "
                "(= MB95 eq. 21d in disguise, see gauges.py)."
            ),
        ),
        # -- differential oracles ------------------------------------------
        Tolerance(
            "oracle.paths_batched", rtol=1e-8, atol=1e-12,
            provenance=(
                "Serial vs chunked on identical modes (one mode per "
                "operator assembly vs four): since PR 19 every mode "
                "steps on its own, so the check is lane addressing in a "
                "shared operator and measures 0.0; the golden suite pins "
                "batch_size in {1,4} at rtol 1e-8, and the budget stays "
                "where PR 2's acceptance criterion fixed it, 1e-8."
            ),
        ),
        Tolerance(
            "oracle.paths_plinger", rtol=1e-8, atol=1e-12,
            provenance=(
                "Serial vs PLINGER (master/worker) on identical modes: the "
                "wire ships full float64 records, so agreement is bitwise "
                "in practice; 1e-8 per the acceptance criterion."
            ),
        ),
        Tolerance(
            "oracle.gauge_potentials", atol=0.01,
            provenance=(
                "Synchronous vs conformal-Newtonian phi/psi at k=0.05/Mpc, "
                "rtol 1e-5 integrations: two independent codes agree to "
                "0.1-1% (dominated by the different tight-coupling "
                "closures); matches tests/test_gauge_equivalence.py."
            ),
        ),
        Tolerance(
            "oracle.gauge_multipoles", atol=5e-3,
            provenance=(
                "Gauge-invariant photon multipoles F_l (2 <= l <= 8) "
                "between the two gauges, relative to max|F_l|; "
                "matches tests/test_gauge_equivalence.py."
            ),
        ),
        Tolerance(
            "oracle.sparse_cl", rtol=6e-2, atol=0.0,
            provenance=(
                "Dense vs sparse-k (factor 2) line-of-sight C_l on the "
                "8-point geomspace verify grid, both legs sharing one set "
                "of integrations so only the k-spline error enters; "
                "measured ~3e-2 there (the verify grid is deliberately "
                "tiny, so dropping every other node doubles an already "
                "huge log-spacing).  Budget 6e-2 gives ~2x headroom while "
                "still catching any structural fast-path bug (row "
                "misalignment, wrong zero-fill era, gauge-term mix-up), "
                "which shifts it to O(1).  Production accuracy is pinned "
                "separately: test.sparse_fig2 bounds the FIG2 uniform "
                "grid at 1e-3."
            ),
        ),
        Tolerance(
            "oracle.rhs_kernel", rtol=1e-10, atol=0.0,
            provenance=(
                "One monitored mode's recorded states through lane 1 of "
                "a three-lane operator against a one-lane operator, both "
                "on the compiled RHS, worst max|dy - dy_ref| normalized "
                "by max|dy_ref|; and the whole mode stepped by the "
                "python DVERK over that RHS against the compiled loop, "
                "every record and the final state.  Both legs are "
                "bitwise (same coefficient rows, one arithmetic "
                "contract — measured 0.0).  1e-10 is the budget the "
                "compiled kernel was admitted under against the python "
                "reference kernel (built without -ffast-math, sharing "
                "libm: a few ulps with massive neutrinos, "
                "tests/test_rhs_operator.py); it instantly catches any "
                "dropped coupling or reassociated expression, which "
                "shifts the residual to >=1e-6 at these state "
                "magnitudes."
            ),
        ),
        Tolerance(
            "oracle.batch_invariance", rtol=sys.float_info.min, atol=0.0,
            provenance=(
                "Exact: the budget is the smallest positive normal double "
                "(every registry entry must be positive), which admits 0.0 "
                "and nothing a comparison of two C_l can produce (>= 1e-17 "
                "relative, or inf).  "
                "One 5-mode hierarchy grid (nq=0) integrated one mode at "
                "a time, then again with batch_size in {1, 2, 5}, as one "
                "5-lane chunk in reversed lane order and by PLINGER at "
                "nproc in {2, 3}; every "
                "ModeHeader/ModePayload field but cpu_seconds and the "
                "hierarchy C_l compared as bytes.  Zero is the claim, not a "
                "measurement with headroom: the step loop's arithmetic "
                "contract (DESIGN.md) fixes the order of every sum, so no "
                "execution knob can move a bit; any non-zero value means a "
                "reduction whose order depends on the chunk (a gemv over "
                "lanes, an einsum) came back.  NaN — an automatic failure — "
                "when the legs evaluated nothing in compiled code."
            ),
        ),
        Tolerance(
            "oracle.chaos_degradation", rtol=1e-8, atol=1e-12,
            provenance=(
                "One short PLINGER spectrum run fault-free and again "
                "under a fixed-seed ChaosPolicy hitting all three fault "
                "surfaces (corrupted cache-store entry, stale .so + "
                "injected compile failure + NaN-poisoned compiled "
                "phase, forced integrator step collapse), worst |cl - cl_ref| / max|cl_ref|.  Every "
                "recovery path is bit-preserving by construction: the "
                "quarantined cache entry rebuilds deterministically, and "
                "the poisoned and the collapsed mode each fail one "
                "attempt and retry at the same config; measured 0.0.  "
                "1e-8 catches any recovery that actually loses or "
                "perturbs work (which lands at the integrator "
                "tolerance, >=1e-4).  The measured value is NaN — an "
                "automatic failure — when any surface recorded zero "
                "degradation events, so the check cannot pass vacuously."
            ),
        ),
        Tolerance(
            "oracle.serve_result", rtol=1e-12, atol=0.0,
            provenance=(
                "The spectrum service's three-tier identity: one request "
                "computed cold by serial LINGER, computed through the "
                "warm pool (run_plinger on tables kept in its LRU), and "
                "replayed from the content-addressed run-result store "
                "through its npz round trip, worst |cl - cl_ref| / "
                "max|cl_ref| across tiers.  Agreement is bitwise by "
                "construction — the pool runs the PLINGER wire protocol "
                "whose serial equality oracle.paths_plinger pins, the "
                "product arithmetic is the same float64 code on the same "
                "records, and the store persists float64 arrays exactly "
                "(measured 0.0).  1e-12 (vs the golden 1e-8) encodes the "
                "stronger claim: a cache tier that returns anything but "
                "the computed spectrum is a correctness bug, not a "
                "tolerance question.  The measured value is NaN — an "
                "automatic failure — if the second pool run was not "
                "actually warm or the store replay missed, so the check "
                "cannot pass without exercising all three tiers."
            ),
        ),
        Tolerance(
            "oracle.sockets_world", rtol=1e-8, atol=1e-12,
            provenance=(
                "One small spectrum integrated serially and three times "
                "over the TCP-sockets world on localhost (real OS "
                "processes, real sockets): a clean run, a run with a "
                "rank joining mid-flight through the elastic-admission "
                "path, and a run whose highest rank is SIGKILLed and "
                "quarantined, worst |cl - cl_ref| / max|cl_ref| across "
                "legs.  The clean leg is bitwise by construction — the "
                "frame codec ships the identical little-endian float64 "
                "buffers that oracle.paths_plinger already pins — and "
                "the elastic legs recompute reassigned modes through "
                "the same integrator at the same config (measured 0.0 "
                "on all three).  1e-8 is the golden-regression budget; "
                "any transport bug (truncated frame, misrouted payload, "
                "double-delivered mode) lands at O(1) or trips the "
                "wire-level checks first.  The measured value is NaN — "
                "an automatic failure — when a leg's tripwire fails: "
                "fewer than two distinct worker pids (not actually "
                "multi-process), zero bytes on the wire, no rank "
                "admitted on the join leg, or no rank quarantined on "
                "the kill leg."
            ),
        ),
        # -- analytic-limit oracles ----------------------------------------
        Tolerance(
            "analytic.superhorizon_eta", atol=0.02,
            provenance=(
                "Super-horizon growing mode: eta is conserved up to "
                "O((k tau)^2) corrections; checked while k tau < 0.3, so "
                "the physical drift bound is ~(0.3)^2/... ~ 1%; 2% budget."
            ),
        ),
        Tolerance(
            "analytic.adiabatic_ratios", atol=0.02,
            provenance=(
                "Adiabatic mode while k tau < 0.3: delta_b = (3/4) "
                "delta_g, delta_c = (3/4) delta_g, delta_nu = delta_g up "
                "to O((k tau)^2) growing-mode corrections."
            ),
        ),
        Tolerance(
            "analytic.acoustic_phase", atol=0.1,
            provenance=(
                "Tight-coupling acoustic oscillation: the phase advance "
                "k * integral(cs dtau) between consecutive zero crossings "
                "of the detrended delta_g must be pi; the WKB + detrending "
                "approximation is good to a few percent, budget 10%."
            ),
        ),
        Tolerance(
            "analytic.matter_growth", atol=0.05,
            provenance=(
                "Matter-era growing mode D(a) ~ a (Omega=1 SCDM): the "
                "log-log slope of delta_c(a) over a in [0.05, 0.8] for a "
                "sub-horizon mode is 1 up to residual-radiation and "
                "late-decaying-mode corrections of a few percent."
            ),
        ),
        Tolerance(
            "analytic.sachs_wolfe", atol=0.25,
            provenance=(
                "Sachs-Wolfe plateau level: (delta_g/4 + psi) at tau_rec "
                "-> psi/3 for k tau_rec -> 0 in matter domination; SCDM "
                "recombination is only ~5 a_eq so early-ISW/radiation "
                "corrections are O(10-20%) (Hu & Sugiyama 1995), "
                "budget 25%."
            ),
        ),
        # -- satellite regression tests ------------------------------------
        Tolerance(
            "test.polarization_truncation", rtol=5e-3, atol=1e-12,
            provenance=(
                "evolve_mode at lmax=10 vs lmax=24: source-era records "
                "(delta_g, theta_g, sigma_g, pi through tau <= 2 tau_rec) "
                "must agree — truncation reflection needs ~(lmax/k) of "
                "free-streaming to propagate back to l <= 2, so the "
                "source era is converged at sub-percent level."
            ),
        ),
        Tolerance(
            "test.sparse_fig2", rtol=1e-3, atol=0.0,
            provenance=(
                "Sparse-k C_l vs the dense (factor-1) reference on the "
                "FIG2 quadrature grid (uniform cl_kgrid to l=600 at 8 "
                "points per period, ~1030 modes): the issue's acceptance "
                "criterion — at least 4x fewer integrated modes at "
                "<= 1e-3 relative C_l error.  Measured 2.3e-5 at factor "
                "4 (4.0x) and 7.3e-4 at factor 10 (9.8x); the residual "
                "peaks at l <= 3, where the coarse grid thins the few "
                "nodes under the large-scale integrand support (the "
                "k-spline error scales as (factor * dk)^4 once the "
                "acoustic structure is resolved).  Enforced by "
                "benchmarks/bench_table_sparse.py and the convergence "
                "suite in tests/test_sparse.py."
            ),
        ),
        Tolerance(
            "test.golden_regression", rtol=1e-8,
            provenance=(
                "The frozen golden snapshots (tests/data/golden_*.json): "
                "well above float64 noise, far below any physics change. "
                "tests/test_golden_regression.py deliberately freezes its "
                "own copy of this number — keep the two in sync."
            ),
        ),
    ]
}


def budget(key: str) -> Tolerance:
    """Look up a tolerance-budget entry; unknown keys raise loudly."""
    try:
        return TOLERANCES[key]
    except KeyError:
        raise ParameterError(
            f"unknown tolerance-budget key {key!r}; declared keys: "
            f"{sorted(TOLERANCES)}"
        ) from None
