"""The verification runner: one call, every check, one report.

:func:`verify_run` executes the whole Einstein-constraint verification
suite against one cosmology:

1. integrates the golden k-grid with per-mode constraint monitors
   attached and compares the worst residuals against the
   ``constraint.*`` budgets;
2. spline-differentiates the recorded metric histories against the
   recorded algebraic derivatives (``quality.*``);
3. evaluates every analytic-limit oracle on the recorded modes
   (``analytic.*``);
4. re-runs the grid in four-mode chunks and through PLINGER and
   compares the wire records against the serial reference
   (``oracle.paths_*``);
5. cross-checks the synchronous integration against the independent
   conformal-Newtonian code (``oracle.gauge_*``);
6. replays the recorded run through the sparse-k fast path and compares
   the line-of-sight C_l against the all-modes projection
   (``oracle.sparse_cl``);
7. replays one monitored mode's states of both phases through one
   lane of a three-lane operator against a one-lane operator, both on
   the compiled RHS, and the whole mode through the python driver
   against the compiled step loop (``oracle.rhs_kernel``);
8. re-runs a short PLINGER spectrum under a fixed-seed chaos policy
   that injects faults into the cache, compiled-kernel, and integrator
   layers, and requires the degraded run to reproduce the fault-free
   C_l with at least one recovery event per surface
   (``oracle.chaos_degradation``);
9. answers one spectrum request through all three serving tiers —
   cold serial, resident warm pool, and the run-result store's npz
   round trip — and requires bit-level C_l agreement
   (``oracle.serve_result``);
10. integrates one short grid under every chunk length, lane order and
    rank count and requires the wire records and C_l to be bit-for-bit
    one answer (``oracle.batch_invariance``).

Every check lands in a :class:`VerificationReport` as a
(measured, threshold, passed) triple keyed by its tolerance-budget
entry, so the report *is* the accuracy claim: nothing passes against a
number that is not in the registry.

``fast=True`` drops the most expensive legs (PLINGER, the gauge
cross-check, and the auxiliary acoustic mode) for quick local
iteration; CI runs the full suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import VerificationError
from ..util import format_table
from . import analytic
from .constraints import quality_residuals
from .oracles import (
    batch_invariance_oracle,
    chaos_degradation_oracle,
    gauge_oracle,
    paths_oracle,
    rhs_kernel_oracle,
    serve_result_oracle,
    sockets_world_oracle,
    sparse_cl_oracle,
)
from .tolerances import budget

__all__ = ["VerificationCheck", "VerificationReport", "verify_run"]

#: The frozen verification grid: spans super-horizon through
#: first-acoustic-peak scales on the SCDM background while staying
#: cheap enough for CI (the same span the golden regression pins).
GOLDEN_KGRID = (3e-4, 0.03, 8)

#: Auxiliary short-wavelength mode for the acoustic-phase oracle (the
#: golden grid tops out below the sound horizon scale).
ACOUSTIC_K = 0.15


@dataclass
class VerificationCheck:
    """One executed check: a measured number against a budget entry."""

    key: str            #: tolerance-registry key the check drew on
    name: str           #: human-readable check name
    measured: float     #: the measured deviation/residual
    threshold: float    #: the budget number it was compared against
    passed: bool
    detail: str = ""

    @classmethod
    def residual(cls, key: str, name: str, measured: float,
                 detail: str = "") -> "VerificationCheck":
        tol = budget(key)
        return cls(key=key, name=name, measured=float(measured),
                   threshold=tol.atol, passed=tol.admits(measured),
                   detail=detail)

    @classmethod
    def relative(cls, key: str, name: str, measured: float,
                 detail: str = "") -> "VerificationCheck":
        tol = budget(key)
        ok = (not np.isnan(measured)) and abs(float(measured)) <= tol.rtol
        return cls(key=key, name=name, measured=float(measured),
                   threshold=tol.rtol, passed=ok, detail=detail)


@dataclass
class VerificationReport:
    """Every check of one verification run, JSON-serializable."""

    model: str
    fast: bool
    checks: list[VerificationCheck] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[VerificationCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "fast": self.fast,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "checks": [asdict(c) for c in self.checks],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def format_table(self) -> str:
        rows = [
            [c.name, f"{c.measured:.3e}", f"{c.threshold:.3e}",
             "pass" if c.passed else "FAIL"]
            for c in self.checks
        ]
        status = "PASSED" if self.passed else "FAILED"
        return format_table(
            ["check", "measured", "threshold", "status"], rows,
            title=f"verification ({self.model}): {status}, "
                  f"{len(self.checks)} checks, {self.wall_seconds:.1f} s",
        )

    def raise_on_failure(self) -> None:
        if self.passed:
            return
        lines = [
            f"  {c.name}: measured {c.measured:.3e} "
            f"> threshold {c.threshold:.3e} ({c.key})"
            for c in self.failures
        ]
        raise VerificationError(
            f"{len(self.failures)} verification check(s) out of budget:\n"
            + "\n".join(lines)
        )


def _constraint_checks(result) -> list[VerificationCheck]:
    """Worst-over-modes constraint residuals vs the registry."""
    def worst(attr):
        vals = [getattr(r, attr) for r in result.constraints]
        vals = [v for v in vals if v is not None]
        return max(vals) if vals else float("nan")

    mk = VerificationCheck.residual
    nk = len(result.constraints)
    return [
        mk("constraint.pressure_evolution", "pressure evolution (21c)",
           worst("max_pressure"), f"max over {nk} modes"),
        mk("constraint.shear_evolution", "shear evolution (21d)",
           worst("max_shear"), f"max over {nk} modes"),
        mk("constraint.thomson_exchange", "Thomson momentum exchange",
           worst("max_exchange"), f"max over {nk} modes"),
        mk("constraint.truncation_photon", "photon hierarchy truncation",
           worst("max_truncation_photon"), "source era, max over modes"),
        mk("constraint.truncation_polarization",
           "polarization hierarchy truncation",
           worst("max_truncation_polarization"), "source era, max over modes"),
    ]


def _quality_checks(result) -> list[VerificationCheck]:
    """Spline-derivative consistency on a mid-grid recorded mode."""
    mode = result.modes[len(result.modes) // 2]
    res = quality_residuals(mode, result.thermo.tau_rec)
    mk = VerificationCheck.residual
    return [
        mk("quality.eta_consistency", "eta vs recorded etadot",
           res["eta"], f"k={mode.k:g}"),
        mk("quality.alpha_consistency", "alpha vs recorded alpha_dot",
           res["alpha"], f"k={mode.k:g}"),
    ]


def _analytic_checks(result, fast: bool) -> list[VerificationCheck]:
    checks = []
    mk = VerificationCheck.residual
    lo = result.modes[0]          # smallest k: super-horizon limits
    hi = result.modes[-1]         # largest k: sub-horizon growth
    bg, thermo = result.background, result.thermo

    checks.append(mk("analytic.superhorizon_eta", "super-horizon eta frozen",
                     analytic.superhorizon_eta_drift(lo), f"k={lo.k:g}"))
    checks.append(mk("analytic.adiabatic_ratios", "adiabatic ratios",
                     analytic.adiabatic_ratio_deviation(lo), f"k={lo.k:g}"))
    checks.append(mk("analytic.matter_growth", "matter-era D(a) slope - 1",
                     analytic.matter_growth_slope(hi) - 1.0, f"k={hi.k:g}"))
    checks.append(mk("analytic.sachs_wolfe", "Sachs-Wolfe plateau ratio - 1",
                     analytic.sachs_wolfe_ratio(lo, bg, thermo.tau_rec) - 1.0,
                     f"k={lo.k:g}"))

    if not fast:
        # the golden grid has no mode deep enough into the acoustic
        # regime; integrate one auxiliary short mode through the
        # tight-coupling era only (cheap: stops just past recombination)
        from ..perturbations import evolve_mode
        from ..perturbations.evolve import tau_initial

        k = ACOUSTIC_K
        t0 = tau_initial(k)
        grid = np.geomspace(1.05 * t0, 1.1 * thermo.tau_rec, 400)
        aux = evolve_mode(bg, thermo, k, lmax_photon=12, record_tau=grid,
                          rtol=1e-4, tau_end=1.1 * thermo.tau_rec)
        checks.append(mk(
            "analytic.acoustic_phase", "acoustic phase advance / pi - 1",
            analytic.acoustic_phase_deviation(aux, result.params),
            f"aux mode k={k:g}",
        ))
    return checks


def verify_run(
    params=None,
    model: str = "scdm",
    fast: bool = False,
    progress: bool = False,
) -> VerificationReport:
    """Run the full verification suite; returns the check report.

    ``params`` defaults to the named ``model`` (same registry as the
    CLI).  The caller decides what a failure means —
    :meth:`VerificationReport.raise_on_failure` turns it into a
    :class:`~repro.errors.VerificationError`.
    """
    import time

    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig, run_linger

    if params is None:
        from ..params import (
            lambda_cdm, mixed_dark_matter, standard_cdm, tilted_cdm,
        )

        models = {"scdm": standard_cdm, "tilted": tilted_cdm,
                  "lcdm": lambda_cdm, "mdm": mixed_dark_matter}
        params = models[model]()

    wall0 = time.perf_counter()
    kgrid = KGrid.from_k(np.geomspace(*GOLDEN_KGRID))
    monitored_cfg = LingerConfig(
        lmax_photon=24, lmax_nu=12, rtol=1e-4,
        nq=0,  # constraint budgets hold at nq=0; nq>0 measures the
               # momentum-quadrature truncation instead (see tolerances.py)
        record_sources=True, keep_mode_results=True,
    )

    if progress:
        print(f"[verify] integrating {kgrid.nk} monitored modes...")
    result = run_linger(params, kgrid, monitored_cfg,
                        monitor_constraints=True)

    report = VerificationReport(model=model, fast=fast)
    report.checks += _constraint_checks(result)
    report.checks += _quality_checks(result)
    report.checks += _analytic_checks(result, fast)

    if progress:
        print("[verify] path oracles (serial vs chunked"
              + (")" if fast else " vs PLINGER)") + "...")
    wire_cfg = LingerConfig(lmax_photon=24, lmax_nu=12, rtol=1e-4,
                            record_sources=False, keep_mode_results=False)
    devs = paths_oracle(params, kgrid, wire_cfg,
                        background=result.background, thermo=result.thermo,
                        include_plinger=not fast)
    mk = VerificationCheck.relative
    report.checks.append(mk("oracle.paths_batched",
                            "serial vs chunked wire records",
                            devs["paths_batched"], "batch_size=4"))
    if "paths_plinger" in devs:
        report.checks.append(mk("oracle.paths_plinger",
                                "serial vs PLINGER wire records",
                                devs["paths_plinger"], "nproc=3, inprocess"))

    if not fast:
        if progress:
            print("[verify] gauge cross-check (synchronous vs Newtonian)...")
        gdevs = gauge_oracle(result.background, result.thermo)
        rk = VerificationCheck.residual
        report.checks.append(rk("oracle.gauge_potentials",
                                "synchronous vs Newtonian phi/psi",
                                gdevs["gauge_potentials"], "k=0.05"))
        report.checks.append(rk("oracle.gauge_multipoles",
                                "gauge-invariant F_l (2<=l<=8)",
                                gdevs["gauge_multipoles"], "k=0.05"))

    if progress:
        print("[verify] dense vs sparse-k C_l oracle...")
    # both legs reuse the monitored integrations: the check isolates
    # the sparse fast path's k-interpolation error
    sdevs = sparse_cl_oracle(result, factor=2)
    report.checks.append(mk("oracle.sparse_cl",
                            "dense vs sparse-k C_l (LOS)",
                            sdevs["sparse_cl"],
                            "factor=2 on the golden grid, l=2..15"))

    if progress:
        print("[verify] RHS kernel oracle (lanes; compiled vs python "
              "driver)...")
    kdevs = rhs_kernel_oracle(result.background, result.thermo)
    report.checks.append(mk("oracle.rhs_kernel",
                            "compiled RHS lane vs one lane; loop vs python",
                            kdevs["rhs_kernel"],
                            "lane 1 of [k/2, k, 2k]; python DVERK over "
                            "the compiled RHS"))

    if progress:
        print("[verify] batch invariance oracle (batch/lanes/ranks)...")
    bdevs = batch_invariance_oracle(params, background=result.background,
                                    thermo=result.thermo)
    moved = [name for name, dev in bdevs["legs"].items() if dev != 0.0]
    report.checks.append(mk(
        "oracle.batch_invariance",
        "records and C_l bitwise under batch/lanes/ranks",
        bdevs["batch_invariance"],
        f"{len(bdevs['legs'])} legs; moved: " + (", ".join(moved) or "none"),
    ))

    if progress:
        print("[verify] chaos degradation oracle (seeded fault injection)...")
    cdevs = chaos_degradation_oracle(params)
    ev = cdevs["chaos_events"]
    report.checks.append(mk(
        "oracle.chaos_degradation",
        "golden C_l under seeded fault injection",
        cdevs["chaos_degradation"],
        "profile=all seed=0; recovery events: "
        + ", ".join(f"{s}={n}" for s, n in ev.items()),
    ))

    if progress:
        print("[verify] serve oracle (cold vs warm pool vs result store)...")
    sdevs2 = serve_result_oracle(params)
    tiers = sdevs2["serve_tiers"]
    report.checks.append(mk(
        "oracle.serve_result",
        "served C_l across store/warm/cold tiers",
        sdevs2["serve_result"],
        "tiers exercised: "
        + ", ".join(f"{t}={'yes' if ok else 'NO'}"
                    for t, ok in tiers.items()),
    ))

    if progress:
        print("[verify] sockets world oracle (TCP shard round trip)...")
    wdevs = sockets_world_oracle(params)
    legs = wdevs["sockets_legs"]
    report.checks.append(mk(
        "oracle.sockets_world",
        "C_l over the TCP-sockets world (clean/join/kill)",
        wdevs["sockets_world"],
        "legs exercised: "
        + ", ".join(f"{t}={'yes' if ok else 'NO'}"
                    for t, ok in legs.items()),
    ))

    report.wall_seconds = time.perf_counter() - wall0
    return report
