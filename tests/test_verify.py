"""The Einstein-constraint verification subsystem.

Covers all four layers of repro.verify:

* the tolerance-budget registry (structure, lookup, semantics);
* the runtime constraint monitors (residuals within budget on a real
  mode, purity — monitoring must not perturb the trajectory —, the
  curvature-closure and tight-coupling handling, telemetry plumbing);
* the differential and analytic oracles on the session fixtures;
* the runner/report machinery (check bookkeeping, JSON round-trip,
  failure raising).

The expensive full-suite run (``repro verify``) lives in CI, not here;
these tests exercise every component on the cheap shared fixtures.
"""

import json

import numpy as np
import pytest

from repro import ParameterError, VerificationError
from repro.perturbations import default_record_grid, evolve_mode
from repro.telemetry import ConstraintMetrics, Telemetry
from repro.verify import (
    TOLERANCES,
    ConstraintMonitor,
    Tolerance,
    budget,
    quality_residuals,
)
from repro.verify.runner import VerificationCheck, VerificationReport

# -- tolerance registry ------------------------------------------------------


class TestToleranceRegistry:
    def test_every_entry_has_provenance(self):
        for key, tol in TOLERANCES.items():
            assert tol.key == key
            assert len(tol.provenance) > 20, f"{key} lacks provenance"
            assert tol.rtol > 0 or tol.atol > 0, f"{key} has no budget"

    def test_budget_lookup(self):
        tol = budget("constraint.pressure_evolution")
        assert tol.atol == 1e-8

    def test_unknown_key_raises(self):
        with pytest.raises(ParameterError, match="unknown tolerance-budget"):
            budget("constraint.no_such_check")

    def test_admits(self):
        tol = Tolerance("t", atol=1e-6)
        assert tol.admits(5e-7)
        assert tol.admits(-5e-7)
        assert not tol.admits(2e-6)
        assert not tol.admits(float("nan"))

    def test_allclose_and_deviation(self):
        tol = Tolerance("t", rtol=1e-3, atol=1e-12)
        assert tol.allclose([1.0, 2.0], [1.0005, 2.0])
        assert not tol.allclose([1.0], [1.01])
        assert tol.max_rel_deviation([1.001], [1.0]) == pytest.approx(1e-3)


# -- constraint monitors -----------------------------------------------------


@pytest.fixture(scope="module")
def monitored_k005(bg_scdm, thermo_scdm):
    """mode_k005 re-integrated with a monitor attached."""
    k = 0.005
    grid = default_record_grid(bg_scdm, thermo_scdm, k)
    mon = ConstraintMonitor(tau_rec=thermo_scdm.tau_rec)
    mode = evolve_mode(bg_scdm, thermo_scdm, k, record_tau=grid, rtol=1e-5,
                       monitor=mon)
    return mode, mon.residuals()


class TestConstraintMonitor:
    def test_residuals_within_budget(self, monitored_k005):
        _, res = monitored_k005
        assert budget("constraint.pressure_evolution").admits(res.max_pressure)
        assert budget("constraint.shear_evolution").admits(res.max_shear)
        assert budget("constraint.thomson_exchange").admits(res.max_exchange)
        assert budget("constraint.truncation_photon").admits(
            res.max_truncation_photon)
        assert budget("constraint.truncation_polarization").admits(
            res.max_truncation_polarization)

    def test_tca_samples_are_nan(self, monitored_k005):
        mode, res = monitored_k005
        tca = res.tau <= mode.tau_switch
        assert np.any(tca)
        assert np.all(np.isnan(res.pressure[tca]))
        # truncation indicators are defined in both phases
        assert not np.any(np.isnan(res.trunc_photon))

    def test_monitor_is_pure(self, mode_k005, monitored_k005):
        """Attaching a monitor must not perturb the trajectory: the
        monitored re-integration matches the unmonitored session
        fixture bitwise."""
        mode, _ = monitored_k005
        assert np.array_equal(mode.records["delta_g"],
                              mode_k005.records["delta_g"])
        assert np.array_equal(mode.y_final, mode_k005.y_final)

    def test_sample_count_matches_record_grid(self, monitored_k005):
        mode, res = monitored_k005
        assert res.n_samples == mode.tau.size
        assert np.array_equal(res.tau, mode.tau)

    def test_unbound_monitor_raises(self):
        mon = ConstraintMonitor(tau_rec=100.0)
        with pytest.raises(ParameterError):
            mon(1.0, np.zeros(4), tight=False)

    def test_quality_residuals(self, mode_k005, thermo_scdm):
        res = quality_residuals(mode_k005, thermo_scdm.tau_rec)
        assert budget("quality.eta_consistency").admits(res["eta"])
        assert budget("quality.alpha_consistency").admits(res["alpha"])

    def test_empty_monitor_summaries_are_none(self):
        mon = ConstraintMonitor(tau_rec=100.0)
        res = mon.residuals()
        assert res.n_samples == 0
        assert res.max_pressure is None
        assert res.max_truncation_photon is None


class TestConstraintMetricsSerialization:
    def test_to_metrics_decimates(self, monitored_k005):
        _, res = monitored_k005
        m = res.to_metrics(ik=3, history_cap=16)
        assert m.ik == 3
        assert m.n_samples == res.n_samples
        assert len(m.tau_history) <= 16
        # decimation never hides the exact maxima
        assert m.max_pressure_residual == res.max_pressure
        assert m.max_shear_residual == res.max_shear

    def test_nan_becomes_none_in_histories(self, monitored_k005):
        _, res = monitored_k005
        m = res.to_metrics(history_cap=1000)
        assert None in m.pressure_history  # the TCA samples
        assert all(v is None or isinstance(v, float)
                   for v in m.pressure_history)

    def test_report_roundtrip(self, monitored_k005):
        _, res = monitored_k005
        tel = Telemetry()
        tel.record_constraint(res.to_metrics(ik=1))
        report = tel
        assert report.totals["constraints_monitored_modes"] == 1
        assert report.totals["max_pressure_residual"] == res.max_pressure
        blob = json.dumps(report.to_dict())
        again = Telemetry.from_dict(json.loads(blob))
        assert len(again.constraints) == 1
        m = again.constraints[0]
        assert isinstance(m, ConstraintMetrics)
        assert m.k == res.k
        assert m.max_pressure_residual == res.max_pressure
        assert m.pressure_history == report.constraints[0].pressure_history


class TestRunLingerIntegration:
    def test_monitor_constraints_requires_records(self, scdm):
        from repro import KGrid, LingerConfig, run_linger

        with pytest.raises(ParameterError, match="record_sources"):
            run_linger(scdm, KGrid.from_k([0.01]),
                       LingerConfig(record_sources=False,
                                    keep_mode_results=False),
                       monitor_constraints=True)


# -- analytic oracles --------------------------------------------------------


class TestAnalyticOracles:
    def test_superhorizon_and_adiabatic(self, linger_small):
        from repro.verify import (
            adiabatic_ratio_deviation,
            superhorizon_eta_drift,
        )

        lo = linger_small.modes[0]
        assert budget("analytic.superhorizon_eta").admits(
            superhorizon_eta_drift(lo))
        assert budget("analytic.adiabatic_ratios").admits(
            adiabatic_ratio_deviation(lo))

    def test_matter_growth(self, linger_small):
        from repro.verify import matter_growth_slope

        hi = linger_small.modes[-1]
        assert budget("analytic.matter_growth").admits(
            matter_growth_slope(hi) - 1.0)

    def test_sachs_wolfe(self, linger_small, thermo_scdm):
        from repro.verify import sachs_wolfe_ratio

        lo = linger_small.modes[0]
        ratio = sachs_wolfe_ratio(lo, linger_small.background,
                                  thermo_scdm.tau_rec)
        assert budget("analytic.sachs_wolfe").admits(ratio - 1.0)

    def test_superhorizon_needs_low_k(self):
        from types import SimpleNamespace

        from repro.verify import superhorizon_eta_drift

        # a mode whose record window never has k tau < 0.3
        fake = SimpleNamespace(k=1.0, tau=np.linspace(10.0, 100.0, 50),
                               records={"eta": np.ones(50)})
        with pytest.raises(ParameterError, match="super-horizon"):
            superhorizon_eta_drift(fake)


# -- differential oracles ----------------------------------------------------


class TestPathsOracle:
    def test_rejects_kept_mode_results(self, scdm):
        from repro import KGrid, LingerConfig
        from repro.verify import paths_oracle

        with pytest.raises(ParameterError, match="keep_mode_results"):
            paths_oracle(scdm, KGrid.from_k([0.01]),
                         LingerConfig(keep_mode_results=True))


class TestSparseClOracle:
    def test_within_budget_on_golden_grid(self, linger_small):
        from repro.verify import sparse_cl_oracle

        devs = sparse_cl_oracle(linger_small, factor=2)
        measured = devs["sparse_cl"]
        assert 0.0 < measured <= budget("oracle.sparse_cl").rtol
        check = VerificationCheck.relative("oracle.sparse_cl",
                                           "dense vs sparse-k C_l (LOS)",
                                           measured)
        assert check.passed
        VerificationReport(model="scdm", fast=True,
                           checks=[check]).raise_on_failure()  # no-op

    def test_breach_raises(self, linger_small):
        """Factor 4 leaves 3 nodes across two decades of the log-spaced
        verify grid — the spline error blows past the budget, and the
        report machinery must turn that into a VerificationError."""
        from repro.verify import sparse_cl_oracle

        devs = sparse_cl_oracle(linger_small, factor=4)
        check = VerificationCheck.relative("oracle.sparse_cl",
                                           "dense vs sparse-k C_l (LOS)",
                                           devs["sparse_cl"])
        assert not check.passed
        rep = VerificationReport(model="scdm", fast=True, checks=[check])
        with pytest.raises(VerificationError, match="sparse"):
            rep.raise_on_failure()


# -- runner / report ---------------------------------------------------------


class TestVerificationReport:
    def _checks(self):
        return [
            VerificationCheck.residual("constraint.pressure_evolution",
                                       "pressure", 1e-10),
            VerificationCheck.relative("oracle.paths_plinger",
                                       "paths", 1e-9),
        ]

    def test_passing_report(self):
        rep = VerificationReport(model="scdm", fast=True,
                                 checks=self._checks())
        assert rep.passed
        assert rep.failures == []
        rep.raise_on_failure()  # no-op
        assert "PASSED" in rep.format_table()

    def test_failing_report_raises(self):
        checks = self._checks()
        checks.append(VerificationCheck.residual(
            "constraint.shear_evolution", "shear", 1.0))
        rep = VerificationReport(model="scdm", fast=True, checks=checks)
        assert not rep.passed
        assert len(rep.failures) == 1
        with pytest.raises(VerificationError, match="shear"):
            rep.raise_on_failure()

    def test_nan_measurement_fails(self):
        c = VerificationCheck.residual("constraint.shear_evolution",
                                       "shear", float("nan"))
        assert not c.passed

    def test_json_roundtrip(self, tmp_path):
        rep = VerificationReport(model="scdm", fast=False,
                                 checks=self._checks(), wall_seconds=1.5)
        path = tmp_path / "report.json"
        rep.save(path)
        blob = json.loads(path.read_text())
        assert blob["passed"] is True
        assert blob["model"] == "scdm"
        assert len(blob["checks"]) == 2
        assert blob["checks"][0]["key"] == "constraint.pressure_evolution"
        assert blob["checks"][0]["threshold"] == 1e-8

    def test_thresholds_come_from_registry(self):
        c = VerificationCheck.residual("constraint.thomson_exchange",
                                       "exch", 0.0)
        assert c.threshold == budget("constraint.thomson_exchange").atol
        c = VerificationCheck.relative("oracle.paths_plinger", "p", 0.0)
        assert c.threshold == budget("oracle.paths_plinger").rtol


class TestVerifyCli:
    def test_verify_subcommand_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["verify", "--fast", "--report", "out.json"])
        assert args.command == "verify"
        assert args.fast is True
        assert args.report == "out.json"
