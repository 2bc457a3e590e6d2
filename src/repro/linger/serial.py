"""The serial LINGER driver: loop over k, integrate, collect records.

:func:`compute_mode` is the unit of work — one wavenumber under the
escalation ladder, the same function a PLINGER worker executes for the
wavenumber of each WORK message the master hands it.
:func:`run_linger` is the main loop over the whole grid: serial, or on the
calling thread plus an executor's threads.
"""

from __future__ import annotations

import math
import operator
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import _cext
from ..background import Background
from ..chaos import current_engine
from ..errors import IntegrationError, ParameterError
from ..params import CosmologyParams
from ..perturbations import ModeResult
from ..perturbations import evolve as _evolve
from ..perturbations.evolve import ModePlan
from ..resilience import run_with_ladder
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .kgrid import KGrid
from .records import ModeHeader, ModePayload

if TYPE_CHECKING:  # concurrent.futures loads logging: not on every import
    from concurrent.futures import Executor

__all__ = [
    "LingerConfig",
    "LingerResult",
    "build_tables",
    "compute_mode",
    "mode_plan",
    "run_linger",
]


@dataclass(frozen=True)
class LingerConfig:
    """Numerical configuration of a LINGER run.

    ``lmax_mode``:
      * ``"fixed"``  — every mode uses ``lmax_photon`` (source runs for
        the line-of-sight C_l integration);
      * ``"scaled"`` — lmax grows with k as the paper describes
        (``lmax ~ k tau0`` capped to ``lmax_cap``), used for
        full-hierarchy runs and for the message-economics benchmarks.
    """

    lmax_photon: int = 12
    lmax_nu: int = 12
    nq: int = 0
    lmax_massive_nu: int = 10
    rtol: float = 1e-5
    atol: float = 1e-9
    #: forced initial step size (None lets the integrator choose); the
    #: fault-tolerance escalation ladder tightens this on retry
    first_step: float | None = None
    tca_eps: float = 0.01
    record_sources: bool = True
    keep_mode_results: bool = True
    tau_end: float | None = None
    amplitude: float = 1.0
    lmax_mode: str = "fixed"
    lmax_margin: float = 1.2
    lmax_cap: int = 2000

    def __post_init__(self) -> None:
        """Refuse numerics no mode can run with before any table is
        built (the ladder's ``replace`` passes through here too)."""
        for ok, rule, value in (
            (0 < self.rtol < math.inf, "rtol must be finite and > 0",
             self.rtol),
            (0 <= self.atol < math.inf, "atol must be finite and >= 0",
             self.atol),
            (0 < self.tca_eps < math.inf, "tca_eps must be finite and > 0",
             self.tca_eps),
            (self.nq >= 0, "nq must be >= 0", self.nq),
            (self.lmax_photon >= 3, "lmax_photon must be >= 3",
             self.lmax_photon),
            (self.lmax_nu >= 3, "lmax_nu must be >= 3", self.lmax_nu),
            (self.lmax_massive_nu >= 3, "lmax_massive_nu must be >= 3",
             self.lmax_massive_nu),
            (math.isfinite(self.amplitude), "amplitude must be finite",
             self.amplitude),
            (self.lmax_mode in ("fixed", "scaled"),
             "lmax_mode must be 'fixed' or 'scaled'", self.lmax_mode),
        ):
            if not ok:
                raise ParameterError(f"LingerConfig: {rule}, got {value!r}")

    def lmax_for_k(self, k: float, tau_span: float) -> int:
        if self.lmax_mode == "fixed":
            return self.lmax_photon
        return int(
            min(max(self.lmax_photon, self.lmax_margin * k * tau_span + 8),
                self.lmax_cap)
        )


def build_tables(
    params: CosmologyParams,
    background: Background | None = None,
    thermo: ThermalHistory | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[Background, ThermalHistory]:
    """The k-independent tables of a run, built once per cosmology.

    Each table is taken as handed in — by the caller, by a forked
    rank's inheritance, by the serve daemon's resident pool — else
    built here.  A build first resolves the compiled object under its
    own ``cext.resolve`` timer (on a cold kernel cache that is the
    compile), then is timed into the
    ``background.build`` / ``thermo.build`` telemetry timers, the
    latter split into ``thermo.ode`` (the compiled ODE solve) and
    ``thermo.finish`` (the rest of the build) — every
    driver and every worker fallback gets its tables through this one
    seam, so a run's report accounts for them wherever they were made.
    A thermal history built here also leaves its work counts,
    ``thermo.ode_rhs_evals``, ``thermo.ode_steps``,
    ``thermo.ode_rejected``, ``thermo.saha_sweeps`` and
    ``thermo.saha_rows``: they repeat exactly for a cosmology, so a
    regression in the build shows as a count before it shows as a
    time.  The last is how many grid rows the Saha pre-pass swept:
    those that can precede the switch to the Peebles ODE plus a few
    (3616 of 6000 on ``standard_cdm``), all of them only if the switch
    were not among those.
    """
    if background is None or thermo is None:
        with telemetry.timer("cext.resolve"):
            _cext.get_cext()
    if background is None:
        with telemetry.timer("background.build"):
            background = Background(params)
    if thermo is None:
        timer = telemetry.timer("thermo.build").start()
        thermo = ThermalHistory(background)
        wall = timer.stop()
        telemetry.timer("thermo.ode").add(thermo._ode_seconds)
        telemetry.timer("thermo.finish").add(wall - thermo._ode_seconds)
        for name, n in thermo._build_counts.items():
            telemetry.count(f"thermo.{name}", n)
    return background, thermo


def mode_plan(background: Background, thermo: ThermalHistory, k,
              config: LingerConfig) -> ModePlan:
    """The :class:`~repro.perturbations.evolve.ModePlan` of ``k`` under
    ``config``."""
    tau_end = background.tau0 if config.tau_end is None else config.tau_end
    return ModePlan(
        background, thermo, k,
        [config.lmax_for_k(x, tau_end) for x in np.asarray(k).tolist()],
        tau_end=tau_end, record_tau=config.record_sources or None,
        keep_records=config.keep_mode_results, **{
            name: getattr(config, name) for name in (
                "lmax_nu", "nq", "lmax_massive_nu", "rtol", "atol",
                "first_step", "tca_eps", "amplitude")})


def compute_mode(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    ik: int,
    config: LingerConfig,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor=None,
    plan: ModePlan | None = None,
) -> tuple[ModeHeader, ModePayload, ModeResult]:
    """Integrate one wavenumber and build its two output records.

    This is exactly the work between "receive a wavenumber" and "send
    the results to the master" in the paper's worker subroutine: one
    compiled call of the mode (``evolve.run_mode``), then the wire
    records.  The header's ``cpu_seconds`` is that call's CPU time.

    The integration runs inside :func:`~repro.resilience.run_with_ladder`
    — one transient same-config retry, then the escalation levels — so
    the serial and the PLINGER drivers recover a mode the same way; a
    level above 0 travels in ``header.retry_level``.  Every failed
    attempt leaves an ``integrator`` degradation event in
    ``telemetry``, and only an :class:`~repro.errors.IntegrationError`
    that outlasts the ladder reaches the caller.  The chaos engine's
    forced step collapse is consulted here, once per attempt.

    ``monitor`` is None or a per-record-point observer (a
    :class:`~repro.verify.constraints.ConstraintMonitor`), bound afresh
    by each attempt.

    ``plan`` is None or the grid's :func:`mode_plan`, ``ik`` a position
    of it (:class:`~repro.errors.ParameterError` unless its wavenumber
    is ``k``): an attempt at ``config`` is the plan's row, any other (a
    ladder level's config, or no plan) a :func:`mode_plan` of its own,
    each run by ``evolve.run_mode``.
    """
    k, ik = float(k), int(ik)
    if plan is not None and plan.k[ik - 1] != k:
        raise ParameterError(f"plan row {ik} is k={plan.k[ik - 1]!r}, "
                             f"not {k!r}")

    def attempt(cfg: LingerConfig) -> ModeResult:
        eng = current_engine()
        if eng is not None and eng.collapse_mode(k):
            raise IntegrationError(f"chaos: forced step collapse (ik={ik})")
        if plan is not None and cfg is config:
            return _evolve.run_mode(plan, ik - 1, telemetry=telemetry,
                                    monitor=monitor)
        return _evolve.run_mode(mode_plan(background, thermo, [k], cfg), 0,
                                telemetry=telemetry, monitor=monitor)

    def on_retry(level: int, exc: IntegrationError) -> None:
        telemetry.record_degradation(
            "integrator",
            "transient_retry" if level == 0 else "ladder_escalation",
            f"ik={ik} level={level}: {exc}",
        )

    mode, level = run_with_ladder(config, attempt, transient_retries=1,
                                  on_retry=on_retry)
    if telemetry.enabled:
        # run_mode appended this mode's ModeMetrics; patch in the grid
        # index and the mode's CPU
        metric = telemetry.modes[-1]
        metric.ik = ik
        metric.cpu_seconds = mode.cpu_seconds
    header, payload = _mode_records(mode, k, ik, config)
    if level:
        header = replace(header, retry_level=level)
    return header, payload, mode


#: the header's final-state observables, after ik, k and tau_end
_HEADER_FIELDS = operator.itemgetter(
    "a", "delta_c", "delta_b", "delta_g", "delta_nu", "delta_nu_massive",
    "theta_b", "theta_g", "theta_nu", "eta", "hdot", "etadot", "phi", "psi",
    "delta_m")


def _mode_records(
    mode: ModeResult, k: float, ik: int, config: LingerConfig
) -> tuple[ModeHeader, ModePayload]:
    """The two wire records for one completed mode, its final-state
    observables read off the last row of its record pass."""
    obs = mode.final
    header = ModeHeader(ik, k, mode.tau_end, *_HEADER_FIELDS(obs),
                        mode.cpu_seconds, float(mode.stats.n_rhs),
                        mode.layout.lmax_photon)
    payload = ModePayload(ik, k, mode.tau_end, obs["a"], config.amplitude,
                          float(mode.stats.n_steps), mode.f_gamma_final,
                          mode.g_gamma_final)
    return header, payload


@dataclass
class LingerResult:
    """Everything a LINGER run produces, ordered by ascending k."""

    params: CosmologyParams
    kgrid: KGrid
    config: LingerConfig
    headers: list[ModeHeader]
    payloads: list[ModePayload]
    modes: list[ModeResult | None]
    background: Background
    thermo: ThermalHistory
    wall_seconds: float = 0.0
    #: per-mode constraint residual histories (ascending k), populated
    #: by ``run_linger(monitor_constraints=True)``; each entry is a
    #: :class:`~repro.verify.constraints.ModeConstraintResiduals`
    constraints: list = field(default_factory=list)

    @property
    def k(self) -> np.ndarray:
        return self.kgrid.k

    @property
    def cpu_seconds(self) -> np.ndarray:
        return np.array([h.cpu_seconds for h in self.headers])

    @property
    def delta_m(self) -> np.ndarray:
        """Matter perturbation today per k (transfer-function input)."""
        return np.array([h.delta_m for h in self.headers])

    def theta_l_matrix(self) -> np.ndarray:
        """(nk, lmax+1) matrix of Theta_l = F_l/4 today.

        Requires a fixed-lmax run (all payloads the same length).
        """
        lmaxes = {p.lmax for p in self.payloads}
        if len(lmaxes) != 1:
            raise ParameterError("theta_l_matrix requires a fixed-lmax run")
        return np.stack([p.f_gamma / 4.0 for p in self.payloads])


def run_linger(
    params: CosmologyParams,
    kgrid: KGrid,
    config: LingerConfig | None = None,
    background: Background | None = None,
    thermo: ThermalHistory | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor_constraints: bool = False,
    sparse_k: int | None = None,
    executor: Executor | None = None,
) -> LingerResult:
    """The LINGER main loop, the one that runs a grid in this process.

    Wavenumbers are *computed* in dispatch order (largest first, as the
    paper does), one :func:`compute_mode` call each on the grid's one
    :func:`mode_plan`, but the result lists are in ascending-k order.
    Pass an enabled :class:`~repro.telemetry.Telemetry` to collect
    per-mode integrator metrics (and ``save`` it afterwards).

    With an ``executor`` (the serve pool's resident threads, the sparse
    path's) the calling thread and the executor's threads take indices
    from the one dispatch-order iterator, so the records are the serial
    loop's bit for bit; without one there is no lock and no thread.  A
    mode that outlasts the escalation ladder raises its
    :class:`~repro.errors.IntegrationError` either way.

    ``monitor_constraints=True`` attaches one
    :class:`~repro.verify.constraints.ConstraintMonitor` per mode: the
    redundant Einstein-constraint residuals are evaluated at every
    record point (a pure observation — trajectories are bit-identical
    either way), collected in ``LingerResult.constraints`` and, when
    telemetry is enabled, in the report's ``constraints`` section.
    Requires ``config.record_sources``.

    ``sparse_k`` (an integer factor > 1) integrates only the coarse
    subset chosen by :func:`~repro.linger.kgrid.sparse_kgrid` and
    returns the *coarse-grid* result; the sparse fast path
    (:func:`~repro.spectra.sparse.sparse_cl`) splines its recorded
    sources back onto the dense grid.
    """
    if sparse_k is not None and sparse_k != 1:
        from .kgrid import sparse_kgrid

        kgrid = sparse_kgrid(kgrid, sparse_k)
        if telemetry.enabled:
            telemetry.meta.setdefault("sparse_k", int(sparse_k))
    config = config or LingerConfig()
    if monitor_constraints and not config.record_sources:
        raise ParameterError(
            "monitor_constraints=True requires config.record_sources=True "
            "(the monitors sample the state at the record grid)"
        )
    background, thermo = build_tables(params, background, thermo,
                                      telemetry=telemetry)

    nk = kgrid.nk
    monitors: list = [None] * nk
    if monitor_constraints:
        # local import: repro.verify imports this module for the oracles
        from ..verify.constraints import ConstraintMonitor

        monitors = [
            ConstraintMonitor(tau_rec=thermo.tau_rec) for _ in range(nk)
        ]
    headers: list[ModeHeader | None] = [None] * nk
    payloads: list[ModePayload | None] = [None] * nk
    modes: list[ModeResult | None] = [None] * nk

    # a mode past the ladder stops the hand-out and is raised once the
    # modes in flight finish; a helper records into a collector of its
    # own (compute_mode patches its collector's last mode), merged after
    pending = iter(kgrid.dispatch_order.tolist())
    take = threading.Lock() if executor else nullcontext()
    failed: list[BaseException] = []

    def sweep(tel: Telemetry) -> Telemetry:
        try:
            while not failed:
                with take:
                    idx = next(pending, None)
                if idx is None:
                    break
                headers[idx], payloads[idx], mode = compute_mode(
                    background, thermo, kgrid.k[idx], idx + 1, config,
                    telemetry=tel, monitor=monitors[idx], plan=plan)
                modes[idx] = mode if config.keep_mode_results else None
        except BaseException as exc:
            failed.append(exc)
        return tel

    wall0 = time.perf_counter()
    plan = mode_plan(background, thermo, kgrid.k, config)
    # one sweep per index after the first: a sweep that finds the
    # hand-out empty returns at once
    helpers = [executor.submit(sweep, Telemetry() if telemetry.enabled
                               else NULL_TELEMETRY)
               for _ in range(nk - 1)] if executor else []
    sweep(telemetry)
    for helper in helpers:
        telemetry.merge(helper.result().to_dict())
    if failed:
        raise failed[0]
    wall = time.perf_counter() - wall0
    constraints: list = []
    if monitor_constraints:
        for idx in range(nk):
            residuals = monitors[idx].residuals()
            constraints.append(residuals)
            if telemetry.enabled:
                telemetry.record_constraint(residuals.to_metrics(idx + 1))
    if telemetry.enabled:
        telemetry.timer("linger.wall").add(wall)
        telemetry.meta.setdefault("driver", "linger-threads" if executor
                                  else "linger-serial")
        telemetry.meta.setdefault("nk", nk)

    return LingerResult(
        params=params,
        kgrid=kgrid,
        config=config,
        headers=headers,  # type: ignore[arg-type]
        payloads=payloads,  # type: ignore[arg-type]
        modes=modes,
        background=background,
        thermo=thermo,
        wall_seconds=wall,
        constraints=constraints,
    )
