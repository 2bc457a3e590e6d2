"""The serial LINGER driver: loop over k, integrate, collect records.

:func:`compute_mode` is the unit of work — one wavenumber under the
escalation ladder, the same function a PLINGER worker executes for the
wavenumber of each WORK message the master hands it.
:func:`run_linger` is the serial main loop over the whole grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .. import _cext
from ..background import Background
from ..chaos import current_engine
from ..errors import IntegrationError, ParameterError
from ..params import CosmologyParams
from ..perturbations import ModeResult, default_record_grid, evolve_mode
from ..resilience import run_with_ladder
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .kgrid import KGrid
from .records import ModeHeader, ModePayload

__all__ = [
    "LingerConfig",
    "LingerResult",
    "build_tables",
    "compute_mode",
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

    def lmax_for_k(self, k: float, tau_span: float) -> int:
        if self.lmax_mode == "fixed":
            return self.lmax_photon
        if self.lmax_mode == "scaled":
            return int(
                min(max(self.lmax_photon, self.lmax_margin * k * tau_span + 8),
                    self.lmax_cap)
            )
        raise ParameterError(f"unknown lmax_mode {self.lmax_mode!r}")


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
    ``background.build`` / ``thermo.build`` telemetry timers — every
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
        with telemetry.timer("thermo.build"):
            thermo = ThermalHistory(background)
        for name, n in thermo._build_counts.items():
            telemetry.count(f"thermo.{name}", n)
    return background, thermo


def compute_mode(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    ik: int,
    config: LingerConfig,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor=None,
) -> tuple[ModeHeader, ModePayload, ModeResult]:
    """Integrate one wavenumber and build its two output records.

    This is exactly the work between "receive a wavenumber" and "send
    the results to the master" in the paper's worker subroutine: one
    :func:`~repro.perturbations.evolve.evolve_mode` call, then the wire
    records.  The header's ``cpu_seconds`` is the mode's whole CPU
    time.

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
    """
    k, ik = float(k), int(ik)
    tau_end = background.tau0 if config.tau_end is None else config.tau_end
    record_tau = (default_record_grid(background, thermo, k, tau_end=tau_end)
                  if config.record_sources else None)

    def attempt(cfg: LingerConfig) -> ModeResult:
        eng = current_engine()
        if eng is not None and eng.collapse_mode(k):
            raise IntegrationError(f"chaos: forced step collapse (ik={ik})")
        return evolve_mode(
            background,
            thermo,
            k,
            lmax_photon=cfg.lmax_for_k(k, tau_end),
            lmax_nu=cfg.lmax_nu,
            nq=cfg.nq,
            lmax_massive_nu=cfg.lmax_massive_nu,
            tau_end=tau_end,
            record_tau=record_tau,
            rtol=cfg.rtol,
            atol=cfg.atol,
            tca_eps=cfg.tca_eps,
            amplitude=cfg.amplitude,
            telemetry=telemetry,
            monitor=monitor,
            first_step=cfg.first_step,
        )

    def on_retry(level: int, exc: IntegrationError) -> None:
        telemetry.record_degradation(
            "integrator",
            "transient_retry" if level == 0 else "ladder_escalation",
            f"ik={ik} level={level}: {exc}",
        )

    mode, level = run_with_ladder(config, attempt, transient_retries=1,
                                  on_retry=on_retry)
    if telemetry.enabled:
        # evolve_mode appended this mode's ModeMetrics; patch in the
        # grid index and the mode's CPU
        metric = telemetry.modes[-1]
        metric.ik = ik
        metric.cpu_seconds = mode.cpu_seconds
    header, payload = _mode_records(mode, k, ik, config)
    if level:
        header = replace(header, retry_level=level)
    return header, payload, mode


def _mode_records(
    mode: ModeResult, k: float, ik: int, config: LingerConfig
) -> tuple[ModeHeader, ModePayload]:
    """The two wire records for one completed mode."""
    # final-state observables via a one-point record on the system the
    # evolution already built (no second spline construction)
    obs = mode.final_observables()
    header = ModeHeader(
        ik=ik,
        k=k,
        tau_end=mode.tau_end,
        a_end=obs["a"],
        delta_c=obs["delta_c"],
        delta_b=obs["delta_b"],
        delta_g=obs["delta_g"],
        delta_nu=obs["delta_nu"],
        delta_nu_massive=obs["delta_nu_massive"],
        theta_b=obs["theta_b"],
        theta_g=obs["theta_g"],
        theta_nu=obs["theta_nu"],
        eta=obs["eta"],
        hdot=obs["hdot"],
        etadot=obs["etadot"],
        phi=obs["phi"],
        psi=obs["psi"],
        delta_m=obs["delta_m"],
        cpu_seconds=mode.cpu_seconds,
        n_rhs=float(mode.stats.n_rhs),
        lmax=mode.layout.lmax_photon,
    )
    payload = ModePayload(
        ik=ik,
        k=k,
        tau_end=mode.tau_end,
        a_end=obs["a"],
        amplitude=config.amplitude,
        n_steps=float(mode.stats.n_steps),
        f_gamma=mode.f_gamma_final,
        g_gamma=mode.g_gamma_final,
    )
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
    progress: bool = False,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor_constraints: bool = False,
    sparse_k: int | None = None,
) -> LingerResult:
    """The serial LINGER main loop.

    Wavenumbers are *computed* in dispatch order (largest first, as the
    paper does), one :func:`compute_mode` call each, but the result
    lists are returned in ascending-k order.
    Pass an enabled :class:`~repro.telemetry.Telemetry` to collect
    per-mode integrator metrics (and ``save`` it afterwards).

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

    wall0 = time.perf_counter()
    for count, idx in enumerate(kgrid.dispatch_order.tolist(), start=1):
        header, payload, mode = compute_mode(
            background, thermo, kgrid.k[idx], idx + 1, config,
            telemetry=telemetry, monitor=monitors[idx])
        headers[idx] = header
        payloads[idx] = payload
        modes[idx] = mode if config.keep_mode_results else None
        if progress:
            print(
                f"[linger] {count}/{nk} k={kgrid.k[idx]:.5f} "
                f"cpu={header.cpu_seconds:.2f}s "
                f"steps={payload.n_steps:.0f}"
            )
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
        telemetry.meta.setdefault("driver", "linger-serial")
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
