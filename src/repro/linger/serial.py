"""The serial LINGER driver: loop over k, integrate, collect records.

:func:`compute_modes_batch` is the unit of work — the same function a
PLINGER worker executes for the wavenumbers of each WORK message the
master hands it (:func:`compute_mode` is its one-k call).
:func:`run_linger` is the serial main loop over the whole grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..params import CosmologyParams
from ..perturbations import (
    ModeResult,
    default_record_grid,
    evolve_modes_batched,
)
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .kgrid import KGrid
from .records import ModeHeader, ModePayload

__all__ = [
    "LingerConfig",
    "LingerResult",
    "build_tables",
    "compute_mode",
    "compute_modes_batch",
    "dispatch_chunks",
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
    #: engine of both phases of a mode, tight-coupling and full: "auto"
    #: (default: the fastest available), "cext" (compiled RHS kernels
    #: and DVERK step loop, bitwise the python driver) or "python" (the
    #: reference).  Travels with the pickled config to PLINGER workers;
    #: never changes which numbers come out at nq=0.
    rhs_kernel: str = "auto"

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
    cache=None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> tuple[Background, ThermalHistory]:
    """The k-independent tables of a run, built once per cosmology.

    Each table is taken as handed in, else loaded-or-built through
    ``cache`` (a :class:`~repro.cache.PrecomputeCache`), else built.
    Whatever is produced here is timed into the ``background.build`` /
    ``thermo.build`` telemetry timers — every driver and every worker
    fallback gets its tables through this one seam, so a run's report
    accounts for them wherever they were made.  A thermal history
    solved here (not loaded) also leaves its work counts,
    ``thermo.ode_rhs_evals``, ``thermo.ode_rhs_compiled``,
    ``thermo.ode_steps``, ``thermo.ode_rejected``,
    ``thermo.saha_sweeps`` and ``thermo.saha_rows``: they repeat exactly
    for a cosmology, so a regression in the build shows as a count
    before it shows as a time.  The second says which right-hand side
    the stepper evaluated: the compiled ``thermo_rhs`` (equal to the
    first) in a process with the compiled object, ``ThermalHistory._rhs``
    (0) without.  The last is how many grid rows the Saha pre-pass swept:
    those that can precede the switch to the Peebles ODE plus a few
    (3616 of 6000 on ``standard_cdm``), all of them only if the switch
    were not among those.
    """
    if background is None:
        with telemetry.timer("background.build"):
            background = (cache.background(params) if cache is not None
                          else Background(params))
    if thermo is None:
        with telemetry.timer("thermo.build"):
            thermo = (cache.thermal(background) if cache is not None
                      else ThermalHistory(background))
        for name, n in (thermo._build_counts or {}).items():
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
    """Integrate one wavenumber and build the two output records: the
    one-lane call of :func:`compute_modes_batch`."""
    return compute_modes_batch(background, thermo, [k], [ik], config,
                               telemetry=telemetry, monitors=[monitor])[0]


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


def compute_modes_batch(
    background: Background,
    thermo: ThermalHistory,
    ks,
    iks,
    config: LingerConfig,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitors=None,
) -> list[tuple[ModeHeader, ModePayload, ModeResult]]:
    """Integrate a chunk of wavenumbers and build each mode's two
    output records.

    This is exactly the work between "receive a wavenumber" and "send
    the results to the master" in the paper's worker subroutine, for
    the chunk a WORK message carries: one
    :func:`~repro.perturbations.evolve.evolve_modes_batched` call (one
    operator assembly, then each mode evolved and timed on its own),
    then the wire records mode by mode.  All modes in a chunk must
    share one lmax (see :func:`dispatch_chunks`); a header's
    ``cpu_seconds`` is its own mode's cost at any chunk length.

    ``monitors`` is None or one per-record-point observer per mode
    (each None or a
    :class:`~repro.verify.constraints.ConstraintMonitor`).
    """
    ks = [float(k) for k in ks]
    iks = [int(ik) for ik in iks]
    if len(ks) != len(iks) or not ks:
        raise ParameterError("compute_modes_batch needs matching ks/iks")
    tau_end = background.tau0 if config.tau_end is None else config.tau_end
    lmaxes = {config.lmax_for_k(k, tau_end) for k in ks}
    if len(lmaxes) != 1:
        raise ParameterError(
            "all modes in a batch chunk must share one lmax; "
            "group the dispatch order with dispatch_chunks()"
        )
    lmax = lmaxes.pop()
    record_tau = [
        default_record_grid(background, thermo, k, tau_end=tau_end)
        if config.record_sources
        else None
        for k in ks
    ]
    modes = evolve_modes_batched(
        background,
        thermo,
        ks,
        lmax_photon=lmax,
        lmax_nu=config.lmax_nu,
        nq=config.nq,
        lmax_massive_nu=config.lmax_massive_nu,
        tau_end=tau_end,
        record_tau=record_tau,
        rtol=config.rtol,
        atol=config.atol,
        tca_eps=config.tca_eps,
        amplitude=config.amplitude,
        telemetry=telemetry,
        monitors=monitors,
        rhs_kernel=config.rhs_kernel,
        first_step=config.first_step,
    )
    if telemetry.enabled:
        # evolve_modes_batched appended one ModeMetrics per lane, in
        # lane order; patch in the grid index and the lane's CPU
        for metric, mode, ik in zip(telemetry.modes[-len(ks):], modes, iks):
            metric.ik = ik
            metric.cpu_seconds = mode.cpu_seconds
    return [
        (*_mode_records(mode, k, ik, config), mode)
        for mode, k, ik in zip(modes, ks, iks)
    ]


def dispatch_chunks(
    kgrid: KGrid,
    config: LingerConfig,
    tau_end: float,
    batch_size: int,
) -> list[list[int]]:
    """Group the dispatch order into chunks of up to ``batch_size``
    grid indices.

    Chunks follow the paper's largest-k-first schedule and are split
    wherever the per-k lmax changes (``lmax_mode="scaled"``), since a
    chunk shares one operator assembly and so one state layout.
    ``batch_size=1`` is the paper's dispatch order, one k at a time.
    """
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    chunks: list[list[int]] = []
    cur: list[int] = []
    cur_lmax = None
    for idx in kgrid.dispatch_order:
        lmax = config.lmax_for_k(float(kgrid.k[idx]), tau_end)
        if cur and (lmax != cur_lmax or len(cur) >= batch_size):
            chunks.append(cur)
            cur = []
        cur.append(int(idx))
        cur_lmax = lmax
    if cur:
        chunks.append(cur)
    return chunks


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
    batch_size: int = 1,
    cache=None,
    monitor_constraints: bool = False,
    sparse_k: int | None = None,
) -> LingerResult:
    """The serial LINGER main loop.

    Wavenumbers are *computed* in dispatch order (largest first, as the
    paper does) but the result lists are returned in ascending-k order.
    The dispatch order is cut into equal-lmax chunks of up to
    ``batch_size`` modes and each chunk is one
    :func:`compute_modes_batch` call.  ``batch_size`` is how many modes
    share one operator assembly (about 0.5 ms of set-up per chunk),
    never how a mode steps: every mode is integrated on its own and
    gives the same bits at any chunk length.
    Pass an enabled :class:`~repro.telemetry.Telemetry` to collect
    per-mode integrator metrics (build a
    :class:`~repro.telemetry.RunReport` from it afterwards).

    ``cache`` (a :class:`~repro.cache.PrecomputeCache`) builds-or-loads
    the background and thermal tables through the content-addressed
    store — a warm cache skips both solves, bit-identically — and its
    metrics land in the telemetry report's ``cache`` section.

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
                                      cache, telemetry)

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

    tau_end = background.tau0 if config.tau_end is None else config.tau_end
    chunks = dispatch_chunks(kgrid, config, tau_end, batch_size)
    wall0 = time.perf_counter()
    count = 0
    for chunk in chunks:
        res = compute_modes_batch(
            background, thermo,
            [float(kgrid.k[i]) for i in chunk],
            [i + 1 for i in chunk],
            config, telemetry=telemetry,
            monitors=[monitors[i] for i in chunk],
        )
        for idx, (header, payload, mode) in zip(chunk, res):
            headers[idx] = header
            payloads[idx] = payload
            modes[idx] = mode if config.keep_mode_results else None
            count += 1
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
        if batch_size > 1:
            telemetry.meta.setdefault("batch_size", batch_size)
        if cache is not None:
            telemetry.meta.setdefault("cache", True)
            telemetry.cache = cache.metrics

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
