"""Sparse-k fast path: integrate coarse, spline sources, project dense.

Every wavenumber on the output grid normally pays a full stiff
Einstein-Boltzmann integration.  Doran (astro-ph/0503277) observed that
the line-of-sight source functions S_T(k, tau) are smooth in k, so the
hierarchy only needs integrating on a *coarse* subset of the grid; the
sources are then splined across k onto the dense grid, leaving only the
cheap j_l convolution (:func:`~repro.spectra.los.theta_l_los`) per
dense mode — one scatter of its samples onto the j_l table's grid and a
row of one matrix product, cheaper than the coarse integration it
follows (``benchmarks/bench_table_sparse.py`` asserts that).

The pipeline here is

1. :func:`~repro.linger.kgrid.sparse_kgrid` picks the coarse grid
   (every ``factor``-th dense point plus both endpoints, so the spline
   never extrapolates and exact hits stay bitwise);
2. ``run_linger(sparse_k=...)`` integrates it, serially or with
   ``nproc - 1`` modes at once on threads;
3. :func:`sparse_cl` stacks the recorded sources on a shared record
   grid (one stacked :func:`~repro.util.fastspline.fit_cubic` per group
   of coarse modes on one record grid — every mode with k <= 0.02, whose
   start time is capped), splines them across k
   (:func:`~repro.spectra.los.interpolate_sources_k`, one stacked fit
   more), and projects ``theta_l_los`` + ``cl_integrate_over_k`` on the
   dense grid, again a block per shared grid.

Accuracy is a tested contract, not a hope: the ``oracle.sparse_cl``
tolerance in :mod:`repro.verify.tolerances` bounds the dense-vs-sparse
C_l deviation, ``repro verify`` check 17 enforces it on every run of
the harness, and ``tests/test_sparse.py`` pins the convergence order.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..linger.kgrid import KGrid
from ..linger.serial import LingerConfig, LingerResult, run_linger
from ..perturbations import default_record_grid, record_grid_start
from ..telemetry import NULL_TELEMETRY, SparseMetrics, Telemetry
from ..util.fastspline import fit_cubic
from .cl import cl_integrate_over_k, los_l_grid
from .los import (
    BesselCache,
    SourceTable,
    _groups,
    interpolate_sources_k,
    sources_from_result,
    theta_l_los,
)

__all__ = ["SparseClResult", "coarse_subset", "sparse_cl", "run_sparse_cl",
           "sparse_sources"]


@dataclass
class SparseClResult:
    """Everything one sparse-k C_l evaluation produced."""

    l: np.ndarray
    cl: np.ndarray
    kgrid: KGrid  #: the dense output grid
    coarse_result: LingerResult  #: the coarse-grid integration
    sources: list[SourceTable]  #: dense-grid source tables (nk entries)
    metrics: SparseMetrics

    @property
    def k(self) -> np.ndarray:
        return self.kgrid.k


def coarse_subset(result: LingerResult, factor: int) -> LingerResult:
    """The coarse-grid slice of an already-integrated dense run.

    Subsets headers/payloads/modes at the :func:`sparse_kgrid` indices,
    so the dense-vs-sparse oracle can compare both paths from *one*
    integration instead of paying a second sweep.  Requires the dense
    run to have kept its mode results.
    """
    if int(factor) != factor or factor < 1:
        raise ParameterError("sparse factor must be an integer >= 1")
    factor = int(factor)
    nk = result.kgrid.nk
    idx = np.arange(0, nk, factor)
    if idx[-1] != nk - 1:
        idx = np.append(idx, nk - 1)
    take = [int(i) for i in idx]
    return LingerResult(
        params=result.params,
        kgrid=KGrid.from_k(result.kgrid.k[idx]),
        config=result.config,
        headers=[result.headers[i] for i in take],
        payloads=[result.payloads[i] for i in take],
        modes=[result.modes[i] for i in take],
        background=result.background,
        thermo=result.thermo,
        wall_seconds=result.wall_seconds * len(take) / nk,
        constraints=[result.constraints[i] for i in take]
        if len(result.constraints) == nk else [],
    )


def _leave_one_out_residuals(
    k_coarse: np.ndarray, stacked: np.ndarray
) -> tuple[float | None, float | None]:
    """Spline residual estimate at interior coarse nodes.

    Refit the k-spline without node i and compare its prediction at
    k_i against the integrated row, relative to that row's max |S|.
    This is the cheapest honest error estimate the fast path can make
    without integrating any extra mode.  A removed knot perturbs a
    cubic spline by a factor ~0.27 per node of distance, so each refit
    takes only the 12 nodes on either side of i: the result is within
    1e-6 relative of refitting the whole grid (5e-5 with 8), at a cost
    linear instead of quadratic in the number of coarse nodes.
    """
    n = k_coarse.size
    if n < 4:  # leave-one-out needs >= 3 remaining nodes for a spline
        return None, None
    window = 12
    rels = []
    for i in range(1, n - 1):
        near = np.r_[max(i - window, 0):i, i + 1:min(i + window, n - 1) + 1]
        pred = fit_cubic(k_coarse[near], stacked[near])(k_coarse[i])
        scale = np.max(np.abs(stacked[i]))
        if scale > 0.0:
            rels.append(float(np.max(np.abs(pred - stacked[i])) / scale))
    if not rels:
        return None, None
    r = np.asarray(rels)
    return float(r.max()), float(np.sqrt(np.mean(r * r)))


def sparse_sources(
    coarse_result: LingerResult,
    kgrid: KGrid,
) -> tuple[list[SourceTable], dict]:
    """Dense-grid source tables from a coarse-grid integration.

    Coarse sources are evaluated on one shared record grid (the dense
    grid's largest k starts earliest, so its grid covers every mode;
    times before a coarse mode's own first record are zero — the
    source is e^-kappa-suppressed there; the coarse modes of one record
    grid are fitted and evaluated as one block), splined across k at every
    shared time, and cut back to each dense mode's own start time.
    Dense k that are bitwise members of the coarse grid reuse the
    coarse :class:`SourceTable` object itself — the exact-hit path
    costs nothing in accuracy by construction.

    Returns the table list (ascending k) plus a stats dict for
    :class:`~repro.telemetry.SparseMetrics`.
    """
    k_coarse = coarse_result.kgrid.k
    k_dense = kgrid.k
    if not np.isin(k_coarse, k_dense).all():
        raise ParameterError(
            "coarse grid is not a subset of the dense grid; build it "
            "with sparse_kgrid()"
        )
    if k_coarse[0] != k_dense[0] or k_coarse[-1] != k_dense[-1]:
        raise ParameterError(
            "coarse grid must share the dense grid's endpoints "
            "(interpolation would extrapolate)"
        )
    coarse_tables = sources_from_result(coarse_result)

    background = coarse_result.background
    thermo = coarse_result.thermo
    config = coarse_result.config
    tau_end = (background.tau0 if config.tau_end is None
               else config.tau_end)
    shared_tau = default_record_grid(
        background, thermo, float(k_dense[-1]), tau_end=tau_end
    )
    stacked = np.zeros((k_coarse.size, shared_tau.size))
    for rows in _groups(s.tau.tobytes() for s in coarse_tables):
        tau = coarse_tables[rows[0]].tau
        j = np.searchsorted(shared_tau, tau[0])
        fit = fit_cubic(tau, np.column_stack(
            [coarse_tables[i].source for i in rows]))
        stacked[rows, j:] = fit(shared_tau[j:]).T

    interp = interpolate_sources_k(k_coarse, stacked, k_dense)
    lo_max, lo_rms = _leave_one_out_residuals(k_coarse, stacked)

    coarse_by_k = {float(s.k): s for s in coarse_tables}
    tau0 = background.tau0
    sources: list[SourceTable] = []
    exact = 0
    for i, k in enumerate(k_dense):
        hit = coarse_by_k.get(float(k))
        if hit is not None:
            exact += 1
            sources.append(hit)
            continue
        # each interpolated mode keeps only the times its own record
        # grid would cover (the earlier shared times are zero anyway)
        j = np.searchsorted(shared_tau, record_grid_start(
            background, thermo, float(k), tau_end=tau_end))
        sources.append(SourceTable(k=float(k), tau=shared_tau[j:],
                                   source=interp[i, j:], tau0=tau0))
    stats = {
        "exact_hits": exact,
        "interpolated": int(k_dense.size - exact),
        "interp_residual_max": lo_max,
        "interp_residual_rms": lo_rms,
    }
    return sources, stats


def sparse_cl(
    coarse_result: LingerResult,
    kgrid: KGrid,
    l_values: np.ndarray,
    sparse_factor: int | None = None,
    bessel: BesselCache | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SparseClResult:
    """C_l on the dense grid from a coarse-grid integration.

    ``coarse_result`` must be a recorded run (sources + mode results
    kept) on a :func:`sparse_kgrid` subset of ``kgrid``.  The returned
    C_l follows the same unnormalized convention as
    :func:`~repro.spectra.cl.cl_from_hierarchy`.  With telemetry
    enabled the :class:`~repro.telemetry.SparseMetrics` section lands
    in the run report.
    """
    l_values = np.asarray(l_values, dtype=int)
    n_coarse = coarse_result.kgrid.nk
    if sparse_factor is None:
        # infer from the grid ratio (endpoint append rounds up)
        sparse_factor = max(int(round((kgrid.nk - 1) / max(n_coarse - 1, 1))),
                            1)

    t0 = time.perf_counter()
    sources, stats = sparse_sources(coarse_result, kgrid)
    interp_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    theta = theta_l_los(sources, l_values, bessel=bessel)
    cl = cl_integrate_over_k(kgrid.k, theta,
                             n_s=coarse_result.params.n_s)
    project_seconds = time.perf_counter() - t0

    integrate_seconds = float(coarse_result.wall_seconds)
    metrics = SparseMetrics(
        sparse_factor=int(sparse_factor),
        n_dense=kgrid.nk,
        n_coarse=n_coarse,
        integrate_seconds=integrate_seconds,
        interp_seconds=float(interp_seconds),
        project_seconds=float(project_seconds),
        est_dense_seconds=integrate_seconds * kgrid.nk / n_coarse,
        **stats,
    )
    if telemetry.enabled:
        telemetry.sparse = metrics
    return SparseClResult(
        l=l_values,
        cl=cl,
        kgrid=kgrid,
        coarse_result=coarse_result,
        sources=sources,
        metrics=metrics,
    )


def run_sparse_cl(
    params,
    kgrid: KGrid,
    config: LingerConfig | None = None,
    sparse_factor: int = 4,
    l_values: np.ndarray | None = None,
    background=None,
    thermo=None,
    nproc: int = 2,
    telemetry: Telemetry = NULL_TELEMETRY,
    bessel: BesselCache | None = None,
) -> SparseClResult:
    """The end-to-end sparse-k sweep: integrate coarse, project dense.

    ``nproc`` keeps PLINGER's meaning — ``nproc - 1`` modes at once —
    but the ranks are threads of this process: the coarse sweep is one
    ``run_linger(sparse_k=...)`` call on the calling thread plus
    ``nproc - 2`` threads made for it (the default 2 is serial).  The
    mode results stay in memory, so no message is sent, and the C_l are
    the serial route's bit for bit.
    ``l_values`` defaults to the canonical
    :func:`~repro.spectra.cl.los_l_grid` up to the highest multipole
    the dense grid can project (``~ k_max tau0``).  The j_l tables are
    built per call unless ``bessel`` is handed in.
    """
    config = config or LingerConfig()
    if not (config.record_sources and config.keep_mode_results):
        raise ParameterError(
            "the sparse fast path projects recorded sources: run with "
            "record_sources=True and keep_mode_results=True"
        )
    if nproc < 2:
        raise ParameterError(f"nproc must be >= 2 (master + 1 worker), "
                             f"got {nproc}")
    threads = nullcontext()
    if nproc > 2:  # concurrent.futures loads logging: only when used
        from concurrent.futures import ThreadPoolExecutor

        threads = ThreadPoolExecutor(nproc - 2, "sparse-mode")
    with threads as executor:
        coarse = run_linger(
            params, kgrid, config, background=background, thermo=thermo,
            telemetry=telemetry, sparse_k=sparse_factor, executor=executor,
        )
    if l_values is None:
        l_max = max(int(0.8 * float(kgrid.k[-1])
                        * coarse.background.tau0), 2)
        l_values = los_l_grid(l_max)
    return sparse_cl(
        coarse, kgrid, l_values, sparse_factor=sparse_factor,
        bessel=bessel, telemetry=telemetry,
    )
