"""The typed rows of a run's telemetry document.

A :class:`~repro.telemetry.core.Telemetry` collects — and saves, with
a stable JSON layout (``schema`` = ``repro.telemetry.RunReport/v1``) —
a run's accounting as these dataclasses: per-mode integrator metrics
(the flop-rate tables), per-tag message counts and bytes (the
message-economics table), per-worker busy/idle time (the Fig. 1
utilization argument), and the one-per-run ``fault``, ``sparse``,
``degradation`` and ``serve`` sections.  :func:`load_row` reads any of
them back from its dict and :func:`fold` adds one section into another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = [
    "SCHEMA",
    "ModeMetrics",
    "RankTraffic",
    "WorkerMetrics",
    "FaultReport",
    "ConstraintMetrics",
    "SparseMetrics",
    "DegradationMetrics",
    "ServeMetrics",
    "load_row",
    "fold",
]

#: Format identifier embedded in every serialized report.
SCHEMA = "repro.telemetry.RunReport/v1"


def load_row(cls, d: dict):
    """A row of dataclass ``cls`` from its dict; keys the class does not
    declare (fields an older or newer writer had) are dropped."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in d.items() if k in names})


def fold(into, other) -> None:
    """Add section ``other`` into ``into`` (same class), field by field:
    lists extend, per-key counts add, numbers add, and a field ``into``
    lacks (``None``) takes ``other``'s.  Meant for the sections whose
    fields are counts — ``fault`` and ``degradation``, which every
    rank may write; ``sparse`` and ``serve`` are written by one."""
    for f in fields(into):
        mine, theirs = getattr(into, f.name), getattr(other, f.name)
        if isinstance(mine, list):
            mine.extend(theirs)
        elif isinstance(mine, dict):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        elif theirs is not None:
            setattr(into, f.name, theirs if mine is None else mine + theirs)


@dataclass
class ModeMetrics:
    """Integrator cost of one wavenumber (one LINGER work unit)."""

    k: float
    ik: int = 0  #: 1-based grid index (0 = not assigned yet)
    lmax: int = 0
    n_rhs: int = 0
    n_steps: int = 0  #: accepted steps
    n_rejected: int = 0
    #: attempts whose step the Thomson stability bound set
    n_stability_bound: int = 0
    flops_est: int = 0  #: estimated floating-point operations
    tau_switch: float = 0.0  #: TCA -> full hierarchy switch time [Mpc]
    tca_wall_seconds: float = 0.0
    full_wall_seconds: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0


@dataclass
class RankTraffic:
    """Per-tag message traffic of one rank, as sent/received maps
    ``{tag_name: {"count": int, "bytes": int}}``."""

    rank: int
    role: str  #: "master" | "worker"
    sent: dict[str, dict[str, int]] = field(default_factory=dict)
    received: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def messages_sent(self) -> int:
        return sum(v["count"] for v in self.sent.values())

    @property
    def messages_received(self) -> int:
        return sum(v["count"] for v in self.received.values())

    @property
    def bytes_sent(self) -> int:
        return sum(v["bytes"] for v in self.sent.values())

    @property
    def bytes_received(self) -> int:
        return sum(v["bytes"] for v in self.received.values())


@dataclass
class WorkerMetrics:
    """Schedule accounting of one worker rank."""

    rank: int
    modes_done: int = 0
    busy_seconds: float = 0.0  #: time spent inside mode integrations
    idle_seconds: float = 0.0  #: time spent waiting on the master

    @property
    def utilization(self) -> float:
        total = self.busy_seconds + self.idle_seconds
        return self.busy_seconds / total if total > 0 else 0.0


@dataclass
class FaultReport:
    """Fault-tolerance accounting of one PLINGER run.

    Written by the PLINGER master, with each worker's READY re-sends
    folded in from its document; the chaos tests pin these fields
    against the exact number of injected faults.  An additive v1
    extension: reports without a ``fault`` section load unchanged.
    """

    #: ranks declared dead (quarantined) by the liveness detector
    dead_workers: list[int] = field(default_factory=list)
    #: number of reassignment events (one per quarantine/resync requeue)
    reassignments: int = 0
    #: total wavenumbers that were re-dispatched at least once
    reassigned_modes: int = 0
    #: retry counts keyed by tag name (e.g. ``{"READY": 2, "WORK": 3}``)
    retries_by_tag: dict[str, int] = field(default_factory=dict)
    #: READY messages that arrived while work was outstanding (a worker
    #: that lost the master's reply and re-requested)
    ready_resyncs: int = 0
    #: results discarded because header/payload failed validation
    corrupt_results: int = 0
    #: headers whose tag-5 payload never arrived in time
    payload_timeouts: int = 0
    #: payloads that arrived with no matching in-flight header
    orphan_payloads: int = 0
    #: valid results for modes already recorded (duplicates discarded)
    duplicate_results: int = 0
    #: messages consumed and discarded because their tag was unexpected
    unexpected_tags: int = 0
    #: modes that needed the integration escalation ladder,
    #: as ``[{"ik": int, "level": int}, ...]``
    degraded_modes: list[dict] = field(default_factory=list)
    #: wallclock spent between losing a result and re-recording it
    recovery_wall_seconds: float = 0.0
    #: heartbeats received by the master
    heartbeats_received: int = 0

    @property
    def total_retries(self) -> int:
        return sum(self.retries_by_tag.values())

    @property
    def any_faults(self) -> bool:
        return bool(
            self.dead_workers or self.reassignments or self.total_retries
            or self.ready_resyncs or self.corrupt_results
            or self.payload_timeouts or self.orphan_payloads
            or self.duplicate_results or self.unexpected_tags
            or self.degraded_modes
        )

    def bump_retry(self, tag_name: str, n: int = 1) -> None:
        self.retries_by_tag[tag_name] = \
            self.retries_by_tag.get(tag_name, 0) + n


@dataclass
class ConstraintMetrics:
    """Redundant-Einstein residual summary for one wavenumber.

    Produced by ``repro.verify.ConstraintMonitor`` when a run is driven
    with ``monitor_constraints=True``: the maxima / RMS of the per-term
    MB95 21c/21d evolution-equation residuals, the Thomson
    momentum-exchange cancellation, and the hierarchy truncation
    indicators, plus stride-decimated residual histories on the record
    grid.  Maxima are ``None`` (not NaN — the JSON layout stays
    round-trippable) when no valid sample exists, e.g. a mode recorded
    only inside tight coupling.  Like ``fault``, an
    additive v1 extension: reports without a ``constraints`` section
    load unchanged.
    """

    k: float
    ik: int = 0  #: 1-based grid index (0 = not assigned yet)
    n_samples: int = 0
    max_pressure_residual: float | None = None
    rms_pressure_residual: float | None = None
    max_shear_residual: float | None = None
    rms_shear_residual: float | None = None
    max_exchange_residual: float | None = None
    #: max |F_lmax| / max|F_{0..2}| over the source era
    truncation_photon: float | None = None
    #: max |G_lmax| / max|G_{0..2}| over the source era
    truncation_polarization: float | None = None
    tau_history: list = field(default_factory=list)
    pressure_history: list = field(default_factory=list)
    shear_history: list = field(default_factory=list)


@dataclass
class SparseMetrics:
    """Accounting of one sparse-k fast-path C_l evaluation.

    Written by :func:`~repro.spectra.sparse.sparse_cl`: how many modes
    were actually integrated vs interpolated, leave-one-out residuals of
    the k-spline at interior coarse nodes (the cheapest honest estimate
    of the interpolation error), and the time the fast path saved
    relative to integrating the dense grid.  Like ``fault``/
    ``constraints``, an additive v1 extension: reports without a
    ``sparse`` section load unchanged.
    """

    sparse_factor: int = 1
    n_dense: int = 0  #: modes on the output (dense) grid
    n_coarse: int = 0  #: modes actually integrated
    exact_hits: int = 0  #: dense modes served bitwise from coarse runs
    interpolated: int = 0  #: dense modes served by the k-spline
    #: leave-one-out spline residual at interior coarse nodes, relative
    #: to the max |S| of the held-out row (max / rms over nodes)
    interp_residual_max: float | None = None
    interp_residual_rms: float | None = None
    integrate_seconds: float = 0.0  #: coarse-grid integration wall time
    interp_seconds: float = 0.0  #: source stacking + k-spline wall time
    project_seconds: float = 0.0  #: theta_l_los + k-quadrature wall time
    #: dense-integration estimate (coarse seconds scaled by nk ratio)
    est_dense_seconds: float = 0.0

    @property
    def est_seconds_saved(self) -> float:
        """Estimated wall time the fast path saved vs dense integration."""
        spent = (self.integrate_seconds + self.interp_seconds
                 + self.project_seconds)
        return max(self.est_dense_seconds - spent, 0.0)

    @property
    def mode_reduction(self) -> float:
        """Dense-to-coarse mode-count ratio (>= 1)."""
        return self.n_dense / self.n_coarse if self.n_coarse else 0.0


@dataclass
class DegradationMetrics:
    """Graceful-degradation event log (the chaos engine's ledger).

    Every recovery the resilience layer performs — a compiled object
    rebuilt after a torn ``.so``, a corrupt store entry quarantined, a
    transient integrator retry — lands here as one event,
    tagged by *surface* (``cache``, ``kernel``, ``integrator``,
    ``mp``).  Additive v1 extension like ``sparse``: reports without a
    ``degradation`` section load unchanged.
    """

    #: Each event: {"surface", "event", "detail", "seconds"}.
    events: list = field(default_factory=list)
    events_by_surface: dict = field(default_factory=dict)
    #: Total wallclock spent inside recovery paths (retry sleeps,
    #: rebuilds, recomputed evaluations) where the site measured it.
    recovery_seconds: float = 0.0

    @property
    def total_events(self) -> int:
        return len(self.events)

    def record(self, surface: str, event: str, detail: str = "",
               seconds: float = 0.0) -> None:
        self.events.append({"surface": surface, "event": event,
                            "detail": detail, "seconds": float(seconds)})
        self.events_by_surface[surface] = (
            self.events_by_surface.get(surface, 0) + 1
        )
        self.recovery_seconds += float(seconds)

    def count(self, surface: str, event: str | None = None) -> int:
        """Events on a surface, optionally of one kind."""
        return sum(
            1 for e in self.events
            if e["surface"] == surface
            and (event is None or e["event"] == event)
        )


@dataclass
class ServeMetrics:
    """Per-request accounting of the spectrum service.

    Written by :class:`~repro.serve.daemon.SpectrumServer`: every
    request lands in one tier — ``store`` (exact hit in the
    content-addressed run-result store), ``coalesced`` (awaited an
    identical in-flight computation), ``warm`` (computed with the
    cosmology's tables still resident in the pool's LRU) or ``cold``
    (computed after building fresh tables) — with
    its queue wait and wall clock.  ``computed_runs`` counts *distinct*
    computations, so on a duplicate-heavy mix
    ``computed_runs < requests`` is the coalescing guarantee made
    measurable.  Additive v1 extension like ``degradation``:
    reports without a ``serve`` section load unchanged.
    """

    requests: int = 0
    #: tier -> request count ("store" | "coalesced" | "warm" | "cold")
    by_tier: dict[str, int] = field(default_factory=dict)
    #: distinct computations dispatched (the coalescing counter)
    computed_runs: int = 0
    errors: int = 0
    #: wall between a request arriving and its tier resolving
    queue_wait_seconds: float = 0.0
    #: wall inside actual spectrum computations (misses only)
    compute_seconds: float = 0.0
    #: tier -> total request wall seconds (for mean-latency reporting)
    wall_by_tier: dict[str, float] = field(default_factory=dict)
    #: run-result store occupancy at last request
    store_entries: int = 0
    store_bytes: int = 0
    store_evictions: int = 0
    store_corrupt: int = 0
    #: cosmologies whose tables are resident in the warm pool
    resident_models: int = 0

    @property
    def warm_hit_rate(self) -> float:
        """Fraction of requests that skipped a cold computation."""
        if not self.requests:
            return 0.0
        cold = self.by_tier.get("cold", 0)
        return 1.0 - cold / self.requests

    def record_request(self, tier: str, queue_wait: float,
                       wall: float) -> None:
        self.requests += 1
        self.by_tier[tier] = self.by_tier.get(tier, 0) + 1
        self.queue_wait_seconds += float(queue_wait)
        self.wall_by_tier[tier] = (
            self.wall_by_tier.get(tier, 0.0) + float(wall)
        )
