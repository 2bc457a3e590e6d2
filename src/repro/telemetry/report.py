"""The serializable product of a telemetered run: :class:`RunReport`.

A report is plain data — dataclasses of floats, ints and dicts — with a
stable JSON layout (``schema`` = ``repro.telemetry.RunReport/v1``) so
that the ``BENCH_*.json`` artifacts written by the benchmarks can be
diffed across commits.  Everything the paper's evaluation tables need
is here: per-mode integrator metrics (the flop-rate tables), per-tag
message counts and bytes (the message-economics table), and per-worker
busy/idle time (the Fig. 1 utilization argument).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
    "RunReport",
]

#: Format identifier embedded in every serialized report.
SCHEMA = "repro.telemetry.RunReport/v1"


def _opt_max(values) -> float | None:
    """max over the non-None entries, or None when there are none."""
    present = [v for v in values if v is not None]
    return max(present) if present else None


def _json_default(obj):
    """Coerce numpy scalars (which leak in from grid indices and stats)
    without importing numpy here."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


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

    @classmethod
    def from_dict(cls, d: dict) -> "ModeMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


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

    @classmethod
    def from_dict(cls, d: dict) -> "RankTraffic":
        return cls(rank=int(d["rank"]), role=str(d["role"]),
                   sent=dict(d.get("sent", {})),
                   received=dict(d.get("received", {})))


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

    @classmethod
    def from_dict(cls, d: dict) -> "WorkerMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


@dataclass
class FaultReport:
    """Fault-tolerance accounting of one PLINGER run.

    Written by the PLINGER master (and folded with worker-side
    retry counts by the driver); the chaos tests pin these fields
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
    #: elastic ranks admitted mid-run (sockets backend JOIN path);
    #: not a fault — growth is healthy — so excluded from any_faults
    ranks_joined: int = 0

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

    @classmethod
    def from_dict(cls, d: dict) -> "FaultReport":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


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

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


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

    @classmethod
    def from_dict(cls, d: dict) -> "SparseMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


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

    def merge(self, other: "DegradationMetrics") -> None:
        """Fold another section in (PLINGER worker payloads)."""
        for e in other.events:
            self.record(e["surface"], e["event"], e.get("detail", ""),
                        e.get("seconds", 0.0))

    @classmethod
    def from_dict(cls, d: dict) -> "DegradationMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


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

    @classmethod
    def from_dict(cls, d: dict) -> "ServeMetrics":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in names})


@dataclass
class RunReport:
    """Everything a telemetered run measured, ready for JSON."""

    meta: dict = field(default_factory=dict)
    modes: list[ModeMetrics] = field(default_factory=list)
    traffic: list[RankTraffic] = field(default_factory=list)
    workers: list[WorkerMetrics] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, dict] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)
    fault: FaultReport | None = None
    constraints: list[ConstraintMetrics] = field(default_factory=list)
    sparse: SparseMetrics | None = None
    degradation: DegradationMetrics | None = None
    serve: ServeMetrics | None = None
    created_unix: float = field(default_factory=time.time)

    # -- aggregates ---------------------------------------------------------

    @property
    def totals(self) -> dict:
        """Run-level aggregates over the per-mode and per-rank sections."""
        msg_by_tag: dict[str, dict[str, int]] = {}
        for rt in self.traffic:
            for tag, v in rt.sent.items():
                slot = msg_by_tag.setdefault(tag, {"count": 0, "bytes": 0})
                slot["count"] += v["count"]
                slot["bytes"] += v["bytes"]
        accepted = sum(m.n_steps for m in self.modes)
        rejected = sum(m.n_rejected for m in self.modes)
        return {
            "n_modes": len(self.modes),
            "n_rhs": sum(m.n_rhs for m in self.modes),
            "n_steps": accepted,
            "n_rejected": rejected,
            "n_stability_bound": sum(m.n_stability_bound
                                     for m in self.modes),
            # rejected over attempted steps: eight RHS evaluations each
            "wasted_step_fraction": rejected / (accepted + rejected)
            if accepted + rejected else 0.0,
            "flops_est": sum(m.flops_est for m in self.modes),
            "mode_wall_seconds": sum(m.wall_seconds for m in self.modes),
            "mode_cpu_seconds": sum(m.cpu_seconds for m in self.modes),
            "messages_sent_by_tag": msg_by_tag,
            "worker_busy_seconds": sum(w.busy_seconds for w in self.workers),
            "worker_idle_seconds": sum(w.idle_seconds for w in self.workers),
            "n_dead_workers": len(self.fault.dead_workers) if self.fault
            else 0,
            "n_retries": self.fault.total_retries if self.fault else 0,
            "constraints_monitored_modes": len(self.constraints),
            "max_pressure_residual": _opt_max(
                c.max_pressure_residual for c in self.constraints),
            "max_shear_residual": _opt_max(
                c.max_shear_residual for c in self.constraints),
            "max_exchange_residual": _opt_max(
                c.max_exchange_residual for c in self.constraints),
            "max_truncation_photon": _opt_max(
                c.truncation_photon for c in self.constraints),
            "sparse_factor": self.sparse.sparse_factor if self.sparse else 1,
            "sparse_mode_reduction": self.sparse.mode_reduction
            if self.sparse else 1.0,
            "sparse_est_seconds_saved": self.sparse.est_seconds_saved
            if self.sparse else 0.0,
            "degradation_events": self.degradation.total_events
            if self.degradation else 0,
            "degradation_by_surface": dict(
                self.degradation.events_by_surface)
            if self.degradation else {},
            "degradation_recovery_seconds":
            self.degradation.recovery_seconds if self.degradation else 0.0,
            "serve_requests": self.serve.requests if self.serve else 0,
            "serve_by_tier": dict(self.serve.by_tier)
            if self.serve else {},
            "serve_computed_runs": self.serve.computed_runs
            if self.serve else 0,
            "serve_warm_hit_rate": self.serve.warm_hit_rate
            if self.serve else 0.0,
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "created_unix": self.created_unix,
            "meta": dict(self.meta),
            "totals": self.totals,
            "modes": [asdict(m) for m in self.modes],
            "traffic": [asdict(t) for t in self.traffic],
            "workers": [asdict(w) for w in self.workers],
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "histograms": dict(self.histograms),
            "fault": asdict(self.fault) if self.fault is not None else None,
            "constraints": [asdict(c) for c in self.constraints],
            "sparse": asdict(self.sparse) if self.sparse is not None else None,
            "degradation": asdict(self.degradation)
            if self.degradation is not None else None,
            "serve": asdict(self.serve) if self.serve is not None else None,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=_json_default)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        """Load a v1 document.  Sections and totals this version no
        longer writes (the ``batches``, ``cache`` and ``rhs`` sections
        and the ``n_batches`` / ``lane_occupancy`` / ``cache_hits`` /
        ``cache_misses`` / ``rhs_evals`` totals of older reports) are
        dropped, not refused: a mode's evaluations are its
        ``ModeMetrics.n_rhs``."""
        if d.get("schema") != SCHEMA:
            raise ValueError(f"not a {SCHEMA} document: {d.get('schema')!r}")
        return cls(
            meta=dict(d.get("meta", {})),
            modes=[ModeMetrics.from_dict(m) for m in d.get("modes", [])],
            traffic=[RankTraffic.from_dict(t) for t in d.get("traffic", [])],
            workers=[WorkerMetrics.from_dict(w) for w in d.get("workers", [])],
            counters=dict(d.get("counters", {})),
            timers=dict(d.get("timers", {})),
            histograms=dict(d.get("histograms", {})),
            fault=FaultReport.from_dict(d["fault"])
            if d.get("fault") is not None else None,
            constraints=[ConstraintMetrics.from_dict(c)
                         for c in d.get("constraints", [])],
            sparse=SparseMetrics.from_dict(d["sparse"])
            if d.get("sparse") is not None else None,
            degradation=DegradationMetrics.from_dict(d["degradation"])
            if d.get("degradation") is not None else None,
            serve=ServeMetrics.from_dict(d["serve"])
            if d.get("serve") is not None else None,
            created_unix=float(d.get("created_unix", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_json(Path(path).read_text())
