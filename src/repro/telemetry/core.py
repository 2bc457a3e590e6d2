"""The run telemetry collector, which is also the run's saved report.

One :class:`Telemetry` instance accompanies one run, or one PLINGER
worker, which records its own traffic and schedule rows and publishes
its :meth:`~Telemetry.to_dict` through the transport's out-of-band
telemetry channel; the master folds that document in with
:meth:`~Telemetry.merge`, the same fold that :meth:`~Telemetry.load`
reads a saved report with.  Telemetry is **off by default**: every
instrumented call site receives :data:`NULL_TELEMETRY`, whose methods
are no-ops and whose ``enabled`` flag lets hot paths skip even argument
construction::

    if telemetry.enabled:
        telemetry.record_mode(k=k, ...)

so a disabled run does no timing calls and allocates nothing — the
physics output is bit-identical either way (instrumentation never
touches the numerics; the golden-regression tests enforce this).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import Mapping

from .report import (
    SCHEMA,
    ConstraintMetrics,
    DegradationMetrics,
    FaultReport,
    ModeMetrics,
    RankTraffic,
    ServeMetrics,
    SparseMetrics,
    WorkerMetrics,
    fold,
    load_row,
)

__all__ = ["Timer", "Telemetry", "NullTelemetry", "NULL_TELEMETRY"]

#: the sections that are lists of rows, by document key
_ROWS = {"modes": ModeMetrics, "traffic": RankTraffic,
         "workers": WorkerMetrics, "constraints": ConstraintMetrics}
#: the sections a run writes at most once (``None`` until then)
_SECTIONS = {"fault": FaultReport, "sparse": SparseMetrics,
             "degradation": DegradationMetrics, "serve": ServeMetrics}


class Timer:
    """An accumulating wall-clock timer.

    Use as a context manager (re-entrant intervals are not supported)::

        with tele.timer("phase.full"):
            ...
    """

    __slots__ = ("name", "total_seconds", "count", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0
        self._start: float | None = None

    def start(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError(f"timer {self.name!r} stopped before start")
        dt = time.perf_counter() - self._start
        self._start = None
        self.total_seconds += dt
        self.count += 1
        return dt

    def add(self, seconds: float, count: int = 1) -> None:
        """Fold an externally measured interval into the total."""
        self.total_seconds += float(seconds)
        self.count += int(count)

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def as_dict(self) -> dict:
        return {"total_seconds": self.total_seconds, "count": self.count}


def _tag_label(tag: int, tag_names: Mapping[int, str] | None) -> str:
    if tag_names is not None and tag in tag_names:
        return tag_names[tag]
    return f"tag_{tag}"


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


class Telemetry:
    """A per-run metrics collector and its report; build one, thread it
    everywhere, then :meth:`save` it."""

    enabled: bool = True

    def __init__(self) -> None:
        self.created_unix = time.time()
        self.meta: dict = {}
        self.counters: dict[str, int] = {}
        self.timers: dict[str, Timer] = {}
        self.modes: list[ModeMetrics] = []
        self.traffic: list[RankTraffic] = []
        self.workers: list[WorkerMetrics] = []
        self.constraints: list[ConstraintMetrics] = []
        self.fault: FaultReport | None = None
        self.sparse: SparseMetrics | None = None
        self.degradation: DegradationMetrics | None = None
        self.serve: ServeMetrics | None = None

    # -- scalar metrics -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def timer(self, name: str) -> Timer:
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = Timer(name)
        return t

    # -- structured records -------------------------------------------------

    def record_mode(self, **kwargs) -> ModeMetrics | None:
        """Append one per-mode record; returns it for later annotation."""
        mode = ModeMetrics(**kwargs)
        self.modes.append(mode)
        return mode

    def record_degradation(self, surface: str, event: str,
                           detail: str = "", seconds: float = 0.0) -> None:
        """Append one graceful-degradation event (kernel rebuild,
        store quarantine, transient integrator retry) to
        the run's ``degradation`` section."""
        if self.degradation is None:
            self.degradation = DegradationMetrics()
        self.degradation.record(surface, event, detail, seconds)

    def record_constraint(self, metrics: ConstraintMetrics) -> None:
        """Append one per-mode redundant-Einstein residual summary."""
        self.constraints.append(metrics)

    def record_traffic(
        self,
        rank: int,
        role: str,
        stats,
        tag_names: Mapping[int, str] | None = None,
    ) -> None:
        """Append one rank's :class:`~repro.mp.api.TrafficStats` (or its
        ``as_dict()`` form) as a ``traffic`` row."""
        d = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
        self.traffic.append(RankTraffic(
            rank=rank,
            role=role,
            sent={_tag_label(int(t), tag_names): dict(v)
                  for t, v in d.get("sent_by_tag", {}).items()},
            received={_tag_label(int(t), tag_names): dict(v)
                      for t, v in d.get("received_by_tag", {}).items()},
        ))

    def record_worker(
        self,
        rank: int,
        modes_done: int = 0,
        busy_seconds: float = 0.0,
        idle_seconds: float = 0.0,
    ) -> None:
        self.workers.append(WorkerMetrics(
            rank=rank, modes_done=modes_done,
            busy_seconds=busy_seconds, idle_seconds=idle_seconds,
        ))

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

    # -- the document: worker hand-off, save and load -------------------------

    def to_dict(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "created_unix": self.created_unix,
            "meta": dict(self.meta),
            "totals": self.totals,
            "counters": dict(self.counters),
            "timers": {n: t.as_dict() for n, t in self.timers.items()},
        }
        for key in _ROWS:
            doc[key] = [asdict(row) for row in getattr(self, key)]
        for key in _SECTIONS:
            section = getattr(self, key)
            doc[key] = asdict(section) if section is not None else None
        return doc

    def merge(self, doc: Mapping) -> None:
        """Fold a :meth:`to_dict` document into this collector: rows
        append, counters and timers add, a ``fault`` or ``degradation``
        section adds into this one's (:func:`~repro.telemetry.report.fold`)
        and ``meta`` keys this collector lacks are taken.  Keys it does
        not know — an older writer's ``histograms``, ``batches``,
        ``cache`` or ``rhs``, the derived ``totals`` — are skipped."""
        for key, value in (doc.get("meta") or {}).items():
            self.meta.setdefault(key, value)
        for name, n in (doc.get("counters") or {}).items():
            self.count(name, n)
        for name, d in (doc.get("timers") or {}).items():
            self.timer(name).add(d["total_seconds"], d["count"])
        for key, row in _ROWS.items():
            getattr(self, key).extend(load_row(row, d)
                                      for d in doc.get(key) or ())
        for key, cls in _SECTIONS.items():
            if doc.get(key) is None:
                continue
            section = load_row(cls, doc[key])
            if getattr(self, key) is None:
                setattr(self, key, section)
            else:
                fold(getattr(self, key), section)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Telemetry":
        """Load a v1 document.  Sections and totals this version no
        longer writes are dropped, not refused: a mode's evaluations
        are its ``ModeMetrics.n_rhs``."""
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document: {doc.get('schema')!r}")
        telemetry = cls()
        telemetry.created_unix = float(doc.get("created_unix", 0.0))
        telemetry.merge(doc)
        return telemetry

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True,
                                   default=_json_default) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "Telemetry":
        return cls.from_dict(json.loads(Path(path).read_text()))


class _NullTimer:
    """A timer whose intervals vanish; reused for every name."""

    __slots__ = ()
    total_seconds = 0.0
    count = 0

    def start(self):
        return self

    def stop(self) -> float:
        return 0.0

    def add(self, seconds: float, count: int = 1) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def as_dict(self) -> dict:
        return {"total_seconds": 0.0, "count": 0}


_NULL_TIMER = _NullTimer()


class NullTelemetry(Telemetry):
    """The disabled collector: records nothing, costs nothing.

    Shared as the module-level singleton :data:`NULL_TELEMETRY`; call
    sites may also branch on ``telemetry.enabled`` to skip measurement
    entirely.
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER

    def record_mode(self, **kwargs) -> None:  # type: ignore[override]
        return None

    def record_constraint(self, metrics) -> None:
        pass

    def record_degradation(self, surface, event, detail="",
                           seconds=0.0) -> None:
        pass

    def record_traffic(self, rank, role, stats, tag_names=None) -> None:
        pass

    def record_worker(self, rank, modes_done=0, busy_seconds=0.0,
                      idle_seconds=0.0) -> None:
        pass

    def merge(self, doc: Mapping) -> None:
        pass


#: The shared disabled collector — the default everywhere.
NULL_TELEMETRY = NullTelemetry()
