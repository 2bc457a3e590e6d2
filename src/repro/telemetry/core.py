"""The run telemetry collector.

One :class:`Telemetry` instance accompanies one run (or one PLINGER
worker, whose collector is serialized and shipped to the master through
the transport's out-of-band telemetry channel).  Telemetry is
**off by default**: every instrumented call site receives
:data:`NULL_TELEMETRY`, whose methods are no-ops and whose ``enabled``
flag lets hot paths skip even argument construction::

    if telemetry.enabled:
        telemetry.record_mode(k=k, ...)

so a disabled run does no timing calls and allocates nothing — the
physics output is bit-identical either way (instrumentation never
touches the numerics; the golden-regression tests enforce this).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .metrics import Counter, Histogram, Timer
from .report import (
    ConstraintMetrics,
    DegradationMetrics,
    FaultReport,
    ModeMetrics,
    RankTraffic,
    RunReport,
    RhsMetrics,
    ServeMetrics,
    SparseMetrics,
    WorkerMetrics,
)

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


def _tag_label(tag: int, tag_names: Mapping[int, str] | None) -> str:
    if tag_names is not None and tag in tag_names:
        return tag_names[tag]
    return f"tag_{tag}"


class Telemetry:
    """A per-run metrics collector; build one, thread it everywhere."""

    enabled: bool = True

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.timers: dict[str, Timer] = {}
        self.histograms: dict[str, Histogram] = {}
        self.modes: list[ModeMetrics] = []
        self.traffic: list[RankTraffic] = []
        self.workers: list[WorkerMetrics] = []
        self.fault: FaultReport | None = None
        self.constraints: list[ConstraintMetrics] = []
        self.sparse: SparseMetrics | None = None
        self.rhs: RhsMetrics | None = None
        self.degradation: DegradationMetrics | None = None
        self.serve: ServeMetrics | None = None
        self.meta: dict = {}

    # -- scalar metrics -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        c.inc(n)

    def timer(self, name: str) -> Timer:
        t = self.timers.get(name)
        if t is None:
            t = self.timers[name] = Timer(name)
        return t

    def observe(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        h.observe(value)

    # -- structured records -------------------------------------------------

    def record_mode(self, **kwargs) -> ModeMetrics | None:
        """Append one per-mode record; returns it for later annotation."""
        mode = ModeMetrics(**kwargs)
        self.modes.append(mode)
        return mode

    def annotate_last_mode(self, **kwargs) -> None:
        """Patch fields (ik, cpu_seconds, ...) onto the newest mode."""
        if not self.modes:
            return
        mode = self.modes[-1]
        for name, value in kwargs.items():
            setattr(mode, name, value)

    def record_rhs(self, evals: dict | None = None,
                   seconds: dict | None = None) -> None:
        """Merge RHS accounting into the run's ``rhs`` section.  Called
        once per evolved mode with the operator's counters; within one
        run the counts sum."""
        section = RhsMetrics(evals=dict(evals or {}),
                             seconds=dict(seconds or {}))
        if self.rhs is None:
            self.rhs = section
        else:
            self.rhs.merge(section)

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
        """Fold one rank's :class:`~repro.mp.api.TrafficStats` (or its
        ``as_dict()`` form) into the report."""
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

    # -- cross-rank merge ---------------------------------------------------

    def worker_payload(self) -> dict:
        """Serialize this (worker-side) collector for shipping to the
        master over the transport's telemetry side channel."""
        from dataclasses import asdict

        return {
            "modes": [asdict(m) for m in self.modes],
            "constraints": [asdict(c) for c in self.constraints],
            "counters": {n: c.value for n, c in self.counters.items()},
            "timers": {n: t.as_dict() for n, t in self.timers.items()},
            "rhs": asdict(self.rhs) if self.rhs is not None else None,
            "degradation": asdict(self.degradation)
            if self.degradation is not None else None,
        }

    def merge_worker_payload(self, payload: dict) -> None:
        """Fold a :meth:`worker_payload` dict back into this collector
        (keys it does not know — an older rank's ``batches`` — are
        skipped)."""
        for m in payload.get("modes", []):
            self.modes.append(ModeMetrics.from_dict(m))
        for c in payload.get("constraints", []):
            self.constraints.append(ConstraintMetrics.from_dict(c))
        for name, value in payload.get("counters", {}).items():
            self.count(name, value)
        for name, d in payload.get("timers", {}).items():
            self.timer(name).add(d["total_seconds"], d["count"])
        if payload.get("rhs") is not None:
            self.record_rhs(payload["rhs"]["evals"],
                            payload["rhs"].get("seconds"))
        if payload.get("degradation") is not None:
            if self.degradation is None:
                self.degradation = DegradationMetrics()
            self.degradation.merge(
                DegradationMetrics.from_dict(payload["degradation"])
            )

    # -- product ------------------------------------------------------------

    def build_report(self, meta: Mapping | None = None) -> RunReport:
        merged_meta = dict(self.meta)
        if meta:
            merged_meta.update(meta)
        return RunReport(
            meta=merged_meta,
            modes=list(self.modes),
            traffic=list(self.traffic),
            workers=list(self.workers),
            counters={n: c.value for n, c in self.counters.items()},
            timers={n: t.as_dict() for n, t in self.timers.items()},
            histograms={n: h.as_dict() for n, h in self.histograms.items()},
            fault=self.fault,
            constraints=list(self.constraints),
            sparse=self.sparse,
            rhs=self.rhs,
            degradation=self.degradation,
            serve=self.serve,
        )


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

    def observe(self, name: str, value: float) -> None:
        pass

    def record_mode(self, **kwargs) -> None:  # type: ignore[override]
        return None

    def annotate_last_mode(self, **kwargs) -> None:
        pass

    def record_constraint(self, metrics) -> None:
        pass

    def record_rhs(self, evals=None, seconds=None) -> None:
        pass

    def record_degradation(self, surface, event, detail="",
                           seconds=0.0) -> None:
        pass

    def record_traffic(self, rank, role, stats, tag_names=None) -> None:
        pass

    def record_worker(self, rank, modes_done=0, busy_seconds=0.0,
                      idle_seconds=0.0) -> None:
        pass

    def merge_worker_payload(self, payload: dict) -> None:
        pass


#: The shared disabled collector — the default everywhere.
NULL_TELEMETRY = NullTelemetry()
