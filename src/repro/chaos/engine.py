"""The seeded cross-layer fault-injection engine.

:class:`ChaosPolicy` declares *what* to break — cache-store writes,
compiled-kernel outputs/compilation, the content-addressed ``.so``
cache and chosen integrator modes — and :class:`ChaosEngine` decides
*when*, deterministically from the seed and per-site opportunity
counters, so a given (policy, code path) pair always injects the same
faults.

The engine extends the mp-layer ``FaultyWorld`` pattern (PR 3) across
the whole stack: production code asks the installed engine for a
decision at each injection site and otherwise pays one global read
(:func:`current_engine` is ``None`` on clean runs).  Installation is
process-global so forked PLINGER workers inherit the active policy;
each process then counts its own opportunities, which keeps every rank
individually deterministic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields

__all__ = [
    "ChaosPolicy",
    "ChaosEngine",
    "active",
    "current_engine",
    "install",
    "uninstall",
]

#: Named bundles for ``--chaos-profile``: which budgets a profile arms.
PROFILES = {
    "cache": {"cache_write_faults": 1},
    "kernel": {"kernel_nan_faults": 1, "compile_faults": 1,
               "stale_so_faults": 1},
    "integrator": {"integrator_faults": 1},
    "all": {"cache_write_faults": 1, "kernel_nan_faults": 1,
            "compile_faults": 1, "stale_so_faults": 1,
            "integrator_faults": 1},
}


@dataclass(frozen=True)
class ChaosPolicy:
    """What to inject.  Every budget counts *faults*, not probabilities.

    ``seed``
        Phases the kernel-poison site (which of the first evaluations
        gets poisoned) so different seeds hit different integrator
        states; all other sites have few opportunities and fire on
        their first ones.
    ``cache_write_faults`` / ``cache_write_mode``
        Corrupt that many npz store writes — ``"garble"`` flips bytes
        mid-file (digest mismatch), ``"torn"`` truncates the tmp file
        before the atomic rename (torn write).
    ``kernel_nan_faults``
        Poison that many compiled outputs with NaN: an RHS evaluation
        (``rhs_tca`` or ``rhs_full``) under the python driver, a whole
        phase's end state under the compiled step loop — so a mode on
        the compiled loop offers two opportunities, one per phase.
    ``compile_faults`` / ``stale_so_faults``
        Fail that many ``.so`` compilations / pre-plant a truncated
        stale ``.so`` at the content-addressed path that many times.
    ``integrator_faults``
        Force a step collapse (one ``IntegrationError``) on that many
        distinct wavenumbers — the first N distinct iks attempted.
    """

    seed: int = 0
    cache_write_faults: int = 0
    cache_write_mode: str = "garble"
    kernel_nan_faults: int = 0
    compile_faults: int = 0
    stale_so_faults: int = 0
    integrator_faults: int = 0

    @classmethod
    def from_profile(cls, profile: str, seed: int = 0,
                     **overrides) -> "ChaosPolicy":
        """Build a policy from a named profile (see :data:`PROFILES`)."""
        if profile not in PROFILES:
            raise ValueError(
                f"unknown chaos profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        kwargs: dict = {"seed": seed, **PROFILES[profile], **overrides}
        return cls(**kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ChaosEngine:
    """Deterministic decision-maker over one :class:`ChaosPolicy`.

    Each injection site calls a decision method; the engine counts the
    opportunity (thread-safe) and answers from the policy's budget.  A
    site with budget ``b`` and phase ``p`` fires on opportunities
    ``p .. p+b-1`` — no randomness, so a fixed (seed, workload) pair
    replays identically.  ``injected`` tallies fired faults per class.
    """

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        self._seen: dict[str, int] = {}
        self._collapsed: set[int] = set()
        self.injected: dict[str, int] = {}

    def _take(self, name: str, budget: int, phase: int = 0) -> bool:
        with self._lock:
            idx = self._seen.get(name, 0)
            self._seen[name] = idx + 1
            if budget <= 0 or not phase <= idx < phase + budget:
                return False
            self.injected[name] = self.injected.get(name, 0) + 1
            return True

    # -- cache surface -------------------------------------------------
    def cache_write_fault(self, key: str) -> str | None:
        """Corrupt this store write?  Returns the mode or None."""
        if self._take("cache_write", self.policy.cache_write_faults):
            return self.policy.cache_write_mode
        return None

    # -- compiled-kernel surface --------------------------------------
    def poison_rhs(self, kernel: str) -> bool:
        """Poison this compiled output (one RHS evaluation, or one
        compiled phase) with NaN?

        The seed phases which evaluation gets hit, so different seeds
        poison different integrator states; the python kernel is never
        poisoned (it is the degradation floor).
        """
        if kernel == "python":
            return False
        return self._take("kernel_nan", self.policy.kernel_nan_faults,
                          phase=self.policy.seed % 7)

    def fail_compile(self) -> bool:
        """Fail this .so compilation attempt?"""
        return self._take("compile", self.policy.compile_faults)

    def stale_so(self) -> bool:
        """Plant a truncated stale .so before this build resolves?"""
        return self._take("stale_so", self.policy.stale_so_faults)

    # -- integrator surface -------------------------------------------
    def collapse_mode(self, ik: int) -> bool:
        """Force a step collapse on this wavenumber (once per ik)?

        The first ``integrator_faults`` distinct iks attempted each
        fail exactly once; their retry runs clean.
        """
        budget = self.policy.integrator_faults
        with self._lock:
            if budget <= 0 or ik in self._collapsed:
                return False
            if len(self._collapsed) >= budget:
                return False
            self._collapsed.add(ik)
            self.injected["integrator"] = (
                self.injected.get("integrator", 0) + 1
            )
            return True

    def summary(self) -> dict:
        """Injected-fault counts plus the policy, for reports."""
        with self._lock:
            return {"policy": self.policy.as_dict(),
                    "injected": dict(self.injected),
                    "opportunities": dict(self._seen)}


#: The process-global engine; ``None`` means chaos is off (the clean,
#: zero-overhead default — every injection site is one global read).
_ENGINE: ChaosEngine | None = None


def current_engine() -> ChaosEngine | None:
    """The installed engine, or None on clean runs."""
    return _ENGINE


def install(engine: ChaosEngine | None) -> ChaosEngine | None:
    """Install (or, with None, clear) the process-global engine."""
    global _ENGINE
    _ENGINE = engine
    return engine


def uninstall() -> None:
    install(None)


@contextmanager
def active(policy_or_engine: ChaosPolicy | ChaosEngine):
    """Run a block under an active chaos engine, restoring on exit."""
    eng = (policy_or_engine
           if isinstance(policy_or_engine, ChaosEngine)
           else ChaosEngine(policy_or_engine))
    prev = _ENGINE
    install(eng)
    try:
        yield eng
    finally:
        install(prev)
