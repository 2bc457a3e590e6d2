"""repro.chaos — seeded, deterministic cross-layer fault injection.

PR 3's ``FaultyWorld`` injected faults at the message layer only; this
package extends the same pattern to every subsystem added since: the
on-disk result store (torn/garbled entry writes), the compiled RHS
kernels (compile failure, NaN poisoning, stale ``.so``), and the
integrator (forced step collapse on chosen modes) — all behind one
:class:`ChaosPolicy` and one installed
:class:`ChaosEngine` that production code queries at each injection
site.  The production-side response lives in :mod:`repro.resilience`;
:mod:`repro.verify.oracles.chaos_degradation_oracle` proves the two
meet: every injected fault class still reproduces the fault-free
golden C_l.

Usage::

    from repro import chaos

    policy = chaos.ChaosPolicy.from_profile("all", seed=1)
    with chaos.active(policy) as engine:
        result, stats = run_plinger(...)
    print(engine.injected)
"""

from .engine import (
    PROFILES,
    ChaosEngine,
    ChaosPolicy,
    active,
    current_engine,
    install,
    uninstall,
)

__all__ = [
    "ChaosEngine",
    "ChaosPolicy",
    "PROFILES",
    "active",
    "current_engine",
    "install",
    "uninstall",
]
