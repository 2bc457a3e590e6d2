"""repro — a reproduction of Bode & Bertschinger (Supercomputing '95),
"Parallel Linear General Relativity and CMB Anisotropies".

The package implements the full LINGER/PLINGER system in Python:

* :mod:`repro.background`    — FRW expansion, massive-neutrino integrals
* :mod:`repro.thermo`        — recombination and the thermal history
* :mod:`repro.integrators`   — DVERK (Verner 6(5)) re-implementation
* :mod:`repro.perturbations` — the synchronous-gauge Einstein-Boltzmann
  system (photons with polarization, neutrinos, massive neutrinos on a
  momentum grid, tight coupling)
* :mod:`repro.linger`        — the serial driver and output records
* :mod:`repro.mp`            — the paper's message-passing wrapper API
* :mod:`repro.plinger`       — the master/worker parallel driver
* :mod:`repro.cluster`       — 1995 machine models + schedule simulator
* :mod:`repro.spectra`       — C_l (hierarchy and line-of-sight), P(k),
  COBE normalization
* :mod:`repro.skymap`        — Fig. 3 sky maps and the psi movie
* :mod:`repro.data`          — the 1995 bandpower compilation
* :mod:`repro.telemetry`     — run metrics: integrator cost, message
  accounting, worker utilization, one :class:`Telemetry` saved as JSON
* :mod:`repro.cache`         — content-addressed keys and the
  digest-verified on-disk store under the serve result store
* :mod:`repro.verify`        — Einstein-constraint monitors,
  differential/analytic oracles, and the tolerance-budget registry
* :mod:`repro.serve`         — the warm spectrum service: run-result
  store, in-flight coalescing, warm per-cosmology tables in front of
  ``run_plinger``

Quickstart::

    import numpy as np
    from repro import standard_cdm, run_linger, LingerConfig, KGrid
    from repro.spectra import cl_from_hierarchy, cobe_normalization

    params = standard_cdm()
    kgrid = KGrid.from_k(np.linspace(3e-5, 3e-3, 28))
    result = run_linger(params, kgrid, LingerConfig(lmax_photon=30))
    l, cl = cl_from_hierarchy(result)
    cl = cl * cobe_normalization(l, cl, params.q_rms_ps_uk)
"""

from ._lazy import lazy_exports
from .errors import (
    CacheError,
    IntegrationError,
    MessagePassingError,
    ParameterError,
    ProtocolError,
    ReproError,
    ScheduleError,
    ServeError,
    VerificationError,
)
from .params import (
    CosmologyParams,
    lambda_cdm,
    mixed_dark_matter,
    standard_cdm,
    tilted_cdm,
)

__version__ = "1.0.0"

__all__ = [
    "CosmologyParams",
    "standard_cdm",
    "tilted_cdm",
    "lambda_cdm",
    "mixed_dark_matter",
    "Background",
    "ThermalHistory",
    "KGrid",
    "cl_kgrid",
    "matter_kgrid",
    "sparse_kgrid",
    "LingerConfig",
    "LingerResult",
    "run_linger",
    "run_plinger",
    "ModeResult",
    "evolve_mode",
    "Telemetry",
    "NULL_TELEMETRY",
    "ConstraintMonitor",
    "VerificationReport",
    "verify_run",
    "ResultStore",
    "ServeClient",
    "ServeRequest",
    "SpectrumServer",
    "WarmPool",
    "ServeError",
    "ReproError",
    "VerificationError",
    "CacheError",
    "ParameterError",
    "IntegrationError",
    "MessagePassingError",
    "ProtocolError",
    "ScheduleError",
    "__version__",
]

#: Where each remaining public name lives.  ``import repro`` costs numpy,
#: ``params`` and ``errors``; a name is imported from its subpackage the
#: first time it is asked for (``from repro import run_linger``,
#: ``repro.run_linger``, ``from repro import *``), so a process pays for
#: the layers it uses: a ``repro request`` client never loads the engine,
#: a ``repro run`` never loads ``asyncio`` or the daemon.
__getattr__, __dir__ = lazy_exports(globals(), {
    "Background": "background",
    "ThermalHistory": "thermo",
    "KGrid": "linger",
    "cl_kgrid": "linger",
    "matter_kgrid": "linger",
    "sparse_kgrid": "linger",
    "LingerConfig": "linger",
    "LingerResult": "linger",
    "run_linger": "linger",
    "run_plinger": "plinger",
    "ModeResult": "perturbations",
    "evolve_mode": "perturbations",
    "Telemetry": "telemetry",
    "NULL_TELEMETRY": "telemetry",
    "ConstraintMonitor": "verify",
    "VerificationReport": "verify",
    "verify_run": "verify",
    "ResultStore": "serve",
    "ServeClient": "serve",
    "ServeRequest": "serve",
    "SpectrumServer": "serve",
    "WarmPool": "serve",
})
