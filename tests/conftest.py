"""Shared fixtures.

The expensive objects (background, thermal history, evolved modes, a
small LINGER run) are session-scoped: built once, shared by every test
that needs real physics.  Numerical settings are chosen so the whole
suite stays fast while still exercising the production code paths.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import (
    Background,
    KGrid,
    LingerConfig,
    ThermalHistory,
    mixed_dark_matter,
    run_linger,
    standard_cdm,
)
from repro.perturbations import default_record_grid, evolve_mode


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite tests/data/golden_*.json from the current code "
             "instead of comparing against them",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "golden: golden-regression guardrail — physics outputs must match "
        "the frozen tests/data/golden_*.json files to rtol=1e-8",
    )
    config.addinivalue_line(
        "markers",
        "property: hypothesis property tests — randomized structural "
        "invariants (no physics integration); deselect with "
        "-m 'not property'",
    )


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Compiled kernels of this session live under its own tmp_path:
    the chaos tests plant torn shared objects in the cache, and a
    user's ``~/.cache/repro/kernels`` is none of the suite's business.
    Child processes (forked ranks, ``repro serve`` daemons) inherit
    the variable."""
    from repro._cext import private_cache

    with private_cache(tmp_path_factory.mktemp("kernels")):
        yield


@pytest.fixture()
def no_new_shm():
    """Fails a test that leaves anything behind in ``/dev/shm``: tables
    reach a rank by hand-over, fork or a local build, never through a
    shared segment, so a run, a pool and a daemon put nothing there."""

    def census():
        return set(os.listdir("/dev/shm")) \
            if os.path.isdir("/dev/shm") else set()

    before = census()
    yield
    assert census() <= before


@pytest.fixture(scope="session")
def regen_golden(request):
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def scdm():
    return standard_cdm()


@pytest.fixture(scope="session")
def bg_scdm(scdm):
    return Background(scdm)


@pytest.fixture(scope="session")
def thermo_scdm(bg_scdm):
    return ThermalHistory(bg_scdm)


@pytest.fixture(scope="session")
def mdm():
    return mixed_dark_matter(omega_nu=0.2)


@pytest.fixture(scope="session")
def bg_mdm(mdm):
    return Background(mdm)


@pytest.fixture(scope="session")
def thermo_mdm(bg_mdm):
    return ThermalHistory(bg_mdm)


@pytest.fixture(scope="session")
def mode_k005(bg_scdm, thermo_scdm):
    """A large-scale mode (k = 0.005/Mpc) with recorded sources."""
    grid = default_record_grid(bg_scdm, thermo_scdm, 0.005)
    return evolve_mode(bg_scdm, thermo_scdm, 0.005, record_tau=grid,
                       rtol=1e-5)


@pytest.fixture(scope="session")
def mode_k05(bg_scdm, thermo_scdm):
    """An acoustic-scale mode (k = 0.05/Mpc) with recorded sources."""
    grid = default_record_grid(bg_scdm, thermo_scdm, 0.05)
    return evolve_mode(bg_scdm, thermo_scdm, 0.05, record_tau=grid,
                       rtol=1e-5)


@pytest.fixture(scope="session")
def mode_mdm(bg_mdm, thermo_mdm):
    """A mode with massive neutrinos on an 8-node momentum grid."""
    grid = default_record_grid(bg_mdm, thermo_mdm, 0.05)
    return evolve_mode(bg_mdm, thermo_mdm, 0.05, nq=8, lmax_massive_nu=6,
                       record_tau=grid, rtol=1e-4)


@pytest.fixture(scope="session")
def linger_small(scdm, bg_scdm, thermo_scdm):
    """A small but complete LINGER run with sources, for spectra tests."""
    kg = KGrid.from_k(np.geomspace(3e-4, 0.03, 8))
    cfg = LingerConfig(lmax_photon=24, lmax_nu=12, rtol=1e-4)
    return run_linger(scdm, kg, cfg, background=bg_scdm, thermo=thermo_scdm)
