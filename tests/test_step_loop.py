"""The compiled DVERK step loop against the python driver, bit for bit.

``integrate_phase`` (C, in the ``repro._cext`` shared object) is a
transcription of ``RKDriver.integrate`` under the arithmetic contract of
``repro.integrators.contract``, its stages calling the tight-coupling
or the full right-hand side.  These tests hold it, in both phases, to
*zero* deviation from the python driver stepping the same compiled RHS
— final state, every stop-point row, every counter, every failure
message — and pin the two pieces the contract rests on: the
pairwise-sum transcription and the invariance of a run's bits under
every execution knob.
"""

from __future__ import annotations

import ctypes
import platform
import re
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Background,
    KGrid,
    LingerConfig,
    ThermalHistory,
    mixed_dark_matter,
    run_linger,
    run_plinger,
    standard_cdm,
)
from repro.chaos import ChaosPolicy, active
from repro.errors import IntegrationError
from repro.integrators import DVERK, VERNER_65_TABLEAU, IntegratorStats
from repro.perturbations import (
    PerturbationSystem,
    StateLayout,
    adiabatic_initial_conditions,
    default_record_grid,
    evolve_mode,
)
from repro import _cext
from repro._cext import CextKernel, get_cext
from repro.perturbations import evolve
from repro.perturbations.evolve import (
    find_tca_exit,
    integrate_phase,
    tau_initial,
)
TOL = dict(rtol=1e-4, atol=1e-9)

#: every loop test runs on the full-hierarchy phase (under the id it
#: has always had) and on the tight-coupling phase (``-tca``)
both_phases = pytest.mark.parametrize(
    "tight", [pytest.param(False, id=pytest.HIDDEN_PARAM),
              pytest.param(True, id="tca")])


class PythonDVERK(DVERK):
    """Any driver class but DVERK itself keeps the phase in python."""


def _compile(tmp_path, name, source):
    """A test-only shared object, built the way ``_cext._build`` builds
    the process's own."""
    c_path, so_path = tmp_path / f"{name}.c", tmp_path / f"{name}.so"
    c_path.write_text(source)
    subprocess.run([_cext._find_compiler(), *_cext.CFLAGS, "-o", so_path,
                    c_path, "-lm"], check=True, capture_output=True)
    return ctypes.CDLL(str(so_path))


def _phase_start(request, nq, k, tight=False):
    """(system, y0, t0, t1, record grid) of one phase
    of ``evolve_mode``: the tight-coupling phase from the initial
    conditions to the hand-off, or the full-hierarchy phase from the
    hand-off state to today."""
    if nq:
        bg = request.getfixturevalue("bg_mdm")
        thermo = request.getfixturevalue("thermo_mdm")
    else:
        bg = request.getfixturevalue("bg_scdm")
        thermo = request.getfixturevalue("thermo_scdm")
    layout = StateLayout(lmax_photon=10, lmax_nu=10, nq=nq,
                         lmax_massive_nu=8 if nq else 0)
    system = PerturbationSystem(bg, thermo, k, layout)
    t_init = tau_initial(k)
    y0 = adiabatic_initial_conditions(
        layout, bg, k, t_init, q_nodes=system.q_nodes if nq else None)
    t_switch = max(find_tca_exit(thermo, k), t_init * 1.01)
    grid = default_record_grid(bg, thermo, k)
    if tight:
        return system, y0, t_init, t_switch, grid[grid <= t_switch]
    y = DVERK(system.rhs_tca, **TOL).integrate(y0, t_init, t_switch).y
    system.initialize_full_from_tca(y, t_switch)
    return system, y, t_switch, bg.tau0, grid[grid > t_switch]


def _python_phase(system, tight, y, t0, t1, stops, **kwargs):
    seen = []
    stats = IntegratorStats()
    res = DVERK(system.rhs_tca if tight else system.rhs_full,
                stiff_rate=None if tight else system.thomson_rate,
                **{**TOL, **kwargs}).integrate(
        y, t0, t1, stop_points=stops,
        on_stop=lambda t, row: seen.append((t, row.copy())), stats=stats)
    return res.y, seen, stats


# -- (a) the loop -------------------------------------------------------------


@both_phases
@pytest.mark.parametrize("with_stops", [False, True])
@pytest.mark.parametrize("nq", [0, 8])
def test_compiled_loop_is_bitwise_the_python_driver(request, nq, with_stops,
                                                    tight):
    system, y, t0, t1, grid = _phase_start(request, nq, 0.02, tight)
    stops = grid if with_stops else np.empty(0)
    y_py, seen, stats = _python_phase(system, tight, y, t0, t1, stops)

    out = system.integrate_phase(tight, y, t0, t1, stops,
                                    max_steps=1_000_000, **TOL)
    assert out.ok
    assert out.y.tobytes() == y_py.tobytes()
    assert (out.n_steps, out.n_rejected, out.n_rhs,
            out.n_stability_bound) == (
        stats.n_steps, stats.n_rejected, stats.n_rhs,
        stats.n_stability_bound)
    # every stop point once, in order, then the phase end unless it is
    # the last of them, each with the driver's row
    assert out.stops.tolist() == [t for t, _ in seen]
    assert out.stops.size == stops.size + (
        0 if stops.size and stops[-1] == t1 else 1)
    assert with_stops == (out.stops.size > 1)
    assert out.rows.tobytes() == np.array([r for _, r in seen]).tobytes()


def _same_phase(out, ref):
    return (out.y.tobytes() == ref.y.tobytes()
            and out.rows.tobytes() == ref.rows.tobytes()
            and out.stops.tolist() == ref.stops.tolist()
            and (out.n_steps, out.n_rejected, out.n_rhs,
                 out.n_stability_bound)
            == (ref.n_steps, ref.n_rejected, ref.n_rhs,
                ref.n_stability_bound))


@both_phases
@pytest.mark.parametrize("k", [3e-5, 0.06])
def test_compiled_loop_is_the_python_driver_at_the_bound(request, k, tight):
    """A massive species, and the two ends of the k-range: a mode whose
    full phase is nearly all stability-bound and one that oscillates."""
    system, y, t0, t1, grid = _phase_start(request, 8, k, tight)
    y_py, seen, stats = _python_phase(system, tight, y, t0, t1, grid)
    out = system.integrate_phase(tight, y, t0, t1, grid,
                                    max_steps=1_000_000, **TOL)
    assert out.ok and out.y.tobytes() == y_py.tobytes()
    assert out.rows.tobytes() == np.array([r for _, r in seen]).tobytes()
    assert (out.n_steps, out.n_rejected, out.n_rhs,
            out.n_stability_bound) == (
        stats.n_steps, stats.n_rejected, stats.n_rhs,
        stats.n_stability_bound)
    # tight coupling has no Thomson terms and is told no bound
    assert (out.n_stability_bound == 0) == tight


@pytest.fixture(scope="module")
def plain_kernel(tmp_path_factory):
    """The object built once more with the clone attribute stripped:
    every function at the baseline ISA, as the ``default`` clone of
    ``integrate_phase`` runs it.  gcc's resolver reads ``cpuid`` itself
    — no environment setting selects a clone — so this build is how a
    host with a wider one runs the baseline."""
    line = next(ln for ln in _cext.C_SOURCE.splitlines()
                if ln.startswith("#define PHASE_CLONES __attribute__"))
    return CextKernel(_compile(
        tmp_path_factory.mktemp("plain"), "plain",
        _cext.C_SOURCE.replace(line, "#define PHASE_CLONES")))


@pytest.mark.parametrize("nq, k", [
    pytest.param(0, 3e-5, id="3e-05"), pytest.param(0, 0.06, id="0.06"),
    pytest.param(8, 0.02, id="massive-0.02")])
def test_the_baseline_clone_steps_to_the_same_bits(request, plain_kernel,
                                                   nq, k):
    """The clone this host dispatches and the baseline build: same
    rows, final state and counters, both phases, with and without the
    massive species' momentum-bin loops."""
    for tight in (True, False):
        system, y, t0, t1, grid = _phase_start(request, nq, k, tight)
        args = (tight, y, t0, t1, grid)
        ref = system.integrate_phase(*args, max_steps=1_000_000, **TOL)
        system._cext = plain_kernel
        out = system.integrate_phase(*args, max_steps=1_000_000, **TOL)
        assert ref.ok and _same_phase(out, ref)


def test_the_baseline_clone_evolves_a_mode_to_the_same_bits(
        bg_scdm, thermo_scdm, plain_kernel, monkeypatch):
    """The one compiled call — both phases, the hand-off and the record
    pass over a line-of-sight grid — on either build: every record,
    the final state and the counters."""
    k = 0.06
    kwargs = dict(lmax_photon=10, lmax_nu=10, rtol=2e-4,
                  record_tau=default_record_grid(bg_scdm, thermo_scdm, k))
    ref = evolve_mode(bg_scdm, thermo_scdm, k, **kwargs)
    monkeypatch.setattr(_cext, "_CEXT", plain_kernel)
    out = evolve_mode(bg_scdm, thermo_scdm, k, **kwargs)
    assert ref.stats.n_rhs > 0 and out.stats == ref.stats
    assert out.y_final.tobytes() == ref.y_final.tobytes()
    assert out.tau.tobytes() == ref.tau.tobytes()
    for name, arr in ref.records.items():
        assert out.records[name].tobytes() == arr.tobytes(), name
    assert (np.array(list(out.final.values())).tobytes()
            == np.array(list(ref.final.values())).tobytes())


# -- (a') the stability bound's behaviour -----------------------------------


@pytest.mark.parametrize("k, waste, n_rhs_parent, gain", [
    (3e-5, 0.01, 9426, 0.82), (3e-3, 0.01, 9826, 0.82),
    (0.06, 0.02, 17538, 0.90)])
def test_the_full_phase_finds_no_boundary_by_rejection(request, bg_scdm,
                                                       thermo_scdm, k, waste,
                                                       n_rhs_parent, gain):
    """Before the bound a low-k mode threw away 28 % of its attempts (850
    accepted + 328 rejected at k = 3e-5) riding DVERK's stability limit
    from the tight-coupling exit to recombination; told the limit, it
    rejects nothing there."""
    mode = evolve_mode(bg_scdm, thermo_scdm, k, lmax_photon=24, rtol=1e-4)
    stats = mode.stats
    assert stats.n_rejected <= waste * (stats.n_steps + stats.n_rejected)
    assert stats.n_rhs <= gain * n_rhs_parent
    if k == 3e-5:
        assert stats.n_stability_bound > 0.9 * stats.n_steps

    # the stiff stretch alone, exit to recombination: not one rejection
    system, y, t0, _, _ = _phase_start(request, 0, k)
    _, _, stiff = _phase(system, False, y, t0, 300.0, np.empty(0))
    assert stiff.n_rejected == 0
    assert stiff.n_stability_bound > 0.9 * stiff.n_steps


def test_no_rate_no_bound(bg_scdm, thermo_scdm):
    """The tight-coupling phase and the Newtonian-gauge system hand
    their drivers no ``stiff_rate``."""
    from repro.perturbations.evolve_newtonian import evolve_mode_newtonian

    k = 0.01
    system = PerturbationSystem(bg_scdm, thermo_scdm, k,
                                StateLayout(lmax_photon=8, lmax_nu=8))
    t_init = tau_initial(k)
    y0 = adiabatic_initial_conditions(system.layout, bg_scdm, k, t_init)
    _, _, tight = _phase(system, True, y0, t_init,
                         find_tca_exit(thermo_scdm, k), np.empty(0))
    newtonian = evolve_mode_newtonian(bg_scdm, thermo_scdm, k, lmax_photon=8,
                                      lmax_nu=8, rtol=1e-3, tau_end=300.0)
    for stats in (tight, newtonian.stats):
        assert stats.n_steps > 0 and stats.n_stability_bound == 0


@pytest.mark.parametrize("nq", [0, 8])
def test_evolve_mode_same_bits_with_either_driver(request, nq):
    """The whole mode — recorder replay, counters, flop estimate —
    cannot tell the compiled loop from the python driver."""
    bg = request.getfixturevalue("bg_mdm" if nq else "bg_scdm")
    thermo = request.getfixturevalue("thermo_mdm" if nq else "thermo_scdm")
    grid = default_record_grid(bg, thermo, 0.01)
    kwargs = dict(lmax_photon=8, lmax_nu=8, nq=nq, lmax_massive_nu=6,
                  record_tau=grid, rtol=3e-4)
    py = evolve_mode(bg, thermo, 0.01, driver_cls=PythonDVERK, **kwargs)
    cc = evolve_mode(bg, thermo, 0.01, **kwargs)
    assert cc.y_final.tobytes() == py.y_final.tobytes()
    assert cc.stats == py.stats
    assert cc.tau.tobytes() == py.tau.tobytes()
    for name, arr in py.records.items():
        assert cc.records[name].tobytes() == arr.tobytes(), name


def test_first_step_is_honoured_identically(request):
    for tight in (True, False):
        system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
        y_py, _, stats = _python_phase(system, tight, y, t0, t1, None,
                                       first_step=1e-3)
        out, free = (
            system.integrate_phase(
                tight, y, t0, t1, (), max_steps=1_000_000,
                first_step=first_step, **TOL)
            for first_step in (1e-3, None))
        assert out.y.tobytes() == y_py.tobytes()
        assert out.n_rhs == stats.n_rhs
        # ... which is not the step the loop would have chosen
        assert (out.n_rhs, out.y.tobytes()) != (free.n_rhs, free.y.tobytes())

    # ... and through a whole run, on either driver: every mode opens
    # with the forced step
    bg, thermo = system.background, system.thermo
    kgrid = KGrid.from_k(np.geomspace(2e-3, 0.05, 4))

    def run(first_step=1e-4):
        cfg = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                           first_step=first_step)
        res = run_linger(bg.params, kgrid, cfg, background=bg, thermo=thermo)
        return [(m.stats.n_steps, p.pack().tobytes(),
                 {name: arr.tobytes() for name, arr in m.records.items()})
                for m, p in zip(res.modes, res.payloads)]

    forced = run()
    assert [m[0] for m in forced] != [m[0] for m in run(None)]
    request.getfixturevalue("python_driver")
    assert run() == forced


# -- (a) failure legs: the python driver's errors, raised by the loop ---------


def _phase(system, tight, y, t0, t1, stops, **kwargs):
    stats = IntegratorStats()
    y_end, tau, rows = integrate_phase(
        system, tight, y, t0, t1, stops, stats,
        **{**TOL, "max_steps": 1_000_000, **kwargs})
    return y_end, (tau, rows), stats


@both_phases
def test_max_steps_raises_the_canonical_error(request, tight):
    system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
    limit = 5 if tight else 20  # tight coupling is over in ~15 steps
    out = system.integrate_phase(tight, y, t0, t1, (),
                                    max_steps=limit, **TOL)
    assert out.status == 1 and not out.ok and out.n_steps == limit
    with pytest.raises(IntegrationError,
                       match=f"exceeded max_steps={limit}"):
        _phase(system, tight, y, t0, t1, np.empty(0), max_steps=limit)


@both_phases
def test_step_underflow_raises_the_canonical_error(request, tight):
    system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
    out = system.integrate_phase(tight, y, t0, t1, (),
                                    max_steps=1_000_000, first_step=1e-300,
                                    **TOL)
    assert out.status == 2 and not out.ok
    with pytest.raises(IntegrationError, match="step size underflow"):
        _phase(system, tight, y, t0, t1, np.empty(0), first_step=1e-300)


@both_phases
def test_an_early_stop_raises_without_a_python_re_run(bg_scdm, thermo_scdm,
                                                      monkeypatch, tight):
    """A compiled phase that runs out of steps raises the python
    driver's error itself: nothing re-runs it in python first (which
    cost ~100x the phase to say the same thing)."""

    def no_python_driver(*args, **kwargs):
        pytest.fail("the python driver re-ran a compiled phase")

    monkeypatch.setattr(DVERK, "integrate", no_python_driver)
    limit = 5 if tight else 20  # tight coupling is over in ~15 steps
    with pytest.raises(IntegrationError,
                       match=f"exceeded max_steps={limit}"):
        evolve_mode(bg_scdm, thermo_scdm, 0.02, max_steps=limit)


@both_phases
def test_a_nan_poisoned_phase_raises(request, tight):
    system, y, t0, t1, stops = _phase_start(request, 0, 0.02, tight)
    with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
        with pytest.raises(IntegrationError, match="non-finite state"):
            _phase(system, tight, y, t0, t1, stops)
    assert eng.injected.get("kernel_nan") == 1  # once per compiled call


def test_a_nan_poisoned_phase_is_recovered_by_the_ladder(scdm, bg_scdm,
                                                         thermo_scdm):
    """The poisoned mode fails one attempt; the ladder's same-config
    retry lands on the clean run's wire records, bit for bit."""
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, 4))
    cfg = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                       record_sources=False, keep_mode_results=False)
    tables = dict(background=bg_scdm, thermo=thermo_scdm)
    clean, _ = run_plinger(scdm, kgrid, cfg, nproc=3, **tables)
    with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
        healed, stats = run_plinger(scdm, kgrid, cfg, nproc=3, **tables)
    assert eng.injected.get("kernel_nan") == 1
    assert stats.fault_report.degraded_modes == []
    for a, b in zip(clean.headers, healed.headers):
        assert (np.delete(a.pack(), 18).tobytes()
                == np.delete(b.pack(), 18).tobytes())
    for a, b in zip(clean.payloads, healed.payloads):
        assert a.pack().tobytes() == b.pack().tobytes()


def test_a_default_mode_evaluates_nothing_in_python(bg_scdm, thermo_scdm,
                                                    monkeypatch):
    """A default ``evolve_mode`` — record grid, both phases, the
    hand-off, the record pass — is one compiled call: every RHS
    evaluation it counts is the loop's, none goes through the python
    entry points, and no phase is a call of its own."""

    def no_python(*args, **kwargs):
        pytest.fail("a default mode left the one compiled call")

    for name in ("rhs_full", "rhs_tca", "integrate_phase", "record",
                 "initialize_full_from_tca"):
        monkeypatch.setattr(PerturbationSystem, name, no_python)
    kernel = get_cext()
    calls = []
    evolve_raw = kernel.evolve_raw
    monkeypatch.setattr(kernel, "evolve_raw",
                        lambda *a: calls.append(1) or evolve_raw(*a))
    mode = evolve_mode(bg_scdm, thermo_scdm, 0.01, lmax_photon=8, lmax_nu=8,
                       rtol=1e-3,
                       record_tau=default_record_grid(bg_scdm, thermo_scdm,
                                                      0.01))
    assert mode.tau.size and mode.stats.n_rhs > 0
    assert len(calls) == 1


@pytest.mark.parametrize("model, nq, n_modes", [
    pytest.param(standard_cdm, 0, 5, id="standard_cdm"),
    pytest.param(mixed_dark_matter, 8, 3, id="mixed_dark_matter")])
def test_one_compiled_call_per_mode(monkeypatch, model, nq, n_modes):
    """A mode is one compiled call — both phases, the hand-off and the
    record pass — massive species or not; a silent return to a call per
    phase with the record pass in python costs ~15 % of fig2_sparse with
    every bitwise test still passing.  A run makes one ``evolve_mode``
    call per mode, none of ``integrate_phase``, no python momentum sum,
    and builds one record grid per distinct start time."""

    def per_phase(*args, **kwargs):
        pytest.fail("a mode left its one compiled call")

    kernel, calls = get_cext(), []
    evolve_raw = kernel.evolve_raw
    monkeypatch.setattr(kernel, "evolve_raw",
                        lambda *a: calls.append(1) or evolve_raw(*a))
    monkeypatch.setattr(kernel, "integrate_raw", per_phase)
    for name in ("integrate_phase", "record", "initialize_full_from_tca",
                 "nu_eps", "shear_sum"):
        monkeypatch.setattr(PerturbationSystem, name, per_phase)
    params = model()
    bg = Background(params)
    k = np.geomspace(1e-3, 0.05, n_modes)
    evolve._record_grid.cache_clear()
    res = run_linger(params, KGrid.from_k(k),
                     LingerConfig(lmax_photon=10, lmax_nu=10, nq=nq,
                                  rtol=1e-3),
                     background=bg, thermo=ThermalHistory(bg))
    starts = len({tau_initial(float(x)) for x in k})
    builds = evolve._record_grid.cache_info().misses
    assert len(calls) == n_modes and builds == starts == 2
    assert all(m.layout.nq == nq for m in res.modes)


@pytest.mark.parametrize("k", [3e-4, 0.01, 0.1])
def test_one_compiled_call_is_the_driver_cls_seam(bg_scdm, thermo_scdm, k):
    """The one compiled call against the seam's route — the python
    driver phase by phase, the compiled hand-off and record pass between
    and after — at three wavenumbers: final state, counters, record
    points, every record and the final row, bit for bit."""
    kwargs = dict(lmax_photon=10, lmax_nu=10, rtol=2e-4,
                  record_tau=default_record_grid(bg_scdm, thermo_scdm, k))
    one = evolve_mode(bg_scdm, thermo_scdm, k, **kwargs)
    seam = evolve_mode(bg_scdm, thermo_scdm, k, driver_cls=PythonDVERK,
                       **kwargs)
    assert one.y_final.tobytes() == seam.y_final.tobytes()
    assert one.stats == seam.stats and one.stats.n_stability_bound > 0
    assert one.tau.tobytes() == seam.tau.tobytes()
    for name, arr in seam.records.items():
        assert one.records[name].tobytes() == arr.tobytes(), name
    assert (np.array(list(one.final.values())).tobytes()
            == np.array(list(seam.final.values())).tobytes())


@pytest.mark.parametrize("nq", [0, 8])
def test_the_compiled_hand_off_is_the_python_one(request, nq):
    """``tca_handoff`` on the state a tight-coupling phase really ends
    on, against the python original (``tests/reference_rhs.py``)."""
    from tests.reference_rhs import ReferencePerturbationSystem

    system, y, t0, t1, _ = _phase_start(request, nq, 0.02, tight=True)
    y = DVERK(system.rhs_tca, **TOL).integrate(y, t0, t1).y
    got, want = y.copy(), y.copy()
    system.initialize_full_from_tca(got, t1)
    ReferencePerturbationSystem(
        system.background, system.thermo, system.k,
        system.layout).initialize_full_from_tca(want, t1)
    assert got.tobytes() == want.tobytes() != y.tobytes()


def test_a_poisoned_mode_raises_once_per_compiled_call(bg_scdm, thermo_scdm):
    """The kernel poison is consulted once per compiled call — once per
    mode — and the mode raises the python driver's message."""
    with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
        with pytest.raises(IntegrationError, match="non-finite state at t="):
            evolve_mode(bg_scdm, thermo_scdm, 0.01, lmax_photon=8,
                        lmax_nu=8, rtol=1e-3)
        evolve_mode(bg_scdm, thermo_scdm, 0.02, lmax_photon=8, lmax_nu=8,
                    rtol=1e-3)
    assert eng.injected == {"kernel_nan": 1}
    assert eng.summary()["opportunities"] == {"kernel_nan": 2}


def test_a_poisoned_massive_mode_consults_once_per_mode(bg_mdm, thermo_mdm):
    """With a massive species too, the kernel poison is one consult per
    mode: the mode is one compiled call."""
    kwargs = dict(lmax_photon=8, lmax_nu=8, nq=8, lmax_massive_nu=6,
                  rtol=1e-3)
    with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
        with pytest.raises(IntegrationError, match="non-finite state at t="):
            evolve_mode(bg_mdm, thermo_mdm, 0.01, **kwargs)
        evolve_mode(bg_mdm, thermo_mdm, 0.02, **kwargs)
    assert eng.injected == {"kernel_nan": 1}
    assert eng.summary()["opportunities"] == {"kernel_nan": 2}


def test_the_kernel_cache_key_names_source_flags_and_compiler(monkeypatch):
    """A change of ``CFLAGS`` or of the compiler is a new shared object,
    never the old one reused."""
    cc = _cext._find_compiler()
    digest = _cext._digest(cc)
    assert _cext._digest(cc) == digest
    assert _cext._digest(cc + "-other") != digest
    monkeypatch.setattr(_cext, "CFLAGS", (*_cext.CFLAGS, "-DPROBE"))
    assert _cext._digest(cc) != digest


# -- (b) the pairwise sum -----------------------------------------------------


@pytest.mark.property
@given(n=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       decades=st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=300, deadline=None)
def test_pairwise_sum_is_numpys(n, seed, decades):
    """The C transcription against ``np.add.reduce`` itself, on vectors
    spanning up to 24 decades so that summation order shows in the last
    bits; 1-d and as a row of a 2-d reduction."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
    for vec in (a, a * a):
        got = get_cext().pairwise_raw(vec.ctypes.data, n)
        assert got == np.add.reduce(vec)
        assert got == np.add.reduce(np.stack([vec, vec[::-1]]), axis=1)[0]


# -- (b') the tableau contraction, a row at a time ---------------------------

#: ``row_sum`` is static: the probe exports it, cloned as ``integrate_phase``
#: is, beside the contraction as it was before it ran a row at a time —
#: one component, gathered over the stages at stride n
ROW_SUM_PROBE = r"""
PHASE_CLONES
void row_sum_probe(const double *w, long long s, const double *K,
                   long long n, double *acc)
{
    row_sum(w, s, K, n, acc);
}

void wsum_reference(const double *w, long long s, const double *K,
                    long long n, double *acc)
{
    long long idx[16], cnt = 0, j, c, m;
    for (j = 0; j < s; j++)
        if (w[j] != 0.0) idx[cnt++] = j;
    for (c = 0; c < n; c++) {
        double a = w[idx[0]] * K[idx[0] * n + c];
        for (m = 1; m < cnt; m++)
            a += w[idx[m]] * K[idx[m] * n + c];
        acc[c] = a;
    }
}
"""


@pytest.fixture(scope="module")
def row_sum_probe(tmp_path_factory):
    lib = _compile(tmp_path_factory.mktemp("probe"), "probe",
                   _cext.C_SOURCE + ROW_SUM_PROBE)
    for fn in (lib.row_sum_probe, lib.wsum_reference):
        fn.argtypes = [ctypes.c_void_p, ctypes.c_longlong, ctypes.c_void_p,
                       ctypes.c_longlong, ctypes.c_void_p]
        fn.restype = None
    return lib


def test_the_row_sums_are_vectorised_and_every_clone_is_built(tmp_path):
    """A silent return to scalar contractions is a 25 % regression no
    bitwise test would see: the object is built once more with the
    vectoriser's report on, which must name both loops of ``row_sum``;
    with x86-64 glibc gcc (11 or later) ``integrate_phase`` must come
    in all three clones the loader picks from."""
    cc = _cext._find_compiler()
    probe = subprocess.run(
        [cc, "-fopt-info-vec-optimized", "-fsyntax-only", "-x", "c",
         "/dev/null"], capture_output=True, text=True)
    if probe.returncode or "opt-info" in probe.stderr:
        pytest.skip(f"{cc} has no -fopt-info report")
    lines = _cext.C_SOURCE.splitlines()
    loops = [i + 1 for i, ln in enumerate(lines)
             if re.search(r"acc\[c\] \+?= wj \* Kj\[c\]", ln)]
    assert len(loops) == 2, loops
    c_path, so_path = tmp_path / "k.c", tmp_path / "k.so"
    c_path.write_text(_cext.C_SOURCE)
    build = subprocess.run(
        [cc, *_cext.CFLAGS, "-fopt-info-vec-optimized", "-o", so_path,
         c_path, "-lm"], check=True, capture_output=True, text=True)
    report = build.stderr + build.stdout
    for line in loops:
        assert re.search(rf"k\.c:{line}:\d+: optimized: loop vectorized",
                         report), line

    macros = subprocess.run([cc, "-dM", "-E", "-x", "c", "/dev/null"],
                            check=True, capture_output=True,
                            text=True).stdout
    gcc = re.search(r"#define __GNUC__ (\d+)", macros)
    if (platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc"
            or gcc is None or "__clang__" in macros
            or int(gcc.group(1)) < 11):
        return
    nm = subprocess.run(["nm", so_path], check=True, capture_output=True,
                        text=True).stdout
    clones = set(re.findall(r"integrate_phase\.(\w+)", nm))
    assert {"arch_x86_64_v4", "avx2", "default"} <= clones, clones


@pytest.mark.property
@given(n=st.sampled_from([1, 7, 8, 81, 300, 4506]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       decades=st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=60, deadline=None)
def test_row_sum_is_the_per_component_sum(row_sum_probe, n, seed, decades):
    """Every component sees the same rounded multiplies and adds in the
    same order either way, at whatever vector width: all nine weight
    rows of the Verner table — seven stage rows, the sixth-order
    solution, the error weights — on stages spanning up to 24 decades,
    against the per-component gather and the python driver's sum."""
    from repro.integrators.contract import ordered_weighted_sum

    tb = VERNER_65_TABLEAU
    s = tb.n_stages
    rng = np.random.default_rng(seed)
    K = (rng.standard_normal((s, n))
         * 10.0 ** rng.uniform(-decades, decades, (s, n)))
    rows = [*tb.a[1:], tb.b_high, tb.error_weights]
    assert len(rows) == 9
    for w, col, terms in zip(rows, tb.contraction_weights()[1:],
                             tb.contraction_terms[1:]):
        w = np.ascontiguousarray(w)
        got, want = np.full(n, np.nan), np.full(n, np.nan)
        row_sum_probe.row_sum_probe(w.ctypes.data, s, K.ctypes.data, n,
                                    got.ctypes.data)
        row_sum_probe.wsum_reference(w.ctypes.data, s, K.ctypes.data, n,
                                     want.ctypes.data)
        assert np.array_equal(got, want)
        assert np.array_equal(
            got, ordered_weighted_sum(col, terms, K, np.empty_like(K)))


# -- (c) invariance under every execution knob --------------------------------


def test_bits_invariant_under_kernel_batch_lanes_and_ranks(scdm, bg_scdm,
                                                           thermo_scdm):
    """ROADMAP item 5: every ModeHeader/ModePayload field (cpu_seconds
    apart) and C_l are one answer, whatever dispatch order or ``nproc``
    in {1, 2, 3} computed them (nq=0)."""
    from repro.verify import batch_invariance_oracle

    out = batch_invariance_oracle(scdm, background=bg_scdm,
                                  thermo=thermo_scdm)
    assert len(out["legs"]) == 3
    assert {name: dev for name, dev in out["legs"].items() if dev != 0.0} == {}
    assert out["batch_invariance"] == 0.0


def test_batch_invariance_reads_nan_when_the_legs_evaluated_nothing(
        scdm, bg_scdm, thermo_scdm, monkeypatch):
    """Equal bits are not enough: legs whose modes count no evaluation
    did not test the compiled route, and the oracle says so."""
    from repro.telemetry import Telemetry
    from repro.verify import batch_invariance_oracle

    record_mode = Telemetry.record_mode
    monkeypatch.setattr(Telemetry, "record_mode",
                        lambda self, **kw: record_mode(self,
                                                       **{**kw, "n_rhs": 0}))
    out = batch_invariance_oracle(scdm, background=bg_scdm,
                                  thermo=thermo_scdm, nprocs=())
    assert set(out["legs"].values()) == {0.0}
    assert np.isnan(out["batch_invariance"])
