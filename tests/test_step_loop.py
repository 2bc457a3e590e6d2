"""The compiled DVERK step loop against the python driver, bit for bit.

``integrate_phase`` (C, in the ``repro._cext`` shared object) is a
transcription of ``RKDriver.integrate`` under the arithmetic contract of
``repro.integrators.contract``, its stages calling the tight-coupling
or the full right-hand side.  These tests hold it, in both phases, to
*zero* deviation from the python driver stepping the same compiled RHS
— final state, every stop-point row, every counter — and pin the two
pieces the contract rests on: the pairwise-sum transcription and the
invariance of a run's bits under every execution knob.

The massive-neutrino block of the C RHS differs from the python RHS by
ulps (PR 7's kernel, budgeted by ``oracle.rhs_kernel``); that is why the
loop is compared on the *same* RHS, and why kernel-vs-kernel bit
equality is asserted at nq=0 only.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KGrid, LingerConfig, run_linger
from repro.chaos import ChaosPolicy, active
from repro.errors import IntegrationError
from repro.integrators import DVERK, IntegratorStats
from repro.perturbations import (
    PerturbationSystem,
    StateLayout,
    adiabatic_initial_conditions,
    default_record_grid,
    evolve_mode,
)
from repro._cext import get_cext
from repro.perturbations.evolve import (
    find_tca_exit,
    integrate_phase,
    tau_initial,
)
from repro.perturbations.operator import CompiledPhase, available_kernels

needs_cc = pytest.mark.skipif("cext" not in available_kernels(),
                              reason="no C compiler on this host")

TOL = dict(rtol=1e-4, atol=1e-9)

#: every loop test runs on the full-hierarchy phase (under the id it
#: has always had) and on the tight-coupling phase (``-tca``)
both_phases = pytest.mark.parametrize(
    "tight", [pytest.param(False, id=pytest.HIDDEN_PARAM),
              pytest.param(True, id="tca")])


class PythonDVERK(DVERK):
    """Any driver class but DVERK itself keeps the phase in python."""


def _phase_start(request, nq, k, tight=False):
    """(system on the cext kernel, y0, t0, t1, record grid) of one phase
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
    system = PerturbationSystem(bg, thermo, k, layout, rhs_kernel="cext")
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
                **{**TOL, **kwargs}).integrate(
        y, t0, t1, stop_points=stops,
        on_stop=lambda t, row: seen.append((t, row.copy())), stats=stats)
    return res.y, seen, stats


# -- (a) the loop -------------------------------------------------------------


@needs_cc
@both_phases
@pytest.mark.parametrize("with_stops", [False, True])
@pytest.mark.parametrize("nq", [0, 8])
def test_compiled_loop_is_bitwise_the_python_driver(request, nq, with_stops,
                                                    tight):
    system, y, t0, t1, grid = _phase_start(request, nq, 0.02, tight)
    stops = grid if with_stops else np.empty(0)
    y_py, seen, stats = _python_phase(system, tight, y, t0, t1, stops)

    out = system.op.integrate_phase(system.lane, tight, y, t0, t1, stops,
                                    max_steps=1_000_000, **TOL)
    assert out.ok
    assert out.y.tobytes() == y_py.tobytes()
    assert (out.n_steps, out.n_rejected, out.n_rhs) == (
        stats.n_steps, stats.n_rejected, stats.n_rhs)
    # every stop point once, in order, then the phase end unless it is
    # the last of them, each with the driver's row
    assert out.stops.tolist() == [t for t, _ in seen]
    assert out.stops.size == stops.size + (
        0 if stops.size and stops[-1] == t1 else 1)
    assert with_stops == (out.stops.size > 1)
    assert out.rows.tobytes() == np.array([r for _, r in seen]).tobytes()


@needs_cc
@pytest.mark.parametrize("nq", [0, 8])
def test_evolve_mode_same_bits_with_either_driver(request, nq):
    """The whole mode — recorder replay, counters, flop estimate —
    cannot tell the compiled loop from the python driver."""
    bg = request.getfixturevalue("bg_mdm" if nq else "bg_scdm")
    thermo = request.getfixturevalue("thermo_mdm" if nq else "thermo_scdm")
    grid = default_record_grid(bg, thermo, 0.01)
    kwargs = dict(lmax_photon=8, lmax_nu=8, nq=nq, lmax_massive_nu=6,
                  record_tau=grid, rtol=3e-4, rhs_kernel="cext")
    py = evolve_mode(bg, thermo, 0.01, driver_cls=PythonDVERK, **kwargs)
    cc = evolve_mode(bg, thermo, 0.01, **kwargs)
    assert cc.y_final.tobytes() == py.y_final.tobytes()
    assert cc.stats == py.stats
    assert cc.tau.tobytes() == py.tau.tobytes()
    for name, arr in py.records.items():
        assert cc.records[name].tobytes() == arr.tobytes(), name


@needs_cc
def test_first_step_is_honoured_identically(request):
    for tight in (True, False):
        system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
        y_py, _, stats = _python_phase(system, tight, y, t0, t1, None,
                                       first_step=1e-3)
        out, free = (
            system.op.integrate_phase(
                system.lane, tight, y, t0, t1, (), max_steps=1_000_000,
                first_step=first_step, **TOL)
            for first_step in (1e-3, None))
        assert out.y.tobytes() == y_py.tobytes()
        assert out.n_rhs == stats.n_rhs
        # ... which is not the step the loop would have chosen
        assert (out.n_rhs, out.y.tobytes()) != (free.n_rhs, free.y.tobytes())

    # ... and at any chunk length, on either driver: every lane of a
    # chunk opens with the forced step (batch_size > 1 used to drop it)
    bg, thermo = system.background, system.thermo
    kgrid = KGrid.from_k(np.geomspace(2e-3, 0.05, 4))

    def run(kernel, batch_size, first_step=1e-4):
        cfg = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                           rhs_kernel=kernel, first_step=first_step)
        res = run_linger(bg.params, kgrid, cfg, background=bg, thermo=thermo,
                         batch_size=batch_size)
        return [(m.stats.n_steps, p.pack().tobytes(),
                 {name: arr.tobytes() for name, arr in m.records.items()})
                for m, p in zip(res.modes, res.payloads)]

    forced = run("python", 1)
    assert [m[0] for m in forced] != [m[0] for m in run("python", 1, None)]
    for kernel, batch_size in (("python", 3), ("cext", 1), ("cext", 3)):
        assert run(kernel, batch_size) == forced, (kernel, batch_size)


# -- (a) failure legs: the python driver owns the semantics -------------------


def _phase(system, tight, y, t0, t1, stops, **kwargs):
    stats = IntegratorStats()
    y_end, tau, rows = integrate_phase(
        system, tight, y, t0, t1, stops, stats,
        **{**TOL, "max_steps": 1_000_000, **kwargs})
    return y_end, (tau, rows), stats


@needs_cc
@both_phases
def test_max_steps_raises_the_canonical_error(request, tight):
    system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
    limit = 5 if tight else 20  # tight coupling is over in ~15 steps
    out = system.op.integrate_phase(system.lane, tight, y, t0, t1, (),
                                    max_steps=limit, **TOL)
    assert out.status == 1 and not out.ok and out.n_steps == limit
    with pytest.raises(IntegrationError,
                       match=f"exceeded max_steps={limit}"):
        _phase(system, tight, y, t0, t1, np.empty(0), max_steps=limit)


@needs_cc
@both_phases
def test_step_underflow_raises_the_canonical_error(request, tight):
    system, y, t0, t1, _ = _phase_start(request, 0, 0.02, tight)
    out = system.op.integrate_phase(system.lane, tight, y, t0, t1, (),
                                    max_steps=1_000_000, first_step=1e-300,
                                    **TOL)
    assert out.status == 2 and not out.ok
    with pytest.raises(IntegrationError, match="step size underflow"):
        _phase(system, tight, y, t0, t1, np.empty(0), first_step=1e-300)


def _same_block(got, want):
    return (got[0].tolist() == want[0].tolist()
            and got[1].tobytes() == want[1].tobytes())


@needs_cc
@both_phases
def test_early_stop_falls_back_to_identical_bits(request, monkeypatch,
                                                 tight):
    """Whatever makes a compiled call stop early, the python re-run from
    the phase's opening state lands on the fault-free bits, and nothing
    of the abandoned call leaks into the rows or the counters."""
    system, y, t0, t1, stops = _phase_start(request, 0, 0.02, tight)
    before = system.op.evals["cext"]
    y_ref, block_ref, stats_ref = _phase(system, tight, y, t0, t1, stops)
    # ran compiled
    assert system.op.evals["cext"] - before == stats_ref.n_rhs

    real = system.op.integrate_phase

    def stops_early(*args, **kwargs):
        out = real(*args, **kwargs)
        return CompiledPhase(3, out.y, out.stops, out.rows, out.n_steps,
                             out.n_rejected, out.n_rhs)

    monkeypatch.setattr(system.op, "integrate_phase", stops_early)
    y_end, block, stats = _phase(system, tight, y, t0, t1, stops)
    assert y_end.tobytes() == y_ref.tobytes()
    assert stats == stats_ref
    assert _same_block(block, block_ref)
    assert not system.op.demotions  # an early stop is not a bad kernel


@needs_cc
@both_phases
def test_nan_poison_demotes_and_reproduces_the_bits(request, caplog, tight):
    system, y, t0, t1, stops = _phase_start(request, 0, 0.02, tight)
    y_ref, block_ref, stats_ref = _phase(system, tight, y, t0, t1, stops)

    with caplog.at_level(logging.WARNING, logger="repro.kernel"):
        with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
            y_end, block, stats = _phase(system, tight, y, t0, t1, stops)
    assert eng.injected.get("kernel_nan") == 1  # once per compiled call
    demotions = system.op.drain_demotions()
    assert [(d["from"], d["to"] != "cext") for d in demotions] == [
        ("cext", True)]
    assert "non-finite" in demotions[0]["reason"]
    assert any("demoted cext" in r.getMessage() for r in caplog.records)
    # the re-run used the fallback kernel: bitwise at nq=0
    assert y_end.tobytes() == y_ref.tobytes()
    assert stats == stats_ref
    assert _same_block(block, block_ref)
    # sticky: the next phase on this operator does not try cext again
    before = system.op.evals["cext"]
    _phase(system, tight, y, t0, t1, np.empty(0))
    assert system.op.evals["cext"] == before


@needs_cc
def test_a_default_mode_evaluates_nothing_in_python(bg_scdm, thermo_scdm):
    """What CI's compiler leg asserts: on a host with a compiler a
    default ``evolve_mode`` — record grid, both phases — leaves no RHS
    evaluation on the python kernel's books."""
    mode = evolve_mode(bg_scdm, thermo_scdm, 0.01, lmax_photon=8, lmax_nu=8,
                       rtol=1e-3,
                       record_tau=default_record_grid(bg_scdm, thermo_scdm,
                                                      0.01))
    assert mode.system.op.evals == {"python": 0, "cext": mode.stats.n_rhs}
    assert mode.tau.size and mode.stats.n_rhs > 0


# -- (b) the pairwise sum -----------------------------------------------------


@needs_cc
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


# -- (c) invariance under every execution knob --------------------------------


def test_bits_invariant_under_kernel_batch_lanes_and_ranks(scdm, bg_scdm,
                                                           thermo_scdm):
    """ROADMAP item 5: every ModeHeader/ModePayload field (cpu_seconds
    apart) and C_l are one answer, whatever ``rhs_kernel`` in {python,
    cext}, ``batch_size`` in {1, 2, 5}, lane order, or ``nproc`` in
    {1, 2, 3} computed them (nq=0)."""
    from repro.verify import batch_invariance_oracle

    out = batch_invariance_oracle(scdm, background=bg_scdm,
                                  thermo=thermo_scdm)
    kernels = [k for k in ("python", "cext") if k in available_kernels()]
    assert len(out["legs"]) == 6 * len(kernels)
    assert {name: dev for name, dev in out["legs"].items() if dev != 0.0} == {}
    assert out["batch_invariance"] == 0.0


@needs_cc
def test_batch_invariance_reads_nan_when_a_compiled_phase_fell_back(
        scdm, bg_scdm, thermo_scdm, monkeypatch):
    """Equal bits are not enough: a ``cext`` leg that left any RHS
    evaluation on the python kernel's books did not test the compiled
    route, and the oracle says so."""
    from repro.perturbations.operator import BoltzmannOperator
    from repro.verify import batch_invariance_oracle

    real = BoltzmannOperator.integrate_phase

    def tight_phase_goes_bad(self, b, tight, *args, **kwargs):
        out = real(self, b, tight, *args, **kwargs)
        if tight:
            out.y[:] = np.nan  # demotes; the python kernel re-runs it
        return out

    monkeypatch.setattr(BoltzmannOperator, "integrate_phase",
                        tight_phase_goes_bad)
    out = batch_invariance_oracle(scdm, background=bg_scdm,
                                  thermo=thermo_scdm, batch_sizes=(1,),
                                  nprocs=())
    assert set(out["legs"].values()) == {0.0}
    assert np.isnan(out["batch_invariance"])


def test_auto_without_a_compiler_warns_once_and_runs_python(
        monkeypatch, caplog, bg_scdm, thermo_scdm):
    """Aim 4: the ~100x fallback is announced when it happens, with the
    build's reason, once per process."""
    from repro import _cext
    from repro.perturbations import operator

    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setattr(operator, "_warned_auto_python", False)
    _cext.reset_cext()
    try:
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            assert operator.resolve_kernel("auto") == "python"
            assert operator.resolve_kernel("auto") == "python"
            mode = evolve_mode(bg_scdm, thermo_scdm, 0.01, lmax_photon=6,
                               lmax_nu=6, rtol=1e-3)
        warnings = [r.getMessage() for r in caplog.records
                    if "resolved to 'python'" in r.getMessage()]
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
        assert mode.system.rhs_kernel == "python"
        assert mode.system.op.evals["cext"] == 0
    finally:
        monkeypatch.undo()
        _cext.reset_cext()
