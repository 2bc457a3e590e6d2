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

import ctypes
import logging
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KGrid, LingerConfig, run_linger
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


def _compile(tmp_path, name, source):
    """A test-only shared object, built the way ``_cext._build`` builds
    the process's own."""
    c_path, so_path = tmp_path / f"{name}.c", tmp_path / f"{name}.so"
    c_path.write_text(source)
    subprocess.run([_cext._find_compiler(), *_cext.CFLAGS, "-o", so_path,
                    c_path, "-lm"], check=True, capture_output=True)
    return ctypes.CDLL(str(so_path))


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
                stiff_rate=None if tight else system.thomson_rate,
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


@needs_cc
@both_phases
@pytest.mark.parametrize("k", [3e-5, 0.06])
def test_compiled_loop_is_the_python_driver_at_the_bound(request, k, tight):
    """A massive species, and the two ends of the k-range: a mode whose
    full phase is nearly all stability-bound and one that oscillates."""
    system, y, t0, t1, grid = _phase_start(request, 8, k, tight)
    y_py, seen, stats = _python_phase(system, tight, y, t0, t1, grid)
    out = system.op.integrate_phase(system.lane, tight, y, t0, t1, grid,
                                    max_steps=1_000_000, **TOL)
    assert out.ok and out.y.tobytes() == y_py.tobytes()
    assert out.rows.tobytes() == np.array([r for _, r in seen]).tobytes()
    assert (out.n_steps, out.n_rejected, out.n_rhs,
            out.n_stability_bound) == (
        stats.n_steps, stats.n_rejected, stats.n_rhs,
        stats.n_stability_bound)
    # tight coupling has no Thomson terms and is told no bound
    assert (out.n_stability_bound == 0) == tight


@needs_cc
@pytest.mark.parametrize("k", [3e-5, 0.06])
def test_the_baseline_clone_steps_to_the_same_bits(request, tmp_path, k):
    """``integrate_phase`` is built for AVX2 and for the baseline, and
    gcc's resolver reads ``cpuid`` itself — no environment setting
    selects the default clone — so the object is built once more with
    the attribute stripped: same bits, both phases."""
    line = next(ln for ln in _cext.C_SOURCE.splitlines()
                if ln.startswith("#define PHASE_CLONES __attribute__"))
    plain = CextKernel(_compile(
        tmp_path, "plain",
        _cext.C_SOURCE.replace(line, "#define PHASE_CLONES")))
    for tight in (True, False):
        system, y, t0, t1, grid = _phase_start(request, 0, k, tight)
        args = (system.lane, tight, y, t0, t1, grid)
        ref = system.op.integrate_phase(*args, max_steps=1_000_000, **TOL)
        system.op._cext = plain
        out = system.op.integrate_phase(*args, max_steps=1_000_000, **TOL)
        assert ref.ok and _same_phase(out, ref)


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
    rejects nothing there — on whichever driver this host runs."""
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
    """The tight-coupling phase, the Newtonian-gauge system and the
    tensor modes hand their drivers no ``stiff_rate``."""
    from repro.perturbations.evolve_newtonian import evolve_mode_newtonian
    from repro.perturbations.tensors import evolve_tensor_mode

    k = 0.01
    system = PerturbationSystem(bg_scdm, thermo_scdm, k,
                                StateLayout(lmax_photon=8, lmax_nu=8))
    t_init = tau_initial(k)
    y0 = adiabatic_initial_conditions(system.layout, bg_scdm, k, t_init)
    _, _, tight = _phase(system, True, y0, t_init,
                         find_tca_exit(thermo_scdm, k), np.empty(0))
    newtonian = evolve_mode_newtonian(bg_scdm, thermo_scdm, k, lmax_photon=8,
                                      lmax_nu=8, rtol=1e-3, tau_end=300.0)
    tensor = evolve_tensor_mode(bg_scdm, k, tau_end=300.0, n_record=10)
    for stats in (tight, newtonian.stats, tensor.stats):
        assert stats.n_steps > 0 and stats.n_stability_bound == 0


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


@needs_cc
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
