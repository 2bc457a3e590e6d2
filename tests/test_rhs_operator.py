"""The compiled-RHS operator: equivalence, kernels, telemetry.

The refactor's contract, pinned here:

* **bitwise python parity** — the operator-assembled RHS, whether the
  system owns a one-lane operator or is one lane of a shared one, is
  *bit-identical* (``np.array_equal``, not allclose) to the frozen
  pre-refactor implementation in ``tests/reference_rhs.py``, across
  Hypothesis-randomized states and evaluation times, for both the nq=0
  and the massive-neutrino layouts.  This is what lets the goldens and
  the wire-record oracles stand unchanged.
* **compiled-kernel gate** — the packed-ABI evaluation of both
  right-hand sides written out in plain python
  (``tests/reference_packed_rhs.py``) is bitwise too; the
  lazily-compiled C kernels are budgeted at the ``oracle.rhs_kernel``
  tolerance (rtol 1e-10) — and held to zero deviation without massive
  neutrinos — and gated out when no C compiler is present.
* **kernel resolution** — unknown names (the retired ``numba``
  included) raise, an unavailable ``cext`` falls back to python
  silently, ``auto`` resolves to something real.
* **telemetry** — eval counters are shared between an operator and its
  lane views, the structural flop census is identical on every path
  (own operator / lane of a chunk / compiled), and the ``RhsMetrics``
  report section survives the dict round-trip used by the PLINGER
  worker wire.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

#: ``request`` (for the nq-parametrized fixtures) is function-scoped
#: but only routes to session-scoped background/thermo fixtures, so
#: reuse across examples is sound.
relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

from repro.errors import ParameterError
from repro.perturbations import (
    PerturbationSystem,
    StateLayout,
    adiabatic_initial_conditions,
    evolve_mode,
)
from repro._cext import get_cext
from repro.perturbations.evolve import tau_initial
from repro.perturbations.operator import (
    KERNELS,
    BoltzmannOperator,
    available_kernels,
    resolve_kernel,
)
from repro.telemetry import RhsMetrics, RunReport, Telemetry
from tests.reference_packed_rhs import kernel_rhs_full, kernel_rhs_tca
from tests.reference_rhs import ReferencePerturbationSystem

LAYOUT_NQ0 = dict(lmax_photon=8, lmax_nu=8, nq=0, lmax_massive_nu=0)
LAYOUT_NQ4 = dict(lmax_photon=6, lmax_nu=6, nq=4, lmax_massive_nu=4)
LAYOUT_NQ8 = dict(lmax_photon=8, lmax_nu=8, nq=8, lmax_massive_nu=6)

KS = np.geomspace(3e-4, 0.05, 5)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
lane_idx = st.integers(min_value=0, max_value=KS.size - 1)
tau_scale = st.floats(min_value=1.5, max_value=50.0)


def _random_state(layout, background, k, rng, q_nodes=None):
    """An adiabatic IC perturbed lognormally — a physical-magnitude
    state that is not on any integrator trajectory."""
    tau0 = tau_initial(float(k))
    y = adiabatic_initial_conditions(layout, background, float(k), tau0,
                                     q_nodes=q_nodes)
    y = y * rng.lognormal(0.0, 0.5, y.size)
    # the hierarchy tails of the IC are exact zeros; give them life so
    # every coupling row is exercised
    y[y == 0.0] = rng.normal(0.0, 1e-6, int(np.sum(y == 0.0)))
    return tau0, y


def _fixtures(request, nq):
    if nq:
        return (request.getfixturevalue("bg_mdm"),
                request.getfixturevalue("thermo_mdm"),
                StateLayout(**LAYOUT_NQ4))
    return (request.getfixturevalue("bg_scdm"),
            request.getfixturevalue("thermo_scdm"),
            StateLayout(**LAYOUT_NQ0))


# ---------------------------------------------------------------------------
# Bitwise parity with the frozen pre-refactor implementation
# ---------------------------------------------------------------------------


@pytest.mark.property
@pytest.mark.parametrize("nq", [0, 4])
class TestBitwiseParity:
    @given(seed=seeds, b=lane_idx, ts=tau_scale, shared=st.booleans())
    @relaxed
    def test_serial_rhs_bitwise(self, request, nq, seed, b, ts, shared):
        bg, thermo, layout = _fixtures(request, nq)
        rng = np.random.default_rng(seed)
        k = float(KS[b])
        if shared:
            # lane b of the five-lane operator: rows of a shared
            # assembly are the one-lane system's, bit for bit
            op = BoltzmannOperator(bg, thermo, KS, layout)
            new = PerturbationSystem(bg, thermo, k, layout, operator=op,
                                     lane=b)
        else:
            new = PerturbationSystem(bg, thermo, k, layout)
        ref = ReferencePerturbationSystem(bg, thermo, k, layout)
        tau0, y = _random_state(layout, bg, k, rng, q_nodes=new.q_nodes)
        tau = ts * tau0
        for name in ("rhs_full", "rhs_tca"):
            dy_new = np.array(getattr(new, name)(tau, y), copy=True)
            dy_ref = getattr(ref, name)(tau, y)
            assert np.array_equal(dy_new, dy_ref), (
                f"{name} not bitwise at nq={nq}, k={k}, seed={seed}, "
                f"shared={shared}")

    @given(seed=seeds, b=lane_idx)
    @settings(relaxed, max_examples=10)
    def test_tca_handoff_bitwise(self, request, nq, seed, b):
        bg, thermo, layout = _fixtures(request, nq)
        rng = np.random.default_rng(seed)
        k = float(KS[b])
        new = PerturbationSystem(bg, thermo, k, layout)
        tau0, y = _random_state(layout, bg, k, rng, q_nodes=new.q_nodes)
        y_new, y_ref = y.copy(), y.copy()
        new.initialize_full_from_tca(y_new, 2.0 * tau0)
        ReferencePerturbationSystem(
            bg, thermo, k, layout).initialize_full_from_tca(y_ref, 2.0 * tau0)
        assert np.array_equal(y_new, y_ref)


# ---------------------------------------------------------------------------
# The packed kernel (plain python and compiled)
# ---------------------------------------------------------------------------


def _packed_eval(op, fn, tau, Y, **kwargs):
    """Evaluate a packed-ABI kernel over the whole batch; the output
    buffer starts as NaN, so an entry the kernel leaves unwritten
    cannot pass for a zero."""
    p = op.pack()
    tau = np.ascontiguousarray(np.asarray(tau, dtype=float))
    Y = np.ascontiguousarray(Y)
    dY = np.full_like(Y, np.nan)
    fn(p["ints"], p["flts"], p["th_c"], p["lane_c"], p["adv_lo"],
       p["adv_hi"], p["nu_pack"], p["mnu_pack"], p["rf_c"],
       tau, Y, dY, 0, op.B, **kwargs)
    return dY


def _random_batch(op, bg, layout, seed):
    rng = np.random.default_rng(seed)
    Y = np.empty((KS.size, layout.n_state))
    tau = np.empty(KS.size)
    for b, k in enumerate(KS):
        tau0, Y[b] = _random_state(layout, bg, float(k), rng,
                                   q_nodes=op.q_nodes)
        tau[b] = 3.0 * tau0
    return tau, Y


@pytest.mark.parametrize("nq", [0, 4])
def test_packed_python_kernel_bitwise(request, nq):
    """The packed ABI evaluated in plain python is bitwise equal to the
    reference rhs_full — same groupings, same libm calls."""
    bg, thermo, layout = _fixtures(request, nq)
    op = BoltzmannOperator(bg, thermo, KS, layout)
    tau, Y = _random_batch(op, bg, layout, 7)
    dY = _packed_eval(op, kernel_rhs_full, tau, Y)
    for b, k in enumerate(KS):
        ref = ReferencePerturbationSystem(bg, thermo, float(k), layout)
        assert np.array_equal(dY[b], ref.rhs_full(float(tau[b]), Y[b]))


@pytest.mark.parametrize("nq", [0, 4])
def test_packed_python_tca_kernel_bitwise(request, nq):
    """... and so is the tight-coupling half of the same body, slaved
    zeros included, against the reference rhs_tca.  With massive
    neutrinos the packed order sums the momentum nodes left to right
    where the reference takes a BLAS dot, which pairs them: the last
    bit of hdot/etadot may differ, and everything downstream with it."""
    bg, thermo, layout = _fixtures(request, nq)
    op = BoltzmannOperator(bg, thermo, KS, layout)
    tau, Y = _random_batch(op, bg, layout, 8)
    dY = _packed_eval(op, kernel_rhs_tca, tau, Y)
    for b, k in enumerate(KS):
        ref = ReferencePerturbationSystem(bg, thermo, float(k), layout)
        dy_ref = ref.rhs_tca(float(tau[b]), Y[b])
        if nq == 0:
            assert np.array_equal(dY[b], dy_ref)
        else:
            np.testing.assert_allclose(dY[b], dy_ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nq", [0, 4])
@pytest.mark.skipif(get_cext() is None,
                    reason="no C compiler / ctypes kernel unavailable")
def test_cext_kernel_within_oracle_budget(request, nq):
    """The compiled C kernel agrees with the python reference within
    the registered oracle.rhs_kernel budget (rtol 1e-10)."""
    from repro.verify.tolerances import budget

    bg, thermo, layout = _fixtures(request, nq)
    op = BoltzmannOperator(bg, thermo, KS, layout)
    tau, Y = _random_batch(op, bg, layout, 11)
    dY = _packed_eval(op, get_cext(), tau, Y)
    tol = budget("oracle.rhs_kernel")
    for b, k in enumerate(KS):
        ref = ReferencePerturbationSystem(bg, thermo, float(k), layout)
        dy_ref = ref.rhs_full(float(tau[b]), Y[b])
        scale = max(float(np.max(np.abs(dy_ref))), 1e-300)
        dev = float(np.max(np.abs(dY[b] - dy_ref))) / scale
        assert dev <= tol.rtol, f"lane {b}: {dev:.3e} > {tol.rtol:.1e}"


@pytest.mark.property
@pytest.mark.parametrize("nq", [0, 8])
@pytest.mark.skipif(get_cext() is None,
                    reason="no C compiler / ctypes kernel unavailable")
@given(seed=seeds, b=lane_idx, ts=tau_scale,
       lg_a=st.floats(min_value=-7.5, max_value=-2.8))
@relaxed
def test_cext_tca_kernel_is_the_python_kernel(request, nq, seed, b, ts, lg_a):
    """C ``rhs_tca`` against ``rhs_tca_s`` on scaled random states, at
    every wavenumber of the batch and scale factors from the earliest
    start to past the latest tight-coupling exit: bitwise without
    massive neutrinos, inside the ``oracle.rhs_kernel`` budget with
    them (the momentum sums are BLAS dots in python, loops in C)."""
    from repro.verify.tolerances import budget

    if nq:
        bg = request.getfixturevalue("bg_mdm")
        thermo = request.getfixturevalue("thermo_mdm")
        layout = StateLayout(**LAYOUT_NQ8)
    else:
        bg, thermo, layout = _fixtures(request, 0)
    op = BoltzmannOperator(bg, thermo, KS, layout)
    k = float(KS[b])
    tau0, y = _random_state(layout, bg, k, np.random.default_rng(seed),
                            q_nodes=op.q_nodes)
    y[layout.A] = 10.0 ** lg_a
    tau = ts * tau0
    want = op.rhs_scalar(True, b, tau, y, np.empty_like(y), "python")
    got = op.rhs_scalar(True, b, tau, y, np.full_like(y, np.nan), "cext")
    assert op.evals == {"python": 1, "cext": 1} and not op.demotions
    if nq == 0:
        assert got.tobytes() == want.tobytes()
    else:
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) / scale <= budget(
            "oracle.rhs_kernel").rtol


@functools.cache
def _thermal_right_hand_sides():
    """(python ``_rhs``, compiled ``thermo_rhs`` in its signature) of
    four cosmologies: flat CDM, a massive species (the nu table and its
    clip), a cosmological constant, and a non-zero curvature term."""
    from repro import Background, ThermalHistory
    from repro.params import lambda_cdm, mixed_dark_matter, standard_cdm

    thermo_rhs = get_cext().thermo_rhs_raw

    def compiled(thermo):
        block, nu_pack, out = thermo._compiled_args()

        def rhs(lna, x_h, t_b):
            thermo_rhs(block.ctypes.data,
                       None if nu_pack is None else nu_pack.ctypes.data,
                       lna, x_h, t_b, out.ctypes.data)
            return tuple(out[:2].tolist())

        return rhs

    histories = [ThermalHistory(Background(p)) for p in (
        standard_cdm(), mixed_dark_matter(omega_nu=0.2), lambda_cdm(),
        standard_cdm(omega_c=0.7))]
    return [(th._rhs, compiled(th)) for th in histories]


@pytest.mark.property
@pytest.mark.skipif(get_cext() is None,
                    reason="no C compiler / ctypes kernel unavailable")
@given(lna=st.floats(-20.0, 3.0), x_h=st.floats(-0.1, 1.1),
       lg_t=st.floats(-4.0, 5.0))
@example(lna=-20.0, x_h=0.5, lg_t=4.0)   # nu table clipped below ...
@example(lna=3.0, x_h=0.5, lg_t=1.0)     # ... and above
@example(lna=-7.0, x_h=-0.1, lg_t=3.6)   # both x_H clamps
@example(lna=-7.0, x_h=1.1, lg_t=3.6)
@example(lna=-2.0, x_h=1e-3, lg_t=-4.0)  # the 1e-3 K floor
@example(lna=-5.0, x_h=1e-3, lg_t=2.2)   # 650 < eps < 2600
@example(lna=-5.0, x_h=1e-3, lg_t=1.5)   # eps > 2600
@settings(max_examples=300, deadline=None)
def test_cext_thermo_rhs_is_the_python_rhs(lna, x_h, lg_t):
    """C ``thermo_rhs`` against ``ThermalHistory._rhs``, its reference,
    bitwise on both outputs, massive species or not: every epoch the
    table grid spans and well outside it, x_H across both clamps, T_b
    from under its floor, through the Saha underflow and both Peebles
    cut-offs, to full ionization (bytes, not ``==``: a fully ionized
    cold state is inf / inf in both)."""
    t_b = 10.0 ** lg_t
    for python, compiled in _thermal_right_hand_sides():
        assert np.array(compiled(lna, x_h, t_b)).tobytes() \
            == np.array(python(lna, x_h, t_b)).tobytes()


@pytest.mark.skipif("cext" not in available_kernels(),
                    reason="no C compiler")
def test_cext_kernel_threads_through_evolution(bg_scdm, thermo_scdm):
    """One full mode evolved with rhs_kernel='cext' lands on the
    python-kernel trajectory at golden tolerance."""
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
    ref = evolve_mode(bg_scdm, thermo_scdm, 0.01, **kwargs)
    com = evolve_mode(bg_scdm, thermo_scdm, 0.01, rhs_kernel="cext",
                      **kwargs)
    np.testing.assert_allclose(com.y_final, ref.y_final,
                               rtol=1e-8, atol=1e-300)


# ---------------------------------------------------------------------------
# Splines that depend on the cosmology alone are fitted with the tables
# ---------------------------------------------------------------------------


def test_one_spline_pack_per_cosmology(bg_mdm, thermo_mdm):
    layout = StateLayout(**LAYOUT_NQ4)
    one = BoltzmannOperator(bg_mdm, thermo_mdm, KS[:1], layout)
    two = BoltzmannOperator(bg_mdm, thermo_mdm, KS[3:], layout)
    assert one._th_c is two._th_c is thermo_mdm._rhs_pack
    assert one.pack()["th_c"] is two.pack()["th_c"]
    assert one._ln_kap_spline is thermo_mdm._ln_kap_spline
    assert one._ln_cs2_spline is thermo_mdm._ln_cs2_spline
    assert one._rho_fac is two._rho_fac is bg_mdm.nu_tables._log_rho_spline
    assert one._p_fac is bg_mdm.nu_tables._log_p_spline


def test_spline_pack_survives_the_table_round_trip(bg_mdm, thermo_mdm):
    from repro import Background, ThermalHistory

    bg = Background.from_tables(bg_mdm.params, bg_mdm.to_tables())
    thermo = ThermalHistory.from_tables(bg, thermo_mdm.to_tables())
    assert np.array_equal(thermo._rhs_pack, thermo_mdm._rhs_pack)
    layout = StateLayout(**LAYOUT_NQ4)
    op = BoltzmannOperator(bg_mdm, thermo_mdm, KS, layout)
    twin = BoltzmannOperator(bg, thermo, KS, layout)
    for a in np.geomspace(2e-8, 1.0, 50).tolist():
        for name in ("opacity_s", "cs2_s", "rho_factor_s",
                     "pressure_factor_s", "conformal_hubble_s"):
            assert getattr(twin, name)(a) == getattr(op, name)(a)
    assert all(np.array_equal(twin.pack()[name], op.pack()[name])
               for name in ("ints", "flts", "th_c", "rf_c"))


# ---------------------------------------------------------------------------
# Kernel resolution and fallback
# ---------------------------------------------------------------------------


def test_resolve_kernel_contract():
    assert resolve_kernel("python") == "python"
    assert resolve_kernel("auto") in available_kernels()
    assert resolve_kernel("auto") != "auto"
    assert KERNELS == ("python", "cext", "auto")
    for gone in ("fortran", "numba"):
        with pytest.raises(ParameterError) as err:
            resolve_kernel(gone)
        assert all(repr(name) in str(err.value) for name in KERNELS)
    # an unavailable compiled kernel degrades to python, never raises
    assert resolve_kernel("cext") in ("cext", "python")


def test_available_kernels_always_offer_python():
    kernels = available_kernels()
    assert kernels[-1] == "python"
    assert len(set(kernels)) == len(kernels)


def test_system_records_resolved_kernel(bg_scdm, thermo_scdm):
    layout = StateLayout(**LAYOUT_NQ0)
    sys_auto = PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout,
                                  rhs_kernel="auto")
    assert sys_auto.rhs_kernel in ("python", "cext")


# ---------------------------------------------------------------------------
# Telemetry: shared counters, flop-census parity, report round-trip
# ---------------------------------------------------------------------------


def test_lane_system_shares_operator_and_counters(bg_scdm, thermo_scdm):
    layout = StateLayout(**LAYOUT_NQ0)
    op = BoltzmannOperator(bg_scdm, thermo_scdm, KS, layout)

    def lane_system(b):
        return PerturbationSystem(bg_scdm, thermo_scdm, float(KS[2]), layout,
                                  operator=op, lane=b)

    lane = lane_system(2)
    assert lane.op is op and lane_system(0).op is op
    assert lane.k == float(KS[2])
    # k is read off the operator: the lane number is the address
    assert lane_system(0).k == float(KS[0])
    for b in (KS.size, -1):
        with pytest.raises(ParameterError):
            lane_system(b)
    tau0, y = _random_state(layout, bg_scdm, float(KS[2]),
                            np.random.default_rng(3))
    before = op.evals["python"]
    lane.rhs_full(2.0 * tau0, y)
    assert op.evals["python"] == before + 1


def test_flop_census_identical_on_every_path(bg_scdm, thermo_scdm):
    """Satellite: n_flops accounting must not depend on the execution
    path — a system on its own operator, a lane of a chunk's operator
    and a compiled-kernel system all report the same structural
    census."""
    layout = StateLayout(**LAYOUT_NQ0)
    serial = PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout)
    chunk = BoltzmannOperator(bg_scdm, thermo_scdm, KS, layout)
    lane = PerturbationSystem(bg_scdm, thermo_scdm, float(KS[0]), layout,
                              operator=chunk, lane=0)
    compiled = PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout,
                                  rhs_kernel="auto")
    assert (serial.flops_per_eval() == chunk.flops_per_eval()
            == compiled.flops_per_eval() == lane.flops_per_eval())


def test_rhs_eval_counts_match_serial_vs_batched(bg_scdm, thermo_scdm):
    """The telemetry RHS-eval totals agree between ``evolve_mode`` and
    the one-lane chunk call it wraps (identical step sequences)."""
    from repro.perturbations import evolve_modes_batched

    # per-evaluation counting through the python driver
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4, rhs_kernel="python")
    t_s = Telemetry()
    evolve_mode(bg_scdm, thermo_scdm, 0.01, telemetry=t_s, **kwargs)
    t_b = Telemetry()
    evolve_modes_batched(bg_scdm, thermo_scdm, [0.01], telemetry=t_b,
                         **kwargs)
    assert t_s.rhs is not None and t_b.rhs is not None
    assert t_s.rhs.total_evals == t_b.rhs.total_evals
    assert t_s.modes[-1].n_rhs == t_b.modes[-1].n_rhs
    assert t_s.modes[-1].flops_est == t_b.modes[-1].flops_est


def test_rhs_metrics_roundtrip_and_merge():
    m = RhsMetrics(requested="auto", active="cext",
                   evals={"python": 10, "cext": 90},
                   seconds={"cext": 0.5})
    assert m.total_evals == 100
    assert m.compiled_fraction == pytest.approx(0.9)
    m2 = RhsMetrics.from_dict({"requested": m.requested,
                               "active": m.active,
                               "evals": dict(m.evals),
                               "seconds": dict(m.seconds),
                               "unknown_future_field": 1})
    assert m2 == m
    m2.merge(RhsMetrics(evals={"cext": 10}))
    assert m2.total_evals == 110

    report = RunReport(rhs=m)
    back = RunReport.from_dict(report.to_dict())
    assert back.rhs == m
    assert back.to_dict()["totals"]["rhs_compiled_fraction"] == \
        pytest.approx(0.9)

    # a report written before the numba backend went still loads: its
    # zero-count key is just one more entry of the evals dict
    old = report.to_dict()
    old["rhs"]["evals"]["numba"] = 0
    old["rhs"]["seconds"]["numba"] = 0.0
    loaded = RunReport.from_dict(old)
    assert loaded.rhs.evals == {**m.evals, "numba": 0}
    assert loaded.rhs.total_evals == 100


def test_worker_payload_carries_rhs_section():
    t = Telemetry()
    t.record_rhs(requested="auto", active="cext",
                 evals={"cext": 7}, seconds={"cext": 0.1})
    t2 = Telemetry()
    t2.merge_worker_payload(t.worker_payload())
    assert t2.rhs is not None
    assert t2.rhs.evals == {"cext": 7}
    assert t2.rhs.active == "cext"
