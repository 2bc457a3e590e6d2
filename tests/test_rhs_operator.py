"""The compiled-RHS operator: equivalence, references, telemetry.

The operator's contract, pinned here:

* **bitwise parity** — the RHS a system evaluates is *bit-identical*
  (``np.array_equal``, not allclose) to the plain-python evaluation of
  the packed ABI in the C kernel's order
  (``tests/reference_packed_rhs.py``) and, without massive neutrinos,
  to the frozen pre-refactor implementation in
  ``tests/reference_rhs.py``, across Hypothesis-randomized states and
  evaluation times.  This is what lets the goldens and the wire-record
  oracles stand unchanged.
* **the references** — the packed python evaluation is bitwise the
  pre-refactor implementation; the compiled kernels are budgeted
  against it at the ``oracle.rhs_kernel`` tolerance (rtol 1e-10) — and
  held to zero deviation without massive neutrinos.
* **the knob is gone** — no layer takes an ``rhs_kernel`` argument.
* **telemetry** — the structural flop census is identical on every
  path (compiled loop / python driver), and reports and worker
  payloads written with the retired ``rhs`` section still load.
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

from repro import LingerConfig
from repro.integrators import DVERK
from repro.integrators.dverk import RKDriver
from repro.perturbations import (
    PerturbationSystem,
    StateLayout,
    adiabatic_initial_conditions,
    evolve_mode,
)
from repro._cext import get_cext
from repro.perturbations.evolve import find_tca_exit, tau_initial
from repro.telemetry import Telemetry
from tests import reference_thermo
from tests.reference_packed_rhs import kernel_rhs_full, kernel_rhs_tca
from tests.reference_rhs import ReferencePerturbationSystem

LAYOUT_NQ0 = dict(lmax_photon=8, lmax_nu=8, nq=0, lmax_massive_nu=0)
LAYOUT_NQ4 = dict(lmax_photon=6, lmax_nu=6, nq=4, lmax_massive_nu=4)
LAYOUT_NQ8 = dict(lmax_photon=8, lmax_nu=8, nq=8, lmax_massive_nu=6)

KS = np.geomspace(3e-4, 0.05, 5)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
k_idx = st.integers(min_value=0, max_value=KS.size - 1)
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
    @given(seed=seeds, b=k_idx, ts=tau_scale)
    @relaxed
    def test_serial_rhs_bitwise(self, request, nq, seed, b, ts):
        bg, thermo, layout = _fixtures(request, nq)
        rng = np.random.default_rng(seed)
        k = float(KS[b])
        new = PerturbationSystem(bg, thermo, k, layout)
        ref = ReferencePerturbationSystem(bg, thermo, k, layout)
        tau0, y = _random_state(layout, bg, k, rng, q_nodes=new.q_nodes)
        tau = ts * tau0
        for name, fn in (("rhs_full", kernel_rhs_full),
                         ("rhs_tca", kernel_rhs_tca)):
            dy_new = np.array(getattr(new, name)(tau, y), copy=True)
            # the C kernel's own order, in python: bitwise at any nq
            dy_packed = _packed_eval(new, fn, tau, y)
            assert np.array_equal(dy_new, dy_packed), (
                f"{name} not bitwise at nq={nq}, k={k}, seed={seed}")
            if nq == 0:
                # ... and, with no momentum sums to order, the
                # pre-refactor implementation's
                assert np.array_equal(dy_new, getattr(ref, name)(tau, y))

    @given(seed=seeds, b=k_idx)
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


def _packed_eval(system, fn, tau, y):
    """Evaluate a packed-ABI kernel on the system's structure at
    (tau, y); the output buffer starts as NaN, so an entry the kernel
    leaves unwritten cannot pass for a zero."""
    p = system.pack()
    y = np.ascontiguousarray(y)
    dy = np.full_like(y, np.nan)
    fn(p["ints"], p["flts"], p["th_c"], p["adv_lo"], p["adv_hi"],
       p["nu_pack"], p["mnu_pack"], p["rf_c"], float(tau), y, dy)
    return dy


def test_the_packed_abi_addresses_one_wavenumber(bg_mdm, thermo_mdm):
    """No lane range, lane index or per-lane block: the pack is one
    wavenumber's structure, its k-dependent constants ride in ``flts``
    and the raw entry points take exactly the table plus their own
    arguments."""
    import ctypes

    system = PerturbationSystem(bg_mdm, thermo_mdm, float(KS[2]),
                                StateLayout(**LAYOUT_NQ4))
    p = system.pack()
    assert set(p) == {"ints", "flts", "th_c", "adv_lo", "adv_hi",
                      "nu_pack", "mnu_pack", "rf_c", "table"}
    assert len(p["table"]) == 8
    assert p["ints"].shape == (15,) and p["ints"][0] == system.layout.n_state
    k = system.k
    assert p["flts"].shape == (20,)
    assert p["flts"][16:].tolist() == [k, k * k, 0.75 * k, 4.0 / (3.0 * k)]
    assert p["adv_lo"].ndim == p["adv_hi"].ndim == 1
    fn = get_cext()
    ptr, i64, dbl = ctypes.c_void_p, ctypes.c_longlong, ctypes.c_double
    for raw in (fn.rhs_raw, fn.rhs_tca_raw):
        assert raw.argtypes == [ptr] * 8 + [dbl, ptr, ptr]
    assert fn.evolve_raw.argtypes == [ptr] * 8 + [
        ptr, i64, ptr, ptr, ptr, i64] + [ptr] * 6
    assert not hasattr(fn, "integrate_raw")


def _random_states(bg, thermo, layout, seed):
    """(k, system, tau, state) at every k of KS, one rng stream."""
    rng = np.random.default_rng(seed)
    for k in KS.tolist():
        system = PerturbationSystem(bg, thermo, k, layout)
        tau0, y = _random_state(layout, bg, k, rng,
                                q_nodes=system.q_nodes)
        yield k, system, 3.0 * tau0, y


@pytest.mark.parametrize("nq", [0, 4])
def test_packed_python_kernel_bitwise(request, nq):
    """The packed ABI evaluated in plain python is bitwise equal to the
    reference rhs_full — same groupings, same libm calls."""
    bg, thermo, layout = _fixtures(request, nq)
    for k, system, tau, y in _random_states(bg, thermo, layout, 7):
        dy = _packed_eval(system, kernel_rhs_full, tau, y)
        ref = ReferencePerturbationSystem(bg, thermo, k, layout)
        assert np.array_equal(dy, ref.rhs_full(tau, y))


@pytest.mark.parametrize("nq", [0, 4])
def test_packed_python_tca_kernel_bitwise(request, nq):
    """... and so is the tight-coupling half of the same body, slaved
    zeros included, against the reference rhs_tca.  With massive
    neutrinos the packed order sums the momentum nodes left to right
    where the reference takes a BLAS dot, which pairs them: the last
    bit of hdot/etadot may differ, and everything downstream with it."""
    bg, thermo, layout = _fixtures(request, nq)
    for k, system, tau, y in _random_states(bg, thermo, layout, 8):
        dy = _packed_eval(system, kernel_rhs_tca, tau, y)
        dy_ref = ReferencePerturbationSystem(bg, thermo, k,
                                             layout).rhs_tca(tau, y)
        if nq == 0:
            assert np.array_equal(dy, dy_ref)
        else:
            np.testing.assert_allclose(dy, dy_ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nq", [0, 4])
def test_cext_kernel_within_oracle_budget(request, nq):
    """The compiled C kernel agrees with the python reference within
    the registered oracle.rhs_kernel budget (rtol 1e-10)."""
    from repro.verify.tolerances import budget

    bg, thermo, layout = _fixtures(request, nq)
    tol = budget("oracle.rhs_kernel")
    for k, system, tau, y in _random_states(bg, thermo, layout, 11):
        dy = _packed_eval(system, get_cext(), tau, y)
        dy_ref = ReferencePerturbationSystem(bg, thermo, k,
                                             layout).rhs_full(tau, y)
        scale = max(float(np.max(np.abs(dy_ref))), 1e-300)
        dev = float(np.max(np.abs(dy - dy_ref))) / scale
        assert dev <= tol.rtol, f"k={k}: {dev:.3e} > {tol.rtol:.1e}"


@pytest.mark.property
@pytest.mark.parametrize("nq", [0, 8])
@given(seed=seeds, b=k_idx, ts=tau_scale,
       lg_a=st.floats(min_value=-7.5, max_value=-2.8))
@relaxed
def test_cext_tca_kernel_is_the_python_kernel(request, nq, seed, b, ts, lg_a):
    """C ``rhs_tca`` against the python reference's ``rhs_tca`` on
    scaled random states, at every wavenumber of ``KS`` and scale
    factors from the earliest start to past the latest tight-coupling
    exit: bitwise without massive neutrinos, inside the
    ``oracle.rhs_kernel`` budget with them (the momentum sums are BLAS
    dots in python, loops in C)."""
    from repro.verify.tolerances import budget

    if nq:
        bg = request.getfixturevalue("bg_mdm")
        thermo = request.getfixturevalue("thermo_mdm")
        layout = StateLayout(**LAYOUT_NQ8)
    else:
        bg, thermo, layout = _fixtures(request, 0)
    k = float(KS[b])
    system = PerturbationSystem(bg, thermo, k, layout)
    tau0, y = _random_state(layout, bg, k, np.random.default_rng(seed),
                            q_nodes=system.q_nodes)
    y[layout.A] = 10.0 ** lg_a
    tau = ts * tau0
    want = ReferencePerturbationSystem(bg, thermo, k, layout).rhs_tca(tau, y)
    system._dy[:] = np.nan  # an entry left unwritten cannot pass for 0
    got = system.rhs_tca(tau, y)
    if nq == 0:
        assert got.tobytes() == want.tobytes()
    else:
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) / scale <= budget(
            "oracle.rhs_kernel").rtol


@functools.cache
def _thermal_right_hand_sides():
    """(the python reference's ``rhs``, compiled ``thermo_rhs`` in its
    signature) of four cosmologies: flat CDM, a massive species (the nu
    table and its clip), a cosmological constant, and a non-zero
    curvature term."""
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
    return [(functools.partial(reference_thermo.rhs, th), compiled(th))
            for th in histories]


@pytest.mark.property
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
    """C ``thermo_rhs`` against ``tests/reference_thermo.py``'s ``rhs``,
    its reference, bitwise on both outputs, massive species or not: every epoch the
    table grid spans and well outside it, x_H across both clamps, T_b
    from under its floor, through the Saha underflow and both Peebles
    cut-offs, to full ionization (bytes, not ``==``: a fully ionized
    cold state is inf / inf in both)."""
    t_b = 10.0 ** lg_t
    for python, compiled in _thermal_right_hand_sides():
        assert np.array(compiled(lna, x_h, t_b)).tobytes() \
            == np.array(python(lna, x_h, t_b)).tobytes()


def test_cext_kernel_threads_through_evolution(bg_scdm, thermo_scdm):
    """One full mode evolved by the compiled engine lands on the
    trajectory the python driver steps over the python reference RHS,
    at golden tolerance."""
    k, tol = 0.01, dict(rtol=3e-4, atol=1e-9)
    layout = StateLayout(lmax_photon=8, lmax_nu=8, nq=0, lmax_massive_nu=0)
    com = evolve_mode(bg_scdm, thermo_scdm, k, lmax_photon=8, lmax_nu=8,
                      **tol)
    ref = ReferencePerturbationSystem(bg_scdm, thermo_scdm, k, layout)
    t0, t_switch = com.tau_init, com.tau_switch
    y = DVERK(ref.rhs_tca, **tol).integrate(
        adiabatic_initial_conditions(layout, bg_scdm, k, t0), t0,
        t_switch).y
    ref.initialize_full_from_tca(y, t_switch)
    rate = PerturbationSystem(bg_scdm, thermo_scdm, k, layout).thomson_rate
    y = DVERK(ref.rhs_full, stiff_rate=rate, **tol).integrate(
        y, t_switch, com.tau_end).y
    assert t_switch == find_tca_exit(thermo_scdm, k)
    np.testing.assert_allclose(com.y_final, y, rtol=1e-8, atol=1e-300)


# ---------------------------------------------------------------------------
# Splines that depend on the cosmology alone are fitted with the tables
# ---------------------------------------------------------------------------


def test_one_spline_pack_per_cosmology(bg_mdm, thermo_mdm):
    layout = StateLayout(**LAYOUT_NQ4)
    one = PerturbationSystem(bg_mdm, thermo_mdm, float(KS[0]), layout)
    two = PerturbationSystem(bg_mdm, thermo_mdm, float(KS[3]), layout)
    assert one._th_c is two._th_c is thermo_mdm._rhs_pack
    assert one.pack()["th_c"] is two.pack()["th_c"]
    assert one._ln_kap_spline is thermo_mdm._ln_kap_spline
    assert one._ln_cs2_spline is thermo_mdm._ln_cs2_spline
    assert one._rho_fac is two._rho_fac is bg_mdm.nu_tables._log_rho_spline
    assert one._p_fac is bg_mdm.nu_tables._log_p_spline


def test_spline_pack_is_the_same_on_a_second_build(bg_mdm, thermo_mdm):
    """A rank that builds its own tables (``repro worker``) reads the
    same packs and splines as one handed the master's."""
    from repro import Background, ThermalHistory

    bg = Background(bg_mdm.params)
    thermo = ThermalHistory(bg)
    assert np.array_equal(thermo._rhs_pack, thermo_mdm._rhs_pack)
    layout = StateLayout(**LAYOUT_NQ4)
    system = PerturbationSystem(bg_mdm, thermo_mdm, float(KS[2]), layout)
    twin = PerturbationSystem(bg, thermo, float(KS[2]), layout)
    for a in np.geomspace(2e-8, 1.0, 50).tolist():
        for name in ("opacity", "cs2", "_rho_factor", "_pressure_factor",
                     "conformal_hubble"):
            assert getattr(twin, name)(a) == getattr(system, name)(a)
    assert all(np.array_equal(twin.pack()[name], system.pack()[name])
               for name in ("ints", "flts", "th_c", "rf_c"))


# ---------------------------------------------------------------------------
# One engine: no layer takes a kernel choice
# ---------------------------------------------------------------------------


def test_no_kernel_selection_layer():
    import repro.perturbations
    import repro.perturbations.system as system

    for module in (repro.perturbations, system):
        for gone in ("KERNELS", "available_kernels", "resolve_kernel"):
            assert not hasattr(module, gone)
    with pytest.raises(TypeError):
        LingerConfig(rhs_kernel="python")


def test_one_object_per_wavenumber(bg_scdm, thermo_scdm):
    """The system is the assembled operator: no second object behind
    it, no second count of its evaluations, no scalar-suffixed twins of
    its methods; its two right-hand sides are the compiled kernels'."""
    import repro.perturbations as perturbations

    assert not hasattr(perturbations, "BoltzmannOperator")
    layout = StateLayout(**LAYOUT_NQ0)
    system = PerturbationSystem(bg_scdm, thermo_scdm, float(KS[1]), layout)
    for gone in ("op", "evals", "seconds", "instrument", "rhs_scalar"):
        assert not hasattr(system, gone)
    assert not [name for name in dir(system) if name.endswith("_s")]
    with pytest.raises(TypeError):
        PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout,
                           instrument=True)
    tau0, y = _random_state(layout, bg_scdm, float(KS[1]),
                            np.random.default_rng(5))
    for name, fn in (("rhs_full", kernel_rhs_full),
                     ("rhs_tca", kernel_rhs_tca)):
        got = getattr(system, name)(2.0 * tau0, y)
        assert got is system._dy
        assert got.tobytes() == _packed_eval(system, fn, 2.0 * tau0,
                                             y).tobytes()


def test_system_takes_no_kernel(bg_scdm, thermo_scdm):
    layout = StateLayout(**LAYOUT_NQ0)
    with pytest.raises(TypeError):
        PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout,
                           rhs_kernel="python")
    assert not hasattr(
        PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout), "rhs_kernel")
    with pytest.raises(TypeError):
        evolve_mode(bg_scdm, thermo_scdm, 0.01, rhs_kernel="python")


# ---------------------------------------------------------------------------
# Telemetry: flop-census parity, retired report sections
# ---------------------------------------------------------------------------


def test_flop_census_identical_on_every_path(bg_scdm, thermo_scdm):
    """n_flops accounting must not depend on the execution path: the
    compiled loop and the python driver over the same RHS report the
    same structural census and the same total."""
    kwargs = dict(lmax_photon=8, lmax_nu=8, rtol=3e-4)
    loop = evolve_mode(bg_scdm, thermo_scdm, 0.01, **kwargs)
    python = evolve_mode(bg_scdm, thermo_scdm, 0.01, driver_cls=RKDriver,
                         **kwargs)
    assert loop.system.flops_per_eval() == python.system.flops_per_eval()
    assert loop.stats.n_flops == python.stats.n_flops > 0


def test_a_report_with_an_rhs_section_loads():
    """Reports written while the system kept its own evaluation count
    carried an ``rhs`` section and an ``rhs_evals`` total; they load,
    with both dropped — a mode's evaluations are its ``n_rhs``."""
    report = Telemetry()
    report.record_mode(k=0.01, n_rhs=90)
    old = report.to_dict()
    assert "rhs" not in old and "rhs_evals" not in old["totals"]
    old["rhs"] = {"evals": {"cext": 90, "python": 10},
                  "seconds": {"cext": 0.5}, "requested": "auto",
                  "active": "cext"}
    old["totals"].update(rhs_evals=100, rhs_kernel_active="cext",
                         rhs_compiled_fraction=0.9)
    old["counters"] = {"thermo.ode_rhs_evals": 5107,
                       "thermo.ode_rhs_compiled": 5107}
    loaded = Telemetry.from_dict(old)
    assert not hasattr(loaded, "rhs")
    assert loaded.counters["thermo.ode_rhs_compiled"] == 5107
    totals = loaded.totals
    assert totals["n_rhs"] == 90
    for gone in ("rhs_evals", "rhs_kernel_active", "rhs_compiled_fraction"):
        assert gone not in totals
    assert "rhs" not in loaded.to_dict()


def test_a_worker_payload_with_an_rhs_section_merges():
    """A rank that still ships an ``rhs`` section merges like any other:
    the section is skipped, the mode rows carry the counts."""
    t = Telemetry()
    t.record_mode(k=0.01, n_rhs=7)
    payload = t.to_dict()
    assert "rhs" not in payload
    payload["rhs"] = {"evals": {"cext": 7}, "seconds": {"cext": 0.1},
                      "requested": "auto", "active": "cext"}
    t2 = Telemetry()
    t2.merge(payload)
    assert [m.n_rhs for m in t2.modes] == [7]
    assert not hasattr(t2, "rhs")
