"""Recording as one array pass per phase, against the row recorder.

``evolve._Recorder.record`` evaluates every ``RECORD_FIELDS`` entry for
a whole block of stop-point states at once.  It replaced a recorder
that was called back once per stop (now ``tests/reference_recorder.py``)
and must not move a bit of what that one wrote: elementwise array
arithmetic in the scalar expressions' grouping, libm ``exp``/``log``
value by value, the massive-neutrino momentum sums still one dot per
row.  These tests hold it to that on both phases, with and without
massive neutrinos, on every kernel this host has — and pin what rides
on the same function: the one-row record behind
``ModeResult.final_observables``, the phase-end rule (a phase end is
recorded only when it is a record point, and then once), and monitors,
which see the same ``(tau, y, tight)`` sequence as before and change
nothing.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import KGrid, LingerConfig, run_linger
from repro.perturbations import default_record_grid, evolve_mode
from repro.perturbations.evolve import RECORD_FIELDS, _Recorder, find_tca_exit
from repro.perturbations.operator import available_kernels
from tests.reference_recorder import ReferenceRecorder

KERNELS = [k for k in ("python", "cext") if k in available_kernels()]


class Rows:
    """A monitor that keeps everything it is shown."""

    def __init__(self):
        self.seen = []

    def __call__(self, tau, y, tight):
        self.seen.append((tau, np.array(y), tight))

    def same_as(self, other) -> bool:
        return len(self.seen) == len(other.seen) and all(
            (t1, f1, y1.tobytes()) == (t2, f2, y2.tobytes())
            for (t1, y1, f1), (t2, y2, f2) in zip(self.seen, other.seen))


def _tables(request, nq):
    name = "mdm" if nq else "scdm"
    return (request.getfixturevalue(f"bg_{name}"),
            request.getfixturevalue(f"thermo_{name}"))


def _evolve(bg, thermo, k, nq, grid, **kwargs):
    return evolve_mode(bg, thermo, k, lmax_photon=8, lmax_nu=8, nq=nq,
                       lmax_massive_nu=6, record_tau=grid, rtol=1e-3,
                       **kwargs)


def _replayed(mode, rows):
    """The states a mode recorded, through the row recorder."""
    ref = ReferenceRecorder(mode.system, len(rows.seen))
    for tau, y, tight in rows.seen:
        ref.tight = tight
        ref(tau, y)
    return ref


def _assert_same_records(mode, ref):
    assert mode.tau.tobytes() == ref.tau.tobytes()
    assert tuple(mode.records) == RECORD_FIELDS
    for name in RECORD_FIELDS:
        assert mode.records[name].tobytes() == ref.arrays[name].tobytes(), \
            name


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("nq", [0, 8])
def test_array_pass_is_the_row_recorder(request, nq, kernel):
    bg, thermo = _tables(request, nq)
    for k in (0.002, 0.01, 0.05):
        grid = default_record_grid(bg, thermo, k)
        rows = Rows()
        mode = _evolve(bg, thermo, k, nq, grid, monitor=rows,
                       rhs_kernel=kernel)
        assert mode.tau.tolist() == grid.tolist()
        # both phases recorded, tight coupling first
        flags = [tight for _, _, tight in rows.seen]
        assert flags == sorted(flags, reverse=True) and len(set(flags)) == 2
        assert np.isnan(mode.records["delta_nu_massive"]).all() == (nq == 0)
        _assert_same_records(mode, _replayed(mode, rows))

        # the one-row record behind final_observables
        last = ReferenceRecorder(mode.system, 1)
        last.tight = False
        last(mode.tau_end, mode.y_final)
        final = mode.final_observables()
        assert list(final) == list(RECORD_FIELDS)
        assert all(
            np.float64(final[name]).tobytes() == last.arrays[name].tobytes()
            for name in RECORD_FIELDS)


@pytest.mark.parametrize("nq", [0, 8])
def test_a_rows_record_does_not_depend_on_its_block(request, nq):
    """The same states recorded as one block, row by row, and in two
    uneven blocks land on the same bytes."""
    bg, thermo = _tables(request, nq)
    rows = Rows()
    mode = _evolve(bg, thermo, 0.02, nq,
                   default_record_grid(bg, thermo, 0.02), monitor=rows,
                   rhs_kernel="python")
    full = [(tau, y) for tau, y, tight in rows.seen if not tight]
    tau = np.array([t for t, _ in full])
    block = np.array([y for _, y in full])
    n = len(full)
    assert n > 10

    def recorded(cuts):
        rec = _Recorder(mode.system, n)
        for lo, hi in zip((0,) + cuts, cuts + (n,)):
            rec.record(False, tau[lo:hi], block[lo:hi])
        assert rec.i == n
        return rec.tau.tobytes() + b"".join(
            rec.arrays[name].tobytes() for name in RECORD_FIELDS)

    whole = recorded(())
    assert recorded(tuple(range(1, n))) == whole
    assert recorded((7,)) == whole


@pytest.mark.parametrize("kernel", KERNELS)
def test_no_grid_records_nothing(bg_scdm, thermo_scdm, kernel):
    for grid in (None, np.empty(0)):
        rows = Rows()
        mode = _evolve(bg_scdm, thermo_scdm, 0.01, 0, grid, monitor=rows,
                       rhs_kernel=kernel)
        assert mode.tau.size == 0 and not rows.seen
        assert all(arr.size == 0 for arr in mode.records.values())
        assert np.isfinite(list(mode.final_observables().values())[:9]).all()
    rec = _Recorder(mode.system, 0)
    rec.record(True, np.empty(0), np.empty((0, mode.layout.n_state)))
    assert rec.i == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_phase_ends_are_recorded_only_as_record_points(bg_scdm, thermo_scdm,
                                                       kernel):
    """Every driver also stops at tau_switch and at tau_end.  A grid
    point exactly at tau_switch is the last record of the tight phase
    (once, with the tight-coupling shear); a grid that ends before
    tau_end gets no record there."""
    k = 0.01
    t_switch = find_tca_exit(thermo_scdm, k)
    grid = np.array([0.5 * t_switch, t_switch, 1.5 * t_switch,
                     0.5 * bg_scdm.tau0])
    rows = Rows()
    mode = _evolve(bg_scdm, thermo_scdm, k, 0, grid, monitor=rows,
                   rhs_kernel=kernel)
    assert mode.tau_switch == t_switch
    assert mode.tau.tolist() == grid.tolist()
    assert [tight for _, _, tight in rows.seen] == [True, True, False, False]
    _assert_same_records(mode, _replayed(mode, rows))
    # in tight coupling Pi is slaved to the shear; afterwards it is not
    pi, sigma = mode.records["pi"], mode.records["sigma_g"]
    assert (pi[:2] == 5.0 * sigma[:2]).all()
    assert (pi[2:] != 5.0 * sigma[2:]).all()

    # tau_end as a record point: recorded, once
    grid = np.append(grid, bg_scdm.tau0)
    mode = _evolve(bg_scdm, thermo_scdm, k, 0, grid, rhs_kernel=kernel)
    assert mode.tau.tolist() == grid.tolist()
    final = mode.final_observables()
    assert all(
        np.float64(final[name]).tobytes() == arr[-1:].tobytes()
        for name, arr in mode.records.items())


def test_a_monitor_changes_nothing_and_sees_the_same_rows(bg_scdm,
                                                          thermo_scdm):
    """Monitored and unmonitored runs return the same bytes, and the
    monitor is shown the same ``(tau, y, tight)`` sequence whichever
    kernel and driver stepped the mode (nq=0: they agree bitwise)."""
    k = 0.02
    grid = default_record_grid(bg_scdm, thermo_scdm, k)
    plain = _evolve(bg_scdm, thermo_scdm, k, 0, grid, rhs_kernel="python")
    first = None
    for kernel in KERNELS:
        rows = Rows()
        mode = _evolve(bg_scdm, thermo_scdm, k, 0, grid, monitor=rows,
                       rhs_kernel=kernel)
        assert [t for t, _, _ in rows.seen] == grid.tolist()
        assert mode.y_final.tobytes() == plain.y_final.tobytes()
        assert mode.stats == plain.stats
        assert mode.tau.tobytes() == plain.tau.tobytes()
        for name, arr in plain.records.items():
            assert mode.records[name].tobytes() == arr.tobytes(), name
        first = first or rows
        assert rows.same_as(first)


@pytest.mark.parametrize("kernel", KERNELS)
def test_constraint_monitors_leave_a_run_bitwise_alone(scdm, bg_scdm,
                                                       thermo_scdm, kernel):
    kgrid = KGrid.from_k(np.geomspace(2e-3, 0.04, 3))
    config = LingerConfig(lmax_photon=8, lmax_nu=8, rtol=1e-3,
                          rhs_kernel=kernel)
    common = dict(background=bg_scdm, thermo=thermo_scdm)
    plain = run_linger(scdm, kgrid, config, **common)
    watched = run_linger(scdm, kgrid, config, monitor_constraints=True,
                         **common)
    for a, b in zip(plain.headers, watched.headers):
        assert (replace(a, cpu_seconds=0.0).pack().tobytes()
                == replace(b, cpu_seconds=0.0).pack().tobytes())
    for a, b in zip(plain.payloads, watched.payloads):
        assert a.pack().tobytes() == b.pack().tobytes()
    for a, b in zip(plain.modes, watched.modes):
        assert a.tau.tobytes() == b.tau.tobytes()
        for name, arr in a.records.items():
            assert b.records[name].tobytes() == arr.tobytes(), name
    # one sample per record point, in record order, tight ones first
    for mode, residuals in zip(watched.modes, watched.constraints):
        assert residuals.tau.tolist() == mode.tau.tolist()
        tight = np.isnan(residuals.pressure)
        assert tight.any() and not tight.all()
        assert (tight == (mode.tau <= mode.tau_switch)).all()
