"""Mode evolution driver: the inner loop of LINGER.

:func:`evolve_mode` integrates one wavenumber from deep in the
radiation era to (by default) the present, in two phases:

1. tight coupling (MB95 first-order TCA) from ``tau_init`` until the
   Thomson time becomes a fraction ``tca_eps`` of min(1/k, 1/H_conf)
   or hydrogen starts recombining, then
2. the full hierarchy system to ``tau_end``,

recording observables (potentials, fluid perturbations, the
polarization sum Pi, line-of-sight ingredients) on caller-supplied
conformal-time grids.  This is exactly the work a PLINGER *worker*
performs for the wavenumbers it receives from the master.

A mode is one compiled call (:meth:`ModePlan.evolve`): both phases, the
hand-off of the slaved moments and the record pass — COSMICS's one
subroutine call per k, massive species or not — on a row of its grid's
:class:`ModePlan`, formed once per grid (:func:`evolve_mode`: a grid of
one).  Only the ``driver_cls`` test seam goes phase by phase, to the
same bits.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import _cext
from ..background import Background
from ..chaos import current_engine
from ..errors import IntegrationError, ParameterError
from ..integrators import DVERK, VERNER_65_TABLEAU, IntegratorStats
from ..integrators.dverk import RKDriver, step_flops
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from .initial import (
    adiabatic_initial_conditions,
    isocurvature_initial_conditions,
)
from .state import StateLayout
from .system import (
    _CTL_TAIL,
    _VERNER_TAB,
    RECORD_FIELDS,
    PerturbationSystem,
    advection_rows,
    flops_per_eval,
    phase_failure,
)

__all__ = ["ModeResult", "ModePlan", "evolve_mode", "run_mode",
           "default_record_grid", "record_grid_start", "tau_initial",
           "RECORD_FIELDS"]


@dataclass
class ModeResult:
    """Everything LINGER keeps from the evolution of one wavenumber."""

    k: float
    tau: np.ndarray  #: record grid [Mpc]
    records: dict[str, np.ndarray]
    y_final: np.ndarray
    layout: StateLayout
    stats: IntegratorStats
    tau_init: float
    tau_switch: float
    tau_end: float
    #: The RHS provider the evolution used (its flop census, and what a
    #: record pass needs to turn more states into observables); set by
    #: evolve_mode, not for the modes of a grid run
    system: PerturbationSystem | None = None
    #: CPU seconds of the whole evolution, set-up included (the paper's
    #: per-k cost, the ``cpu_seconds`` of its header)
    cpu_seconds: float = 0.0
    #: every RECORD_FIELDS entry on the final state at tau_end: the last
    #: row of the mode's one record pass
    final: dict[str, float] | None = None

    @property
    def f_gamma_final(self) -> np.ndarray:
        """Photon temperature multipoles F_l at tau_end."""
        return self.y_final[self.layout.sl_fg].copy()

    @property
    def g_gamma_final(self) -> np.ndarray:
        """Photon polarization multipoles G_l at tau_end."""
        return self.y_final[self.layout.sl_gg].copy()

    @property
    def theta_l_final(self) -> np.ndarray:
        """Temperature transfer Theta_l = F_l / 4 at tau_end."""
        return self.f_gamma_final / 4.0


def tau_initial(k, kt_init: float = 0.03, tau_cap: float = 1.5):
    """Starting conformal time for wavenumber ``k`` (a float, or an
    array elementwise): k tau = kt_init, capped so small-k modes still
    start deep in the radiation era."""
    cap = np.minimum if isinstance(k, np.ndarray) else min
    return cap(kt_init / k, tau_cap)


def default_record_grid(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    tau_end: float | None = None,
) -> np.ndarray:
    """A conformal-time grid that resolves the visibility peak.

    Log-spaced before recombination (30 points), uniform through the
    visibility function (140; where the acoustic sources live),
    log-spaced through the free-streaming / ISW era to ``tau_end`` (90).

    The grid depends on ``k`` only through the mode's start time (every
    k <= 0.02 shares one), so it is built once per start time and
    shared: the array is read-only.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    return _record_grid(tau_initial(k) * 1.05, thermo.tau_rec, tau_end)


@functools.lru_cache(maxsize=32)
def _record_grid(t0: float, t_rec: float, tau_end: float) -> np.ndarray:
    return _record_grids(np.array([t0]), t_rec, tau_end)[0]


def _record_grids(t0: np.ndarray, t_rec: float,
                  tau_end: float) -> list[np.ndarray]:
    """The read-only record grid of each start time ``t0``: one early
    ``geomspace`` for all (elementwise one per start), the rest shared."""
    lo, hi = 0.45 * t_rec, min(2.2 * t_rec, 0.9 * tau_end)
    tail = np.concatenate([np.linspace(lo, hi, 140, endpoint=False),
                           np.geomspace(hi, tau_end, 90)])
    grids = []
    for start, head in zip(t0.tolist(), np.geomspace(
            t0, lo, 30, endpoint=False, axis=-1)):
        grid = np.concatenate([head, tail]) if start < lo else tail
        grid = grid[(grid > start * 0.999) & (grid <= tau_end)]
        grid.flags.writeable = False
        grids.append(grid)
    return grids


def record_grid_start(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    tau_end: float | None = None,
) -> float:
    """``default_record_grid(background, thermo, k, tau_end=tau_end)[0]``
    without building the grid.

    A mode that starts before the uniform recombination stretch — every
    mode of a physical cosmology: ``tau_initial`` is capped at 1.5 Mpc —
    records first at its own start time, which ``geomspace`` returns
    exactly.  Anything else reads the grid.
    """
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    t0 = tau_initial(k) * 1.05
    if t0 < 0.45 * thermo.tau_rec and t0 <= tau_end:
        return t0
    return float(
        default_record_grid(background, thermo, k, tau_end=tau_end)[0])


def find_tca_exit(
    thermo: ThermalHistory,
    k: float,
    tca_eps: float = 0.01,
    xe_threshold: float = 0.99,
) -> float:
    """Conformal time at which tight coupling stops being valid.

    Exit when 1/kappa' exceeds ``tca_eps`` times min(1/k, 1/H_conf), or
    when x_e falls below ``xe_threshold`` times its first table value,
    whichever is earlier.  Everything but ``k`` is read off the thermal
    history's own tables.

    What the second test does today: the first table value is the fully
    ionized 1 + 2 f_He = 1.158, so 0.99 of it is crossed when helium
    goes He++ -> He+ at z ~ 6000 — tau = 63.3 Mpc for every k < 0.09,
    where tau_c a H is 0.002 — not when hydrogen recombination begins;
    the first test would fire at tau = 156.  The explicit integrator
    then steps at its stability limit on the stiff Thomson terms from
    63 to 250 Mpc: that stretch holds ~915 of the 933 accepted steps
    of a low-k mode, every one at the bound the full phase
    hands its driver (:meth:`PerturbationSystem.thomson_rate`), none
    rejected.  The switch time is still what the ROADMAP item "End
    tight coupling when the physics says so" waits on:
    keyed on the hydrogen fraction instead, a mode takes 3-12x fewer
    evaluations — and moves P(k) at k = 0.06 by 5e-6, because the
    committed references were made with this switch and budget 9e-7
    around it.
    So it stays until the ``[benchmark]`` PR regenerates them; do not
    "fix" it alone.

    ``k`` may be an array: before the first row of the k-free tests the
    exit is where the running minimum of ``tca_eps kappa'`` falls below
    k, one search for a whole grid.
    """
    rate = thermo._kappa_dot_table * tca_eps
    free = ((rate < thermo._conformal_hubble_table)
            | (thermo._x_e_table < xe_threshold * thermo._x_e_table[0]))
    first = int(np.argmax(free)) if free.any() else free.size
    floor = np.minimum.accumulate(rate[:first])
    idx = np.searchsorted(-floor, -np.asarray(k), side="right")
    if np.any(idx == free.size):
        raise IntegrationError("tight coupling never ends before today")
    tau = thermo._tau[idx]
    return tau if tau.ndim else float(tau)


_IC_BUILDERS = {
    "adiabatic": adiabatic_initial_conditions,
    "isocurvature": isocurvature_initial_conditions,
}


class ModePlan:
    """What the modes of a grid read that depends only on the grid, the
    tables and the numerics, formed once (per ``run_linger`` call, per
    PLINGER rank before its launch, per served run; :func:`evolve_mode`
    makes a grid of one), so a mode is one compiled call (:meth:`evolve`).

    Per wavenumber: its row of the table pack (k, k^2, 0.75 k, 4/(3k),
    the advection rows), the initial state ``y0``, the tight-coupling
    exit, the phase stops and counts and the control block; per thread,
    the call's work space.  ``lmax_photon`` is per wavenumber;
    ``record_tau`` None (no records), True (:func:`default_record_grid`)
    or one grid for all.  Each part is bitwise what one wavenumber
    alone gives.
    """

    def __init__(self, background: Background, thermo: ThermalHistory,
                 k, lmax_photon, *, lmax_nu: int = 12, nq: int = 0,
                 lmax_massive_nu: int = 10, tau_end: float | None = None,
                 record_tau=None, rtol: float = 1e-5, atol: float = 1e-9,
                 first_step: float | None = None, tca_eps: float = 0.01,
                 amplitude: float = 1.0, keep_records: bool = True,
                 max_steps: int = 2_000_000) -> None:
        k = np.asarray(k, dtype=float)
        if not np.all(k > 0.0):
            raise ParameterError("k must be positive")
        tau_end = background.tau0 if tau_end is None else float(tau_end)
        t_init = tau_initial(k)
        if np.any(t_init >= tau_end):
            raise ParameterError("tau_end precedes the initial time")
        t_switch = np.minimum(np.maximum(
            find_tca_exit(thermo, k, tca_eps=tca_eps), t_init * 1.01),
            tau_end)
        self.k, self.tau_end = k.tolist(), tau_end
        self.t_init, self.t_switch = t_init.tolist(), t_switch.tolist()
        self.max_steps, self._records = max_steps, keep_records
        self._tables = (background, thermo)
        self._numerics = (rtol, atol, first_step)
        self._ctl = np.empty((k.size, 15))
        self._ctl[:] = [0.0, 0.0, rtol, atol, math.inf, 0.0,
                        math.nan if first_step is None else first_step,
                        *_CTL_TAIL, tau_end, 0.0, 0.0]
        self._ctl[:, 0], self._ctl[:, 1] = t_init, t_switch
        starts = sorted(set(self.t_init))
        if record_tau is True:  # one default grid per start time
            record_tau = _record_grids(np.array(starts) * 1.05,
                                       thermo.tau_rec, tau_end)
        elif record_tau is not None:
            record_tau = [record_tau] * len(starts)
        if record_tau is None:  # a phase end is never a record point
            stops = np.column_stack([t_switch, np.full(k.size, tau_end)])
            counts, self.tau = [(1, 1, 0, 0)] * k.size, [np.empty(0)] * k.size
        else:  # each grid checked once, as evolve_mode checks it
            grids = {a: record_points(grid, a, tau_end)
                     for a, grid in zip(starts, record_tau)}
            ends = list(zip(self.t_init, self.t_switch))
            rows = {ab: mode_stops(grids[ab[0]], *ab, tau_end)
                    for ab in set(ends)}  # most modes share both ends
            stops, counts, self.tau = zip(*(rows[ab] for ab in ends))
            for tau in self.tau:
                tau.flags.writeable = False
        self._stops = np.concatenate(stops, axis=None)
        self._first = np.cumsum([0] + [len(x) for x in stops]).tolist()
        self._counts = np.array(counts, dtype=np.int64)
        self._m = self._counts[:, 2:].sum(1).tolist()  # records per mode
        self.layout, self.y0, self._args = ([None] * k.size for _ in "lya")
        self._systems, self._alive = {}, []
        nq = nq if background.params.omega_nu > 0 else 0
        lmax = np.array(lmax_photon)
        for lm in np.unique(lmax).tolist():
            idx = np.flatnonzero(lmax == lm)
            self._assemble(k[idx], idx.tolist(), t_init[idx], amplitude,
                           StateLayout(lmax_photon=lm, lmax_nu=lmax_nu, nq=nq,
                                       lmax_massive_nu=(lmax_massive_nu
                                                        if nq else 0)))
        self._local = threading.local()
        self._raw = _cext.get_cext().evolve_raw

    def _assemble(self, k, idx, t_init, amplitude,
                  layout: StateLayout) -> None:
        """Rows and initial states of ``k`` (grid positions ``idx``)."""
        system = self._systems[idx[0]] = PerturbationSystem(
            *self._tables, float(k[0]), layout)
        pack = system.pack()
        flts = np.empty((k.size, pack["flts"].size))
        flts[:] = pack["flts"]
        flts[:, 16:] = np.stack([k, k * k, 0.75 * k, 4.0 / (3.0 * k)], 1)
        lo, hi = advection_rows(layout, k)
        y0 = adiabatic_initial_conditions(
            layout, self._tables[0], k, t_init,
            q_nodes=system.q_nodes if layout.nq else None,
            amplitude=amplitude)
        self._alive += [flts, lo, hi]  # the calls take their addresses
        table = list(pack["table"])
        rows = [(a.ctypes.data, a.strides[0]) for a in (flts, lo, hi)]
        fixed = (_VERNER_TAB.ctypes.data, VERNER_65_TABLEAU.n_stages)
        stops, counts = self._stops.ctypes.data, self._counts.ctypes.data
        par = system._record_par.ctypes.data
        per_step = step_flops(VERNER_65_TABLEAU, layout.n_state,
                              flops_per_eval(layout))
        for j, i in enumerate(idx):
            table[1], table[3], table[4] = (p + j * b for p, b in rows)
            self.layout[i], self.y0[i] = layout, y0[j]
            self._args[i] = (*table, *fixed, stops + 8 * self._first[i],
                             counts + 32 * i, par, per_step)

    def phases(self, i: int) -> tuple[tuple, tuple]:
        """Mode ``i``'s tight-coupling then full-hierarchy phase as the
        drivers take them: ``(tight, t0, t1, stops, n_recorded)`` each,
        the first ``n_recorded`` of ``stops`` being record points."""
        stops = self._stops[self._first[i]:self._first[i + 1]]
        n_t, _, m_t, m_f = self._counts[i].tolist()
        return ((True, self.t_init[i], self.t_switch[i], stops[:n_t], m_t),
                (False, self.t_switch[i], self.tau_end, stops[n_t:], m_f))

    def system(self, i: int) -> PerturbationSystem:
        """Wavenumber ``i``'s assembled system (one per layout is kept)."""
        return self._systems.get(i) or PerturbationSystem(
            *self._tables, self.k[i], self.layout[i])

    def _buffers(self) -> list:
        """This thread's state, control block, rows, records, scratch and
        counters, and their addresses."""
        b = getattr(self._local, "b", None)
        if b is None:
            n = max(layout.n_state for layout in self.layout)
            rows = int(self._counts[:, :2].sum(1).max()) + 1
            b = self._local.b = [
                np.empty(n), np.empty(15), np.empty(rows * n),
                np.empty(20 * (max(self._m) + 1)),
                np.empty((VERNER_65_TABLEAU.n_stages + 5) * n),
                np.empty(10, dtype=np.int64)]
            b.append([a.ctypes.data for a in b])
        return b

    def evolve(self, i: int) -> tuple[ModeResult, np.ndarray, tuple]:
        """Mode ``i``: one compiled call, the chaos engine's kernel poison
        consulted once; its :class:`ModeResult` (no ``system``, records
        if ``keep_records``), the states at its record points then the
        final one (this thread's buffer) and the walls of the two
        phases.  A failure raises the python driver's error."""
        y, ctl, rows, rec, _, out, (py, pc, pr, pe, pw, po) = self._buffers()
        *table, tab, s, ps, pn, par, per_step = self._args[i]
        n, m = self.layout[i].n_state, self._m[i] + 1
        y[:n] = self.y0[i]
        ctl[:] = self._ctl[i]
        status = self._raw(*table, tab, s, pc, ps, pn, self.max_steps, py,
                           pr, par, pe, pw, po)
        eng = current_engine()
        if eng is not None and eng.poison_rhs(self.k[i]):
            y[:n] = np.nan
            status = status or 4
        if status:
            raise IntegrationError(phase_failure(
                status, float(ctl[0]), float(ctl[6]), self.max_steps))
        # both phases' counters: accepted, rejected, evaluations, stops
        # reached, attempts at the stability bound; the flops by the
        # python driver's formula (per phase its first evaluation, then
        # every attempted step)
        steps, rejected, n_rhs, _, bound = out.reshape(2, 5).sum(0).tolist()
        flops = (2 * (per_step // VERNER_65_TABLEAU.n_stages)
                 + per_step * (steps + rejected))
        stats = IntegratorStats(steps, rejected, n_rhs, flops, bound)
        return (self._result(i, y[:n], rec[:20 * m].reshape(20, m), stats),
                rows[:m * n].reshape(m, n), (float(ctl[13]), float(ctl[14])))

    def drive(self, i: int, driver_cls: type[RKDriver]) -> tuple:
        """:meth:`evolve`, to the same bits, but the python driver
        ``driver_cls`` (a test seam) steps each phase on the compiled
        right-hand side, the full phase under
        ``stiff_rate=system.thomson_rate``."""
        system, stats = self.system(i), IntegratorStats()
        y, rows, walls = self.y0[i].copy(), [], [time.perf_counter()]
        rtol, atol, first_step = self._numerics
        phases = self.phases(i)
        for tight, t0, t1, stops, m in phases:
            res = driver_cls(system.rhs_tca if tight else system.rhs_full,
                             rtol=rtol, atol=atol, max_steps=self.max_steps,
                             first_step=first_step,
                             flops_per_rhs=system.flops_per_eval(),
                             # tight coupling has no Thomson terms to be
                             # stiff on
                             stiff_rate=None if tight else system.thomson_rate,
                             ).integrate(y, t0, t1, stop_points=stops,
                                         stats=stats)
            y = res.y
            rows.append(res.recorded_y[:m])
            if tight:
                system.initialize_full_from_tca(y, t1)
            walls.append(time.perf_counter())
        rows = np.concatenate([*rows, y[None]])
        return (self._result(i, y, system.record(rows, phases[0][4]), stats),
                rows, (walls[1] - walls[0], walls[2] - walls[1]))

    def _result(self, i, y, rec, stats) -> ModeResult:
        m = rec.shape[1] - 1
        return ModeResult(
            k=self.k[i], tau=self.tau[i], records=dict(zip(
                RECORD_FIELDS, rec[:, :m].copy())) if self._records else {},
            y_final=y.copy(), layout=self.layout[i], stats=stats,
            tau_init=self.t_init[i], tau_switch=self.t_switch[i],
            tau_end=self.tau_end,
            final=dict(zip(RECORD_FIELDS, rec[:, m].tolist())))


def evolve_mode(
    background: Background,
    thermo: ThermalHistory,
    k: float,
    lmax_photon: int = 12,
    lmax_nu: int = 12,
    nq: int = 0,
    lmax_massive_nu: int = 10,
    tau_end: float | None = None,
    record_tau: np.ndarray | None = None,
    rtol: float = 1e-5,
    atol: float = 1e-9,
    first_step: float | None = None,
    tca_eps: float = 0.01,
    amplitude: float = 1.0,
    initial_conditions: str = "adiabatic",
    driver_cls: type[RKDriver] = DVERK,
    max_steps: int = 2_000_000,
    telemetry: Telemetry = NULL_TELEMETRY,
    monitor=None,
) -> ModeResult:
    """Evolve one wavenumber.

    This is the LINGER worker computation — everything from the series
    initial conditions at ``k tau = 0.03`` to the multipoles today:
    initial conditions, the tight-coupling phase to ``tau_switch``, the
    hand-off of the slaved moments, the full hierarchy to ``tau_end``,
    one record pass over the record points of both phases and the
    final state (:attr:`ModeResult.final`) — a grid of one
    (:class:`ModePlan`) and its :meth:`~ModePlan.evolve`.  The counters
    accumulate in one :class:`IntegratorStats` over both phases
    (``max_steps`` is its budget for the whole evolution).

    ``record_tau`` is None (no records) or the record grid: strictly
    increasing, inside ``(tau_init, tau_end]``, else
    :class:`~repro.errors.ParameterError`.

    ``monitor`` is None or a callable ``monitor(tau, y, tight)`` invoked
    at every record point (never at the final state, unless it is
    one) — the hook ``repro.verify`` uses to sample
    Einstein-constraint residuals along the production trajectory — and
    is bound to the mode's system.  Like telemetry, a monitor is a pure
    observer: the integration is bit-identical with or without it.

    ``first_step`` forces every phase's opening step.  ``driver_cls``
    replaces the compiled loop by a python driver stepping the compiled
    right-hand side (a test seam: anything but DVERK).

    ``ModeResult.cpu_seconds`` is the whole call's CPU time.  When
    ``telemetry`` is enabled, a completed mode leaves one
    :class:`~repro.telemetry.report.ModeMetrics` with its counters and
    the wallclock of its two phases.
    """
    cpu0 = time.process_time()
    if initial_conditions not in _IC_BUILDERS:
        raise ParameterError(
            f"unknown initial_conditions {initial_conditions!r}; "
            f"choose from {sorted(_IC_BUILDERS)}"
        )
    plan = ModePlan(background, thermo, [k], [lmax_photon], lmax_nu=lmax_nu,
                    nq=nq, lmax_massive_nu=lmax_massive_nu, tau_end=tau_end,
                    record_tau=record_tau, rtol=rtol, atol=atol,
                    first_step=first_step, tca_eps=tca_eps,
                    amplitude=amplitude, max_steps=max_steps)
    system = plan.system(0)
    if initial_conditions != "adiabatic":
        plan.y0[0] = _IC_BUILDERS[initial_conditions](
            system.layout, background, system.k, plan.t_init[0],
            q_nodes=system.q_nodes if system.nq else None,
            amplitude=amplitude)
    mode = run_mode(plan, 0, driver_cls=driver_cls, telemetry=telemetry,
                    monitor=monitor)
    mode.system = system
    mode.cpu_seconds = time.process_time() - cpu0
    return mode


def run_mode(plan: ModePlan, i: int, driver_cls: type[RKDriver] = DVERK,
             telemetry: Telemetry = NULL_TELEMETRY, monitor=None) -> ModeResult:
    """Mode ``i`` of ``plan`` (:meth:`ModePlan.evolve`), observed as
    :func:`evolve_mode` describes: ``monitor`` bound to the mode's
    system and called at its record points, one ``ModeMetrics`` in an
    enabled ``telemetry``, ``cpu_seconds`` the call's CPU time."""
    cpu0 = time.process_time()
    if monitor is not None and hasattr(monitor, "bind"):
        monitor.bind(plan.system(i))
    mode, rows, walls = (plan.evolve(i) if driver_cls is DVERK
                         else plan.drive(i, driver_cls))
    if monitor is not None:  # the record points, not the final state
        n_tight = plan.phases(i)[0][4]
        for j, (t, row) in enumerate(zip(mode.tau.tolist(), rows.copy())):
            monitor(t, row, j < n_tight)
    # only a mode that completed leaves rows: a failed one is retried
    # whole (linger.serial.compute_mode)
    if telemetry.enabled:
        st = mode.stats
        telemetry.record_mode(
            k=mode.k, lmax=mode.layout.lmax_photon, n_rhs=st.n_rhs,
            n_steps=st.n_steps, n_rejected=st.n_rejected,
            n_stability_bound=st.n_stability_bound, flops_est=st.n_flops,
            tau_switch=mode.tau_switch, tca_wall_seconds=walls[0],
            full_wall_seconds=walls[1], wall_seconds=walls[0] + walls[1])
    mode.cpu_seconds = time.process_time() - cpu0
    return mode


def record_points(record_tau, t_init: float, tau_end: float) -> np.ndarray:
    """``record_tau`` (None: none) as a float array, refused with
    :class:`~repro.errors.ParameterError` unless strictly increasing
    inside ``(t_init, tau_end]``."""
    grid = (np.empty(0) if record_tau is None
            else np.asarray(record_tau, dtype=float))
    if not (grid[1:] > grid[:-1]).all():
        i = int(np.flatnonzero(~(grid[1:] > grid[:-1]))[0])
        raise ParameterError(
            f"record grid is not strictly increasing: entry {i + 1} "
            f"({grid[i + 1]:.6g}) follows {grid[i]:.6g}")
    if grid.size and not (t_init < grid[0]
                          and grid[-1] <= tau_end * (1 + 1e-9)):
        raise ParameterError("record grid outside (tau_init, tau_end]")
    return grid


def mode_stops(grid: np.ndarray, t_init: float, t_switch: float,
               tau_end: float) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Each phase's stops over the record points ``grid`` (checked by
    :func:`record_points`) as the drivers take them, the counts the
    compiled call takes — stops per phase, then how many are recorded (a
    phase end only when it is a record point, and once) — and the record
    points reached."""
    j, e = np.searchsorted(grid, (t_switch, tau_end), side="right").tolist()
    end_t = bool(not j or grid[j - 1] < t_switch)  # a phase end's stop
    end_f = bool(e == j or grid[e - 1] < tau_end)
    n_t, n_f = j + end_t, e - j + end_f
    # no tight point is after t_switch: only the last can be at it
    m_t = n_t - (not _in(t_switch, grid[j - 1:j]))
    m_f = n_f - (not _in(tau_end, grid[j:]))
    stops = np.concatenate([grid[:j], [t_switch] * end_t, grid[j:e],
                            [tau_end] * end_f])
    return (stops, (n_t, n_f, m_t, m_f),
            np.concatenate([stops[:m_t], stops[n_t:n_t + m_f]]))


def _in(t: float, grid: np.ndarray) -> bool:
    """True when t coincides with a requested record point (the driver
    also stops at phase ends, which must not be recorded twice)."""
    if grid.size == 0:
        return False
    j = np.searchsorted(grid, t)
    for jj in (j - 1, j):
        if 0 <= jj < grid.size and abs(grid[jj] - t) <= 1e-9 * max(t, 1.0):
            return True
    return False
