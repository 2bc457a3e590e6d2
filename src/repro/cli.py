"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror what a LINGER/PLINGER user did at the shell:

* ``info``      — print the model's derived background quantities
* ``run``       — integrate a k-grid (serial or PLINGER) and archive it
* ``spectrum``  — C_l band powers from an archive (hierarchy method)
* ``scaling``   — the Fig. 1 schedule simulation on a 1995 machine
* ``verify``    — Einstein-constraint monitors + differential oracles
* ``serve``     — long-lived warm spectrum service (daemon)
* ``request``   — query a running spectrum service
* ``worker``    — join a sockets-backend run as a (remote) worker rank
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .params import lambda_cdm, mixed_dark_matter, standard_cdm, tilted_cdm
from .util import format_table

__all__ = ["main", "build_parser"]

MODELS = {
    "scdm": standard_cdm,
    "tilted": tilted_cdm,
    "lcdm": lambda_cdm,
    "mdm": mixed_dark_matter,
}


def _info_arguments(p) -> None:
    p.add_argument("--model", choices=sorted(MODELS), default="scdm")


def _run_arguments(p) -> None:
    from .chaos import PROFILES

    p.add_argument("--model", choices=sorted(MODELS), default="scdm")
    p.add_argument("--k-min", type=float, default=3e-5)
    p.add_argument("--k-max", type=float, default=3e-3)
    p.add_argument("--nk", type=int, default=24)
    p.add_argument("--lmax", type=int, default=24)
    p.add_argument("--rtol", type=float, default=1e-4)
    p.add_argument("--parallel", type=int, default=0, metavar="NPROC",
                   help="run PLINGER with this many ranks (0 = serial)")
    p.add_argument("--sparse-k-factor", type=int, default=1,
                   metavar="F",
                   help="sparse-k fast path: integrate only every F-th "
                        "wavenumber (plus the endpoints), spline the "
                        "recorded sources across k, and report the "
                        "line-of-sight C_l on the full grid; the "
                        "archive then holds the coarse run "
                        "(1 = integrate every mode)")
    p.add_argument("--backend",
                   choices=["inprocess", "procs", "sockets"],
                   default="procs",
                   help="PLINGER transport (with --parallel); "
                        "'sockets' runs every worker as a separate "
                        "OS process over real TCP and accepts "
                        "elastic ranks (see 'repro worker')")
    p.add_argument("--listen", metavar="HOST:PORT", default=None,
                   help="with --backend sockets: listen here and "
                        "wait for external 'repro worker --connect' "
                        "ranks instead of forking local workers "
                        "(PORT 0 picks a free port)")
    p.add_argument("--ready-file", metavar="PATH", default=None,
                   help="with --listen: write 'host port' here once "
                        "the listener is up")
    _fault_tolerance_arguments(p)
    p.add_argument("--report", metavar="PATH", default=None,
                   help="enable run telemetry and write its JSON "
                        "report here")
    p.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                   help="run under the seeded chaos engine: inject "
                        "deterministic faults into the compiled-kernel "
                        "and integrator layers and report every "
                        "graceful-degradation event (off by default)")
    p.add_argument("--chaos-profile", choices=sorted(PROFILES),
                   default="all",
                   help="which fault surfaces --chaos-seed arms "
                        "(default: all)")
    p.add_argument("--output", required=True, help="archive (.npz)")


def _fault_tolerance_arguments(p) -> None:
    """The policy flags ``run`` and ``worker`` share, defaulting to the
    fields of :class:`~repro.resilience.FaultTolerance`."""
    from .resilience import FaultTolerance

    p.add_argument("--worker-timeout", type=float, metavar="SECONDS",
                   default=FaultTolerance.worker_timeout,
                   help="a worker's wait for the master's reply before "
                        "it asks again; a rank's time to first contact")
    p.add_argument("--max-retries", type=int, metavar="N",
                   default=FaultTolerance.max_retries,
                   help="bound on re-dispatches per wavenumber and on a "
                        "worker's consecutive unanswered asks")
    p.add_argument("--heartbeat-interval", type=float, metavar="SECONDS",
                   default=FaultTolerance.heartbeat_interval,
                   help="cadence of the heartbeats of a worker with "
                        "nothing else to say (a long mode, a long "
                        "wait); three silent intervals and the master "
                        "reassigns its wavenumbers (0 = off: "
                        "--worker-timeout then bounds a mode)")


def _fault_tolerance(args):
    from .resilience import FaultTolerance

    return FaultTolerance(worker_timeout=args.worker_timeout,
                          max_retries=args.max_retries,
                          heartbeat_interval=args.heartbeat_interval)


def _worker_arguments(p) -> None:
    p.description = (
        "Connect to a 'repro run --backend sockets --listen' "
        "master (possibly on another machine) and serve as a "
        "worker rank until dismissed.  The model/grid/"
        "integration options must mirror the master's run — "
        "the INIT broadcast carries only the grid size, so "
        "the physics configuration travels out of band and "
        "this rank builds its own background and thermal "
        "tables from it, bit-identical to the master's.  A "
        "worker that connects after the run has started is "
        "admitted as an elastic rank.")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the master's listener address")
    p.add_argument("--model", choices=sorted(MODELS), default="scdm")
    p.add_argument("--k-min", type=float, default=3e-5)
    p.add_argument("--k-max", type=float, default=3e-3)
    p.add_argument("--nk", type=int, default=24)
    p.add_argument("--lmax", type=int, default=24)
    p.add_argument("--rtol", type=float, default=1e-4)
    _fault_tolerance_arguments(p)
    p.add_argument("--connect-timeout", type=float, default=30.0)


def _spectrum_arguments(p) -> None:
    p.add_argument("archive")
    p.add_argument("--l-max", type=int, default=None)


def _verify_arguments(p) -> None:
    p.description = (
        "Integrate the golden k-grid with constraint "
        "monitors attached, evaluate the differential and "
        "analytic oracles, and compare every measured "
        "residual against the tolerance-budget registry "
        "(repro/verify/tolerances.py).  Exit 0 iff every "
        "check is within budget.")
    p.add_argument("--model", choices=sorted(MODELS), default="scdm")
    p.add_argument("--fast", action="store_true",
                   help="skip the expensive legs (PLINGER path "
                        "oracle, gauge cross-check, auxiliary "
                        "acoustic mode)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the JSON check report here")


def _scaling_arguments(p) -> None:
    from .cluster import MACHINES

    p.add_argument("--machine", choices=sorted(MACHINES),
                   default="IBM SP2")
    p.add_argument("--nk", type=int, default=500)
    p.add_argument("--nodes", type=int, nargs="+",
                   default=[1, 2, 4, 8, 16, 32, 64, 128, 256])


def _serve_arguments(p) -> None:
    p.description = (
        "Run the long-lived spectrum service: a newline-"
        "delimited-JSON TCP daemon answering cosmology-"
        "parameter requests from a content-addressed "
        "run-result store, in-flight request coalescing, "
        "and a resident warm PLINGER worker pool.")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed on start)")
    p.add_argument("--nproc", type=int, default=4,
                   help="warm-pool ranks (1 master + nproc-1 "
                        "resident workers)")
    p.add_argument("--store-dir", metavar="DIR", default=None,
                   help="persist served results here (content-"
                        "addressed npz; survives restarts)")
    p.add_argument("--store-cap-mb", type=int, default=256,
                   help="in-memory result-store LRU cap")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="append-only JSONL request journal "
                        "(drained on SIGTERM/exit)")
    p.add_argument("--ready-file", metavar="PATH", default=None,
                   help="write 'host port' here once listening")


def _request_arguments(p) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--op", choices=["spectrum", "ping", "stats",
                                    "shutdown"],
                   default="spectrum")
    p.add_argument("--model", choices=sorted(MODELS), default="scdm")
    p.add_argument("--k-min", type=float, default=3e-5)
    p.add_argument("--k-max", type=float, default=3e-3)
    p.add_argument("--nk", type=int, default=16)
    p.add_argument("--lmax", type=int, default=16)
    p.add_argument("--rtol", type=float, default=1e-4)
    p.add_argument("--json", action="store_true",
                   help="print the raw response document")


def cmd_info(args) -> int:
    from .background import Background
    from .thermo import ThermalHistory

    params = MODELS[args.model]()
    bg = Background(params)
    thermo = ThermalHistory(bg)
    rows = [
        ["h", params.h],
        ["Omega_b", params.omega_b],
        ["Omega_c", params.omega_c],
        ["Omega_lambda", params.omega_lambda],
        ["Omega_nu (massive)", params.omega_nu],
        ["n_s", params.n_s],
        ["Omega_gamma", params.omega_gamma],
        ["Omega_nu (massless)", params.omega_nu_massless],
        ["conformal age tau0 [Mpc]", bg.tau0],
        ["a at equality", bg.a_equality_exact()],
        ["z recombination", thermo.z_rec],
        ["tau recombination [Mpc]", thermo.tau_rec],
        ["x_e today", float(thermo.x_e(1.0))],
    ]
    if params.omega_nu > 0:
        rows.append(["m_nu [eV]", params.nu_mass_ev])
    print(format_table(["quantity", "value"], rows,
                       title=f"model '{args.model}'"))
    return 0


def cmd_run(args) -> int:
    if args.chaos_seed is not None:
        import tempfile

        from ._cext import private_cache
        from .chaos import ChaosPolicy, active

        policy = ChaosPolicy.from_profile(args.chaos_profile,
                                          seed=args.chaos_seed)
        # the kernel faults plant a torn .so at the content-addressed
        # path: in a cache of the run's own, never the user's
        with tempfile.TemporaryDirectory() as tmp, private_cache(tmp), \
                active(policy) as engine:
            rc = _cmd_run_inner(args)
        s = engine.summary()
        injected = ", ".join(f"{k}={v}" for k, v in
                             sorted(s["injected"].items())) or "none"
        # forked workers inherit the engine at fork and count their own
        # budgets; their injections surface as degradation events in
        # the report, not in this (master-process) tally
        print(f"chaos: profile={args.chaos_profile} "
              f"seed={args.chaos_seed}; "
              f"injected (master process): {injected}")
        return rc
    return _cmd_run_inner(args)


def _cmd_run_inner(args) -> int:
    from .linger import KGrid, LingerConfig, run_linger, save_run
    from .telemetry import NULL_TELEMETRY, Telemetry

    params = MODELS[args.model]()
    kgrid = KGrid.from_k(np.linspace(args.k_min, args.k_max, args.nk))
    config = LingerConfig(
        lmax_photon=args.lmax,
        rtol=args.rtol,
        nq=8 if params.omega_nu > 0 else 0,
        record_sources=False,
        keep_mode_results=False,
    )
    telemetry = Telemetry() if args.report else NULL_TELEMETRY
    if args.sparse_k_factor > 1:
        if args.parallel >= 2 and args.backend == "procs":
            print("error: --sparse-k-factor needs the coarse mode results "
                  "in master memory; forked workers (--backend procs) "
                  "cannot share them — use --backend inprocess or drop "
                  "--parallel", file=sys.stderr)
            return 2
        return _run_sparse(args, params, kgrid, telemetry)
    world = None
    if args.listen is not None:
        if args.backend != "sockets" or args.parallel < 2:
            print("error: --listen requires --backend sockets and "
                  "--parallel >= 2", file=sys.stderr)
            return 2
        from .mp.backends.sockets import SocketsWorld

        host, _, port = args.listen.rpartition(":")
        world = SocketsWorld(args.parallel, host=host or "127.0.0.1",
                             port=int(port), spawn_workers=False,
                             connect_timeout=max(args.worker_timeout,
                                                 120.0))
        print(f"sockets: listening on {world.host}:{world.port}; "
              f"waiting for {args.parallel - 1} worker(s) "
              "('repro worker --connect "
              f"{world.host}:{world.port}')")
        if args.ready_file:
            with open(args.ready_file, "w") as fh:
                fh.write(f"{world.host} {world.port}\n")
    if args.parallel >= 2:
        from .plinger import run_plinger

        result, stats = run_plinger(params, kgrid, config,
                                    nproc=args.parallel,
                                    backend=args.backend,
                                    telemetry=telemetry,
                                    fault_tolerance=_fault_tolerance(args),
                                    world=world)
        print(f"PLINGER: {kgrid.nk} modes on {args.parallel - 1} workers, "
              f"{stats.wall_seconds:.1f} s wallclock, "
              f"{stats.master_bytes_received} bytes gathered")
        fr = stats.fault_report
        if fr.any_faults:
            print(f"fault tolerance: {len(fr.dead_workers)} dead workers, "
                  f"{fr.reassigned_modes} modes reassigned, "
                  f"{fr.total_retries} retries, "
                  f"{len(fr.degraded_modes)} degraded modes")
    else:
        result = run_linger(params, kgrid, config, telemetry=telemetry)
        print(f"LINGER: {kgrid.nk} modes, {result.wall_seconds:.1f} s")
    path = save_run(result, args.output)
    print(f"archived to {path}")
    if args.report:
        _save_report(args, telemetry)
    return 0


def _run_sparse(args, params, kgrid, telemetry) -> int:
    """``repro run --sparse-k-factor F``: the sparse-k fast path."""
    from .linger import LingerConfig, save_run
    from .spectra import band_power_uk, cobe_normalization, run_sparse_cl

    config = LingerConfig(
        lmax_photon=args.lmax,
        rtol=args.rtol,
        nq=8 if params.omega_nu > 0 else 0,
        # the fast path projects recorded sources, so this run keeps them
        record_sources=True,
        keep_mode_results=True,
    )
    res = run_sparse_cl(
        params, kgrid, config,
        sparse_factor=args.sparse_k_factor,
        backend=args.backend if args.parallel >= 2 else None,
        nproc=args.parallel if args.parallel >= 2 else 4,
        telemetry=telemetry,
    )
    m = res.metrics
    print(f"sparse-k: integrated {m.n_coarse} of {m.n_dense} modes "
          f"(factor {m.sparse_factor}, {m.exact_hits} exact hits, "
          f"{m.interpolated} interpolated), "
          f"~{m.est_seconds_saved:.1f} s saved")
    cl = res.cl * cobe_normalization(res.l, res.cl, params.q_rms_ps_uk,
                                     params.t_cmb)
    bp = band_power_uk(res.l, cl, params.t_cmb)
    print(format_table(
        ["l", "C_l", "delta-T_l [uK]"],
        [[int(li), float(ci), float(bi)]
         for li, ci, bi in zip(res.l, cl, bp)],
        title=f"sparse-k line-of-sight spectrum (factor "
              f"{m.sparse_factor})",
    ))
    path = save_run(res.coarse_result, args.output)
    print(f"coarse run archived to {path}")
    if args.report:
        _save_report(args, telemetry, sparse_k_factor=args.sparse_k_factor)
    return 0


def _save_report(args, telemetry, **meta) -> None:
    """``run --report``: stamp the run's collector, save it, digest it."""
    telemetry.meta.update(model=args.model, command="run", rtol=args.rtol,
                          lmax=args.lmax, **meta)
    telemetry.save(args.report)
    print(f"telemetry report written to {args.report}")
    _print_report_summary(telemetry)


def _print_report_summary(report) -> None:
    """A terse, human-readable digest of a run's telemetry."""
    totals = report.totals
    rows = [
        ["modes", totals["n_modes"]],
        ["RHS evaluations", totals["n_rhs"]],
        ["steps accepted", totals["n_steps"]],
        ["steps rejected", totals["n_rejected"]],
        ["attempts at the stability bound", totals["n_stability_bound"]],
        ["wasted-step fraction", f"{totals['wasted_step_fraction']:.3f}"],
        ["flops (estimated)", f"{totals['flops_est']:.3e}"],
        ["mode wallclock [s]", f"{totals['mode_wall_seconds']:.3f}"],
    ]
    # the k-independent tables (all ranks that made any; see build_tables)
    for name in ("cext.resolve", "background.build", "thermo.build"):
        if name in report.timers:
            rows.append([f"{name} [s]",
                         f"{report.timers[name].total_seconds:.3f}"])
    for name in ("thermo.ode_rhs_evals", "thermo.ode_steps",
                 "thermo.ode_rejected", "thermo.saha_sweeps",
                 "thermo.saha_rows"):
        if name in report.counters:
            rows.append([name, report.counters[name]])
    if report.workers:
        rows.append(["worker busy [s]",
                     f"{totals['worker_busy_seconds']:.3f}"])
        rows.append(["worker idle [s]",
                     f"{totals['worker_idle_seconds']:.3f}"])
    if report.sparse is not None:
        sm = report.sparse
        rows.append(["sparse factor", sm.sparse_factor])
        rows.append(["modes integrated / dense",
                     f"{sm.n_coarse} / {sm.n_dense}"])
        rows.append(["exact hits / interpolated",
                     f"{sm.exact_hits} / {sm.interpolated}"])
        if sm.interp_residual_max is not None:
            rows.append(["k-spline residual (LOO max)",
                         f"{sm.interp_residual_max:.3e}"])
        rows.append(["est. seconds saved",
                     f"{sm.est_seconds_saved:.3f}"])
    if report.fault is not None:
        fr = report.fault
        rows.append(["dead workers", len(fr.dead_workers)])
        rows.append(["modes reassigned", fr.reassigned_modes])
        rows.append(["retries", fr.total_retries])
        rows.append(["degraded modes", len(fr.degraded_modes)])
        rows.append(["recovery wallclock [s]",
                     f"{fr.recovery_wall_seconds:.3f}"])
    if report.degradation is not None and report.degradation.total_events:
        dm = report.degradation
        by = ", ".join(f"{s}={n}"
                       for s, n in sorted(dm.events_by_surface.items()))
        rows.append(["degradation events", f"{dm.total_events} ({by})"])
        rows.append(["degradation recovery [s]",
                     f"{dm.recovery_seconds:.3f}"])
    for tag, v in sorted(totals["messages_sent_by_tag"].items()):
        rows.append([f"messages {tag}", f"{v['count']} ({v['bytes']} B)"])
    print(format_table(["telemetry", "value"], rows, title="run report"))


def cmd_worker(args) -> int:
    """Serve as one remote PLINGER rank over TCP."""
    from .errors import MessagePassingError
    from .linger import KGrid, LingerConfig
    from .mp.backends.sockets import connect_worker
    from .plinger.driver import _worker_entry

    host, _, port = args.connect.rpartition(":")
    params = MODELS[args.model]()
    kgrid = KGrid.from_k(np.linspace(args.k_min, args.k_max, args.nk))
    config = LingerConfig(
        lmax_photon=args.lmax,
        rtol=args.rtol,
        nq=8 if params.omega_nu > 0 else 0,
        record_sources=False,
        keep_mode_results=False,
    )
    try:
        handle = connect_worker(host or "127.0.0.1", int(port),
                                timeout=args.connect_timeout)
    except (OSError, MessagePassingError) as exc:
        print(f"error: could not join {args.connect}: {exc}",
              file=sys.stderr)
        return 1
    print(f"worker: joined {args.connect} as rank {handle.mytid} "
          f"of {handle.nproc}")
    # no tables handed over: the rank builds its own from ``params``
    error = _worker_entry(handle, None, None, kgrid, config,
                          with_telemetry=True,
                          fault_tolerance=_fault_tolerance(args),
                          params=params)
    if error is not None:
        print(f"error: rank {handle.mytid} ended without a STOP from the "
              f"master: {error}", file=sys.stderr)
        return 1
    print(f"worker: rank {handle.mytid} done "
          f"({handle.stats.messages_sent} messages sent, "
          f"{handle.stats.bytes_sent} payload bytes)")
    return 0


def cmd_spectrum(args) -> int:
    from .linger import load_run
    from .spectra import band_power_uk, cobe_normalization
    from .spectra.cl import cl_integrate_over_k

    saved = load_run(args.archive)
    theta = saved.theta_l_matrix()
    lmax = theta.shape[1] - 1
    l_top = (lmax - 3) if args.l_max is None else min(args.l_max, lmax - 3)
    l = np.arange(2, l_top + 1)
    cl = cl_integrate_over_k(saved.k, theta[:, l], n_s=saved.params.n_s)
    cl = cl * cobe_normalization(l, cl, saved.params.q_rms_ps_uk,
                                 saved.params.t_cmb)
    bp = band_power_uk(l, cl, saved.params.t_cmb)
    print(format_table(
        ["l", "C_l", "delta-T_l [uK]"],
        [[int(li), float(ci), float(bi)] for li, ci, bi in zip(l, cl, bp)],
        title=f"spectrum from {args.archive}",
    ))
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_run

    report = verify_run(model=args.model, fast=args.fast, progress=True)
    print(report.format_table())
    if args.report:
        report.save(args.report)
        print(f"verification report written to {args.report}")
    return 0 if report.passed else 1


def cmd_serve(args) -> int:
    from .serve import run_server

    return run_server(
        host=args.host, port=args.port, nproc=args.nproc,
        store_dir=args.store_dir,
        store_cap_bytes=args.store_cap_mb << 20,
        journal_path=args.journal,
        ready_file=args.ready_file,
    )


def cmd_request(args) -> int:
    import json as _json

    from .serve import ServeClient, ServeRequest

    with ServeClient(args.host, args.port) as client:
        if args.op == "ping":
            print(_json.dumps(client.ping()))
            return 0
        if args.op == "stats":
            print(_json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.op == "shutdown":
            print(_json.dumps(client.shutdown()))
            return 0
        request = ServeRequest(
            params=MODELS[args.model](),
            k_min=args.k_min, k_max=args.k_max, nk=args.nk,
            lmax=args.lmax, rtol=args.rtol,
        )
        response = client.spectrum(request)
    if args.json:
        print(_json.dumps(response))
        return 0
    t = response["timing"]
    print(f"tier={response['tier']} digest={response['digest'][:12]} "
          f"wall={t['wall_s']:.3f}s queue={t['queue_wait_s']:.3f}s")
    print(format_table(
        ["l", "C_l", "delta-T_l [uK]"],
        [[int(li), float(ci), float(bi)]
         for li, ci, bi in zip(response["l"], response["cl"],
                               response["band_power_uk"])],
        title=f"served spectrum ({args.model})",
    ))
    return 0


def cmd_scaling(args) -> int:
    from .cluster import MACHINES, paper_cost_model, scaling_study

    machine = MACHINES[args.machine]
    cm = paper_cost_model()
    k_big = (cm.lmax_cap - cm.lmax_floor) / cm.lmax_per_ktau / cm.tau0
    ks = np.sort(np.linspace(1e-4, k_big, args.nk))[::-1]
    results = scaling_study(ks, machine, cm, node_counts=args.nodes)
    print(format_table(
        ["nodes", "wallclock [s]", "CPU total [s]", "efficiency", "Gflop/s"],
        [[r.n_workers, r.wallclock_s, r.cpu_total_s, r.efficiency,
          r.gflops_sustained] for r in results],
        title=f"{machine.name}: {args.nk}-mode run",
    ))
    return 0


#: verb -> (one-line help, what populates its sub-parser, its handler)
_VERBS = {
    "info": ("model background summary", _info_arguments, cmd_info),
    "run": ("integrate a k-grid and archive it", _run_arguments, cmd_run),
    "worker": ("join a sockets-backend PLINGER run as a worker rank",
               _worker_arguments, cmd_worker),
    "spectrum": ("C_l from an archive", _spectrum_arguments, cmd_spectrum),
    "verify": ("run the Einstein-constraint verification suite",
               _verify_arguments, cmd_verify),
    "scaling": ("Fig. 1 schedule simulation", _scaling_arguments,
                cmd_scaling),
    "serve": ("serve C_l spectra from a warm daemon", _serve_arguments,
              cmd_serve),
    "request": ("query a running spectrum service", _request_arguments,
                cmd_request),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The whole command line — or, when ``verb`` names the one about to
    run, a parser that lists the others without populating them:
    populating a verb imports what its choices come from (``run`` the
    chaos profiles, ``scaling`` the machine models), and a process
    should import what its verb uses."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LINGER/PLINGER reproduction (Bode & Bertschinger, SC'95)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, populate, _) in _VERBS.items():
        p = sub.add_parser(name, help=summary)
        if verb in (None, name):
            populate(p)
    return parser


def main(argv=None) -> int:
    """Run one verb; a process that cannot build the compiled solver
    says so in one line on stderr and exits 1."""
    from .errors import CompilerError

    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        return _VERBS[args.command][2](args)
    except CompilerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
