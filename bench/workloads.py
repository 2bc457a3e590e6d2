"""The timed path: inputs from a seed, and one op per workload.

Two rules make later claims against this benchmark meaningful.

* Only *problem-defining* inputs are passed (model, k-grid, ``lmax``,
  ``rtol``, l-grid, sparse factor, route).  No ``batch_size``, no
  ``rhs_kernel``, no ``cache``: the library defaults are what users
  get, so a change of default moves these numbers.
* Everything imported from ``repro`` here is in ``repro.__all__`` or
  ``repro.spectra.__all__``, so a PR that deletes a parallel
  implementation cannot break a benchmark it is forbidden to edit.
  (``bench/tests/test_bench_smoke.py`` enforces this.)

The sizes are what fits the driver's cap (about 25 s per run, set-up
included, on a 2-core box at ~0.45 s per mode): each op is 3-5 modes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    Background,
    KGrid,
    LingerConfig,
    ServeClient,
    ServeRequest,
    Telemetry,
    ThermalHistory,
    cl_kgrid,
    mixed_dark_matter,
    run_linger,
    run_plinger,
    standard_cdm,
)
from repro.spectra import (
    cl_from_hierarchy,
    cobe_normalization,
    los_l_grid,
    matter_power,
    run_sparse_cl,
    sparse_cl,
)

from .spec import NPROC

SRC = Path(__file__).resolve().parents[1] / "src"

#: a seed selects one of this many committed input variants (variant 0
#: is the canonical model; v > 0 jitters h and Omega_b by <= 1 %), so
#: that every seed the driver picks has a committed reference
N_VARIANTS = 8

SPARSE_FACTOR = 4

#: the warm request of a serve pair: same cosmology, another k-range
WARM_K_MAX = 2.5e-3

#: digests the store-hit workload fills: this many cosmologies x 2 k-ranges
HIT_COSMOLOGIES = 2


@dataclass(frozen=True)
class Problem:
    """The generated inputs of one workload run."""

    workload: str
    family: str  #: which committed reference applies
    seed: int
    variant: int
    smoke: bool
    params: object
    kgrid: KGrid
    config: LingerConfig
    l_values: np.ndarray | None
    #: every problem-defining number, as stamped into the reference
    shape: dict = field(compare=False)

    def digest(self) -> str:
        return self.params.digest("bench." + self.family, self.shape)

    @property
    def serves(self) -> bool:
        return self.family == "serve"

    # -- serve requests ------------------------------------------------------

    def cosmology(self, i: int):
        """The i-th cosmology a serve workload asks about; number 0 is
        the variant's own model (the one with a committed reference)."""
        if i == 0:
            return self.params
        return _jitter(standard_cdm(),
                       np.random.default_rng([self.seed, i]))

    def request(self, i: int, warm: bool = False) -> ServeRequest:
        extra = {"k_max": WARM_K_MAX} if warm else {}
        return ServeRequest(
            self.cosmology(i), nk=self.shape["nk"], lmax=self.shape["lmax"],
            rtol=self.shape["rtol"], **extra,
        )


def _jitter(base, rng):
    dh, db = rng.uniform(-0.01, 0.01, 2)
    omega_b = base.omega_b * (1.0 + db)
    return base.with_(h=base.h * (1.0 + dh), omega_b=omega_b,
                      omega_c=base.omega_c + base.omega_b - omega_b)


def build_problem(workload: str, seed: int, smoke: bool = False) -> Problem:
    """Inputs are a function of (workload, seed, smoke) and nothing else."""
    variant = seed % N_VARIANTS
    model = mixed_dark_matter if workload == "matter_mdm" else standard_cdm
    params = model()
    if variant:
        params = _jitter(params, np.random.default_rng(variant))
    l_values = None
    if workload == "fig2_sparse":
        family = "fig2"
        l_max = 20 if smoke else 48
        # (k_max - k_min) / dk does not depend on tau0, so every variant
        # gets the same number of modes: 17 dense, 5 coarse (smoke 8, 3)
        kgrid = cl_kgrid(Background(params), l_max=l_max,
                         points_per_period=1.5)
        config = LingerConfig(lmax_photon=10, lmax_nu=10,
                              rtol=1e-3 if smoke else 2e-4)
        l_values = los_l_grid(l_max)
        shape = {"l_max": l_max, "sparse_factor": SPARSE_FACTOR,
                 "l": l_values}
    elif workload in ("hier_serial", "hier_plinger"):
        family = "hier"
        kgrid = KGrid.from_k(np.linspace(3e-5, 3e-3, 2 if smoke else 4))
        config = LingerConfig(
            lmax_photon=12 if smoke else 24, rtol=1e-3 if smoke else 1e-4,
            record_sources=False, keep_mode_results=False)
        shape = {}
    elif workload == "matter_mdm":
        family = "mdm"
        k = (np.geomspace(1e-3, 4e-3, 2) if smoke
             else np.geomspace(1e-3, 0.06, 3))
        kgrid = KGrid.from_k(k)
        config = LingerConfig(
            lmax_photon=12, lmax_nu=12, nq=4 if smoke else 8,
            rtol=1e-3 if smoke else 1e-4,
            record_sources=False, keep_mode_results=False)
        shape = {}
    elif workload in ("serve_miss", "serve_hit"):
        family = "serve"
        request = ServeRequest(params, nk=2, lmax=8 if smoke else 16,
                               rtol=1e-3 if smoke else 1e-4)
        # the in-process twin of the request, for the serial reference leg
        kgrid, config = request.kgrid(), request.config()
        shape = {"nk": request.nk, "lmax": request.lmax,
                 "rtol": request.rtol}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    shape.update(
        k=kgrid.k, lmax_photon=config.lmax_photon, lmax_nu=config.lmax_nu,
        nq=config.nq, rtol=config.rtol, sources=config.record_sources)
    return Problem(workload, family, seed, variant, smoke, params, kgrid,
                   config, l_values, shape)


# -- the solver ops ----------------------------------------------------------


@dataclass
class Output:
    """What one op returned: the arrays a user asked for, plus the
    run records the counts are read from."""

    x: np.ndarray
    y: np.ndarray
    result: object  #: the (coarse) LingerResult
    extra: dict

    def counts(self) -> dict:
        """Work counts the product already returns on its records."""
        return {
            "n_modes": len(self.result.headers),
            "n_rhs": int(sum(h.n_rhs for h in self.result.headers)),
            "n_steps": int(sum(p.n_steps for p in self.result.payloads)),
        }


def _cobe(p: Problem, l, cl):
    return cl * cobe_normalization(l, cl, p.params.q_rms_ps_uk,
                                   p.params.t_cmb)


def _spectrum(p: Problem, result):
    if p.family == "mdm":
        return result.k, matter_power(result.k, result.delta_m,
                                      n_s=p.params.n_s)
    l, cl = cl_from_hierarchy(result)
    # the served product is COBE-normalized; its in-process twin too
    return l, (_cobe(p, l, cl) if p.serves else cl)


def solve(p: Problem, serial: bool = False) -> Output:
    """One untraced ``Params`` -> arrays op through the workload's route,
    tables built inside.  ``serial`` forces the plain single-thread
    route (the reference leg of hier_plinger and of the serve
    workloads, whose in-process twin this is)."""
    if p.workload == "fig2_sparse":
        r = run_sparse_cl(p.params, p.kgrid, p.config,
                          sparse_factor=SPARSE_FACTOR, l_values=p.l_values)
        return Output(r.l, _cobe(p, r.l, r.cl), r.coarse_result,
                      {"sparse": r.metrics})
    if p.workload == "hier_plinger" and not serial:
        result, stats = run_plinger(p.params, p.kgrid, p.config,
                                    nproc=NPROC, backend="procs")
        return Output(*_spectrum(p, result), result, {"plinger": stats})
    result = run_linger(p.params, p.kgrid, p.config)
    return Output(*_spectrum(p, result), result, {})


def solve_staged(p: Problem, tracer, op_id: str, serial: bool = False,
                 root: str = "op") -> Output:
    """The same op, staged: each layer called by its public function
    with a span around it, all under one ``root`` span."""
    extra: dict = {}
    with tracer.span(root, op_id):
        with tracer.span("background.build", op_id):
            background = Background(p.params)
        with tracer.span("thermo.build", op_id):
            thermo = ThermalHistory(background)
        if p.workload == "hier_plinger" and not serial:
            telemetry = Telemetry()
            with tracer.span("plinger.run", op_id) as run:
                t0 = time.perf_counter()
                result, stats = run_plinger(
                    p.params, p.kgrid, p.config, nproc=NPROC,
                    backend="procs", background=background, thermo=thermo,
                    telemetry=telemetry)
            workers = list(getattr(telemetry, "workers", []))
            if workers:
                # the busiest worker is the blocking path; what is left
                # of the run is plinger + mp overhead
                busiest = max(w.busy_seconds for w in workers)
                tracer.add("linger.compute", t0, busiest, run, op_id)
            extra = {"plinger": stats, "workers": workers}
        else:
            sparse = ({"sparse_k": SPARSE_FACTOR}
                      if p.workload == "fig2_sparse" else {})
            with tracer.span("linger.run", op_id):
                result = run_linger(p.params, p.kgrid, p.config,
                                    background=background, thermo=thermo,
                                    **sparse)
        with tracer.span("spectra.run", op_id) as stage:
            if p.workload == "fig2_sparse":
                t0 = time.perf_counter()
                r = sparse_cl(result, p.kgrid, p.l_values,
                              sparse_factor=SPARSE_FACTOR)
                x, y = r.l, _cobe(p, r.l, r.cl)
                m = r.metrics
                tracer.add("spectra.interp", t0, m.interp_seconds, stage,
                           op_id)
                tracer.add("spectra.project", t0 + m.interp_seconds,
                           m.project_seconds, stage, op_id)
                extra = {"sparse": m}
            else:
                x, y = _spectrum(p, result)
    return Output(x, y, result, extra)


# -- the serve route ---------------------------------------------------------


def child_env(tmpdir) -> dict:
    """Environment of every child process: the library on the path and
    temporary files inside the run's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(tmpdir)
    return env


class Daemon:
    """``python -m repro serve --nproc 3`` as a child process."""

    def __init__(self, workdir: Path, store_dir: Path, tag: str) -> None:
        self.ready_file = workdir / f"ready-{tag}"
        self._log = open(workdir / f"daemon-{tag}.log", "wb")
        self.client: ServeClient | None = None
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--nproc", str(NPROC),
             "--port", "0", "--ready-file", str(self.ready_file),
             "--store-dir", str(store_dir)],
            stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(workdir))

    def connect(self, timeout: float = 60.0) -> ServeClient:
        """Wait for the ready file, connect, ping."""
        deadline = time.monotonic() + timeout
        while not self.ready_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited before it was ready")
            if time.monotonic() > deadline:
                raise RuntimeError("serve daemon not ready in time")
            time.sleep(0.005)
        self.host, port = self.ready_file.read_text().split()
        self.port = int(port)
        self.client = ServeClient(self.host, self.port)
        self.client.ping()
        self.start_seconds = time.perf_counter() - self.t_spawn
        return self.client

    def another_client(self) -> ServeClient:
        return ServeClient(self.host, self.port)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's /proc status")

    def computed_runs(self) -> int:
        return int(self.client.stats()["metrics"]["computed_runs"])

    def stop(self) -> None:
        """Shut the daemon down and reap it, on every exit path."""
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=15.0)
        except Exception:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            if self.client is not None:
                self.client.close()
            self._log.close()


def ask(client: ServeClient, request: ServeRequest, tiers, tracer=None,
        op_id: str = "", digest: str | None = None):
    """One closed-loop request; returns (response, client latency, ok).
    ``digest`` spares a repeated request the rehash of its address."""
    t0 = time.perf_counter()
    if tracer is None:
        response = client.spectrum(request)
        latency = time.perf_counter() - t0
    else:
        with tracer.span("client.request", op_id) as span:
            response = client.spectrum(request)
        latency = time.perf_counter() - t0
        timing = response["timing"]
        queue = timing["queue_wait_s"]
        tracer.add("serve.queue", t0, queue, span, op_id)
        tracer.add("serve.compute", t0 + queue, timing["wall_s"] - queue,
                   span, op_id)
    ok = (response["tier"] in tiers
          and response["digest"] == (digest or request.digest())
          and bool(np.all(np.isfinite(response["cl"]))))
    return response, latency, ok


def burst_of_two(daemon: Daemon, request: ServeRequest):
    """Two identical new requests at once on two connections; returns
    (computations performed, tiers seen, a response)."""
    before = daemon.computed_runs()
    responses: list = [None, None]

    def one(i: int) -> None:
        with daemon.another_client() as client:
            responses[i] = client.spectrum(request)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if any(r is None for r in responses):
        raise RuntimeError("burst request did not complete")
    return (daemon.computed_runs() - before,
            sorted(r["tier"] for r in responses), responses[0])
