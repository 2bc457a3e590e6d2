"""The command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import MODELS, build_parser, main
from repro.telemetry import Telemetry


#: which packages of a space-separated list ``sys.modules`` holds any of
_LOADED = ("sorted({{r for r in '{}'.split() for m in sys.modules "
           "if m == r or m.startswith(r + '.')}})")


def _fresh_interpreter(statements: str, expression: str) -> str:
    """Run ``statements`` in a new interpreter (this one's ``sys.path``
    and environment) and return ``repr`` of ``expression`` there."""
    import subprocess
    import sys

    code = (f"import sys; sys.path[:0] = {sys.path!r}\n{statements}\n"
            f"print(repr({expression}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_models_registered(self):
        assert set(MODELS) == {"scdm", "tilted", "lcdm", "mdm"}

    def test_run_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_rhs_kernel_is_not_an_option(self, capsys):
        """One engine: neither verb that integrates takes a kernel."""
        for command in (["run", "--output", "x.npz"],
                        ["worker", "--connect", "h:1"]):
            assert not hasattr(build_parser().parse_args(command),
                               "rhs_kernel")
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args(command + ["--rhs-kernel", "cext"])
            assert exit_.value.code == 2
            assert "unrecognized arguments: --rhs-kernel" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--output", "x.npz", "--cache-dir", "d"],
        ["run", "--output", "x.npz", "--no-cache"],
        ["serve", "--cache-dir", "d"],
        ["run", "--output", "x.npz", "--chaos-profile", "cache"],
    ], ids=["run-cache-dir", "run-no-cache", "serve-cache-dir",
            "chaos-profile-cache"])
    def test_the_table_cache_is_not_an_option(self, command):
        """Tables are built or handed over, never loaded from disk: no
        verb names a table cache, and no chaos profile targets one."""
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(command)
        assert exit_.value.code == 2

    def test_batch_size_is_not_an_option(self, capsys):
        """One wavenumber per unit of work: ``run`` takes no chunk
        length."""
        command = ["run", "--output", "x.npz"]
        assert not hasattr(build_parser().parse_args(command), "batch_size")
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(command + ["--batch-size", "4"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --batch-size" in \
            capsys.readouterr().err

    def test_scaling_defaults(self):
        args = build_parser().parse_args(["scaling"])
        assert args.machine == "IBM SP2"
        assert 64 in args.nodes


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--model", "scdm"]) == 0
        out = capsys.readouterr().out
        assert "z recombination" in out
        assert "conformal age" in out

    def test_scaling(self, capsys):
        assert main(["scaling", "--nk", "100", "--nodes", "4", "16"]) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out
        assert "Gflop/s" in out

    def test_run_and_spectrum_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "run.npz"
        assert main([
            "run", "--nk", "6", "--k-min", "3e-5", "--k-max", "1e-3",
            "--lmax", "12", "--rtol", "3e-4", "--output", str(out_file),
        ]) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["spectrum", str(out_file), "--l-max", "6"]) == 0
        out = capsys.readouterr().out
        assert "delta-T_l" in out
        # the quadrupole line carries the COBE normalization
        assert "27.89" in out

    def test_sparse_run_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "coarse.npz"
        report_file = tmp_path / "rep.json"
        assert main([
            "run", "--nk", "9", "--k-min", "1e-3", "--k-max", "1e-2",
            "--lmax", "8", "--rtol", "3e-4", "--sparse-k-factor", "4",
            "--report", str(report_file), "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "sparse-k: integrated 3 of 9 modes" in out
        assert out_file.exists()
        report = Telemetry.from_dict(json.loads(report_file.read_text()))
        assert report.sparse is not None
        assert report.sparse.sparse_factor == 4
        assert report.totals["sparse_mode_reduction"] == 3.0
        assert report.meta["sparse_k_factor"] == 4

    def test_sparse_rejects_forked_backend(self, tmp_path, capsys):
        """The fast path needs the coarse mode results in master
        memory: forked workers must be refused cleanly, not crash."""
        rc = main([
            "run", "--nk", "9", "--k-min", "1e-3", "--k-max", "1e-2",
            "--lmax", "8", "--rtol", "3e-4", "--sparse-k-factor", "3",
            "--parallel", "3", "--backend", "procs",
            "--output", str(tmp_path / "x.npz"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--backend inprocess" in err

    def test_run_with_telemetry_report(self, tmp_path, capsys):
        """`run --report` on a 4-mode parallel run emits a report
        with per-mode integrator metrics, per-tag message counts and
        worker idle time (the acceptance-criteria invocation)."""
        out_file = tmp_path / "run.npz"
        report_file = tmp_path / "report.json"
        assert main([
            "run", "--nk", "4", "--k-min", "1e-3", "--k-max", "1e-2",
            "--lmax", "8", "--rtol", "3e-4", "--parallel", "3",
            "--backend", "inprocess", "--report", str(report_file),
            "--output", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry report written" in out
        assert "RHS evaluations" in out
        assert "messages WORK" in out

        report = Telemetry.load(report_file)
        d = json.loads(report_file.read_text())
        assert d["schema"] == "repro.telemetry.RunReport/v1"
        # per-mode integrator metrics, one per wavenumber
        assert len(report.modes) == 4
        assert sorted(m.ik for m in report.modes) == [1, 2, 3, 4]
        assert all(m.n_rhs > 0 and m.n_steps > 0 for m in report.modes)
        assert all(m.flops_est > 0 for m in report.modes)
        # per-tag message counts for master + both workers
        totals = report.totals
        tags = totals["messages_sent_by_tag"]
        assert tags["WORK"]["count"] == 4
        assert tags["HEADER"]["count"] == 4
        assert {t.role for t in report.traffic} == {"master", "worker"}
        # worker utilization / idle accounting
        assert len(report.workers) == 2
        assert totals["worker_busy_seconds"] > 0
        assert all(w.idle_seconds >= 0 for w in report.workers)

    def test_parallel_run_uses_no_shared_segment(
            self, tmp_path, capsys, no_new_shm):
        """`run --parallel 3`: forked workers inherit the tables the
        master built; nothing is published, and a second run gives the
        same bits."""
        args = ["run", "--nk", "4", "--k-min", "1e-3", "--k-max", "1e-2",
                "--lmax", "8", "--rtol", "3e-4", "--parallel", "3"]
        assert main(args + ["--output", str(tmp_path / "one.npz")]) == 0
        assert main(args + ["--output", str(tmp_path / "two.npz")]) == 0
        out = capsys.readouterr().out
        assert "shared" not in out and "cache" not in out
        one = np.load(tmp_path / "one.npz")
        two = np.load(tmp_path / "two.npz")
        np.testing.assert_array_equal(one["payload_flat"],
                                      two["payload_flat"])

    def test_worker_has_no_use_cache_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "--connect", "127.0.0.1:1", "--use-cache"])
        assert "--use-cache" in capsys.readouterr().err

    def test_import_loads_no_shared_memory_module(self):
        assert _fresh_interpreter(
            "import repro",
            "'multiprocessing.shared_memory' in sys.modules") == "False"

    # -- what a process imports is what its route uses (each check in a
    # fresh interpreter; scipy is installed here, as the tests' oracle) ---

    def test_import_repro_loads_numpy_and_the_parameter_layer_only(self):
        loaded = _fresh_interpreter("import repro", _LOADED.format(
            "scipy asyncio multiprocessing repro.serve repro.verify "
            "repro.plinger repro.perturbations"))
        assert loaded == "[]"

    def test_star_import_still_binds_every_public_name(self):
        names = _fresh_interpreter(
            "import repro; listed = dir(repro); from repro import *",
            "sorted(n for n in repro.__all__ "
            "if n not in globals() or n not in listed)")
        assert names == "[]"
        import repro

        assert len(repro.__all__) == 37

    def test_a_serial_run_loads_no_scipy_asyncio_daemon_or_verify(
            self, tmp_path):
        loaded = _fresh_interpreter(
            "from repro.cli import main; "
            "rc = main(['run', '--nk', '2', '--lmax', '8', '--rtol', '1e-3',"
            f" '--output', {str(tmp_path / 'run.npz')!r}])",
            "(rc, " + _LOADED.format(
                "scipy asyncio repro.serve repro.verify") + ")")
        assert loaded.splitlines()[-1] == "(0, [])"

    def test_a_procs_run_loads_no_multiprocessing(self, tmp_path):
        """Forked ranks are ``os.fork`` children talking over pipes."""
        loaded = _fresh_interpreter(
            "from repro.cli import main; "
            "rc = main(['run', '--nk', '2', '--lmax', '8', '--rtol', '1e-3',"
            " '--parallel', '3', '--backend', 'procs',"
            f" '--output', {str(tmp_path / 'run.npz')!r}])",
            "(rc, " + _LOADED.format("multiprocessing") + ")")
        assert loaded.splitlines()[-1] == "(0, [])"

    def test_a_request_client_loads_neither_engine_nor_scipy(self):
        """``repro request`` against a closed port: the request is built
        and addressed, the connection refused, and no layer under the
        daemon was imported to get there."""
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        loaded = _fresh_interpreter(
            "from repro.cli import main, MODELS\n"
            "try:\n"
            f"    main(['request', '--port', '{port}'])\n"
            "except Exception as exc:\n"
            "    refused = type(exc).__name__, 'refused' in str(exc)\n"
            "from repro.serve import ServeRequest\n"
            "digest = ServeRequest(MODELS['scdm']()).digest()",
            "(refused, len(digest), " + _LOADED.format(
                "scipy repro.perturbations repro.thermo") + ")")
        assert loaded == "(('ServeError', True), 64, [])"

    def test_run_serial_report(self, tmp_path, capsys):
        """`run --report` without --parallel: serial LINGER telemetry."""
        out_file = tmp_path / "run.npz"
        report_file = tmp_path / "report.json"
        assert main([
            "run", "--nk", "3", "--k-min", "1e-3", "--k-max", "5e-3",
            "--lmax", "8", "--rtol", "3e-4",
            "--report", str(report_file), "--output", str(out_file),
        ]) == 0
        report = Telemetry.load(report_file)
        assert report.meta["driver"] == "linger-serial"
        assert len(report.modes) == 3
        assert not report.traffic and not report.workers
        assert report.timers["linger.wall"].total_seconds > 0
        # the table build's work counts, next to its timers
        out = capsys.readouterr().out
        for name in ("cext.resolve [s]", "thermo.build [s]",
                     "thermo.ode_rhs_evals",
                     "thermo.ode_steps", "thermo.ode_rejected",
                     "thermo.saha_sweeps", "thermo.saha_rows"):
            assert name in out
        assert "ode_rhs_compiled" not in out
        assert 4000 < report.counters["thermo.ode_rhs_evals"] < 7000
        assert 400 < report.counters["thermo.ode_steps"] < 800
        assert report.counters["thermo.ode_rejected"] < 40
        assert 2 <= report.counters["thermo.saha_sweeps"] <= 8
        # the Saha pre-pass stops a few rows past the switch (row 3611
        # of 6000 on this model), not at the end of the grid
        assert 3500 < report.counters["thermo.saha_rows"] < 3800
        # rejected / attempted steps: one row on every run, from the
        # per-mode rows (the chunk rows it used to need are gone)
        totals = report.totals
        waste = totals["n_rejected"] / (totals["n_steps"]
                                        + totals["n_rejected"])
        assert 0.0 < waste < 1.0
        assert totals["wasted_step_fraction"] == waste
        row = next(line for line in out.splitlines()
                   if "wasted-step fraction" in line)
        assert f"{waste:.3f}" in row
        # ... and how much of the run stepped at the Thomson stability
        # bound: most of three low-k modes, from the same rows
        bound = sum(m.n_stability_bound for m in report.modes)
        assert totals["n_stability_bound"] == bound > 0.5 * totals["n_steps"]
        row = next(line for line in out.splitlines()
                   if "attempts at the stability bound" in line)
        assert str(bound) in row
        for gone in ("batched chunks", "lane occupancy"):
            assert gone not in out


class TestTwoProcessSockets:
    """``repro run --listen`` and ``repro worker --connect`` as two OS
    processes over localhost TCP, on the flags a user gets by default."""

    GRID = ["--nk", "4", "--lmax", "8", "--rtol", "1e-3",
            "--k-min", "1e-3", "--k-max", "2e-2"]

    @staticmethod
    def _repro(*args, **popen):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.Popen([sys.executable, "-m", "repro", *args],
                                env=env, text=True, **popen)

    def _listen(self, tmp_path, *grid):
        """A master waiting for one worker; ``(process, address)``."""
        import time

        ready = tmp_path / "ready.txt"
        master = self._repro(
            "run", "--backend", "sockets", "--parallel", "2",
            "--listen", "127.0.0.1:0", "--ready-file", str(ready),
            *grid, "--output", str(tmp_path / "shard.npz"))
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and not (
                ready.exists() and ready.read_text().endswith("\n")):
            assert master.poll() is None
            time.sleep(0.05)
        return master, ":".join(ready.read_text().split())

    def test_round_trip_on_default_flags(self, tmp_path):
        master, address = self._listen(tmp_path, *self.GRID)
        worker = self._repro("worker", "--connect", address, *self.GRID)
        assert worker.wait(120.0) == 0
        assert master.wait(120.0) == 0
        assert main(["run", *self.GRID,
                     "--output", str(tmp_path / "serial.npz")]) == 0
        np.testing.assert_array_equal(
            np.load(tmp_path / "shard.npz")["payload_flat"],
            np.load(tmp_path / "serial.npz")["payload_flat"])

    def test_a_worker_whose_master_vanished_says_so(self, tmp_path):
        import subprocess

        # 2000 multipoles and a tight rtol: the run must still be in
        # flight when the master is killed, and the compiled loop
        # finishes a small hierarchy in milliseconds a mode
        grid = ["--nk", "40", "--rtol", "1e-5", "--lmax", "2000"]
        master, address = self._listen(tmp_path, *grid)
        worker = self._repro("worker", "--connect", address, *grid,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert "joined" in worker.stdout.readline()
        master.kill()
        master.wait(30.0)
        out, err = worker.communicate(timeout=120.0)
        assert worker.returncode == 1
        assert "ended without a STOP" in err and "done" not in out


class TestWithoutACompiler:
    """A C compiler is what builds the solver, and only the solver needs
    one: on a host without it the package imports, the CLI explains
    itself and a client can query a server, while a solve stops at once
    with one line naming ``CC``."""

    def test_only_a_solve_needs_a_compiler(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   CC="/nonexistent/cc",
                   REPRO_KERNEL_CACHE=str(tmp_path / "kernels"))

        def repro(*args):
            return subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)

        for args in (["-c", "import repro"], ["-m", "repro", "--help"],
                     ["-m", "repro", "request", "--help"]):
            done = repro(*args)
            assert done.returncode == 0, (args, done.stderr)
        archive = tmp_path / "run.npz"
        done = repro("-m", "repro", "run", "--nk", "2", "--lmax", "8",
                     "--rtol", "1e-3", "--output", str(archive))
        assert done.returncode != 0
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and "Traceback" not in done.stderr, lines
        assert lines[0].startswith("error: ") and "CC" in lines[0]
        assert not archive.exists()
