"""PLINGER checkpoint/restart."""

import numpy as np
import pytest

from repro import KGrid, LingerConfig
from repro.errors import ParameterError
from repro.linger import run_linger
from repro.plinger.checkpoint import ModeJournal, run_plinger_checkpointed
from tests.test_plinger import fake_compute


@pytest.fixture
def small_grid():
    return KGrid.from_k(np.geomspace(1e-3, 0.01, 5))


@pytest.fixture
def config():
    return LingerConfig(record_sources=False, keep_mode_results=False,
                        rtol=3e-4)


class TestJournal:
    def test_round_trip(self, tmp_path):
        j = ModeJournal(tmp_path / "run.journal")
        h1, p1 = fake_compute(3)
        h2, p2 = fake_compute(7, lmax=20)
        j.append(h1, p1)
        j.append(h2, p2)
        done = j.replay()
        assert set(done) == {3, 7}
        assert np.allclose(done[7][1].f_gamma, p2.f_gamma)
        assert done[3][0].lmax == p1.lmax

    def test_empty_journal(self, tmp_path):
        assert ModeJournal(tmp_path / "nope.journal").replay() == {}

    def test_torn_write_ignored(self, tmp_path):
        path = tmp_path / "run.journal"
        j = ModeJournal(path)
        h, p = fake_compute(1)
        j.append(h, p)
        with open(path, "a") as fh:
            fh.write("1.0 2.0 | 3.0 4.0")  # truncated tail
        done = j.replay()
        assert set(done) == {1}

    def test_mismatched_pair_rejected(self, tmp_path):
        h, _ = fake_compute(1)
        _, p = fake_compute(2)
        with pytest.raises(Exception):
            ModeJournal(tmp_path / "x.journal").append(h, p)


class TestCheckpointedRuns:
    def test_fresh_run_matches_serial(self, tmp_path, scdm, bg_scdm,
                                      thermo_scdm, small_grid, config):
        result, resumed = run_plinger_checkpointed(
            scdm, small_grid, tmp_path / "run.journal", config,
            nproc=3, background=bg_scdm, thermo=thermo_scdm,
        )
        assert resumed == 0
        serial = run_linger(scdm, small_grid, config, background=bg_scdm,
                            thermo=thermo_scdm)
        assert np.allclose(result.delta_m, serial.delta_m, rtol=1e-12)

    def test_restart_skips_completed(self, tmp_path, scdm, bg_scdm,
                                     thermo_scdm, small_grid, config):
        journal = tmp_path / "run.journal"
        # first run completes everything
        r1, _ = run_plinger_checkpointed(
            scdm, small_grid, journal, config, nproc=3,
            background=bg_scdm, thermo=thermo_scdm,
        )
        # "restart": everything journaled, nothing recomputed
        r2, resumed = run_plinger_checkpointed(
            scdm, small_grid, journal, config, nproc=3,
            background=bg_scdm, thermo=thermo_scdm,
        )
        assert resumed == small_grid.nk
        for a, b in zip(r1.payloads, r2.payloads):
            assert np.allclose(a.f_gamma, b.f_gamma)

    def test_partial_restart(self, tmp_path, scdm, bg_scdm, thermo_scdm,
                             small_grid, config):
        journal_path = tmp_path / "run.journal"
        # simulate an interrupted run: journal only modes 1 and 4 from a
        # complete reference run
        full = run_linger(scdm, small_grid, config, background=bg_scdm,
                          thermo=thermo_scdm)
        j = ModeJournal(journal_path)
        for i in (0, 3):
            j.append(full.headers[i], full.payloads[i])

        result, resumed = run_plinger_checkpointed(
            scdm, small_grid, journal_path, config, nproc=3,
            background=bg_scdm, thermo=thermo_scdm,
        )
        assert resumed == 2
        assert np.allclose(result.delta_m, full.delta_m, rtol=1e-10)
        # ik ordering intact
        assert [h.ik for h in result.headers] == [1, 2, 3, 4, 5]

    def test_foreign_journal_rejected(self, tmp_path, scdm, bg_scdm,
                                      thermo_scdm, config):
        j = ModeJournal(tmp_path / "foreign.journal")
        h, p = fake_compute(99)
        j.append(h, p)
        with pytest.raises(ParameterError):
            run_plinger_checkpointed(
                scdm, KGrid.from_k([0.001, 0.002]),
                tmp_path / "foreign.journal", config, nproc=2,
                background=bg_scdm, thermo=thermo_scdm,
            )


class TestLiveJournal:
    def test_each_mode_is_journaled_as_the_master_banks_it(
            self, tmp_path, monkeypatch, scdm, bg_scdm, thermo_scdm,
            small_grid, config):
        """The journal is written during the run, not after it: with
        the last wavenumber out held up, the other ``nk - 1`` are on
        disk while the run is still going, and a resume from there
        dispatches that one mode and lands on ``run_linger``'s bits."""
        import shutil
        import threading
        import time

        from repro.plinger import worker

        nk = small_grid.nk
        hold, computed = threading.Event(), []
        integrate = worker.compute_modes_batch

        def held_up(background, thermo, ks, iks, *args, **kwargs):
            computed.extend(iks)
            if 1 in iks:  # smallest k: dispatched last
                hold.wait(60.0)
            return integrate(background, thermo, ks, iks, *args, **kwargs)

        monkeypatch.setattr(worker, "compute_modes_batch", held_up)
        journal_path = tmp_path / "run.journal"
        run = threading.Thread(
            target=run_plinger_checkpointed,
            args=(scdm, small_grid, journal_path, config),
            kwargs=dict(nproc=3, background=bg_scdm, thermo=thermo_scdm),
            daemon=True)
        run.start()
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not (
                    journal_path.exists() and
                    journal_path.read_text().count("\n") >= nk - 1):
                time.sleep(0.01)
            assert run.is_alive()  # ik 1 is still being held
            crashed = tmp_path / "crashed.journal"
            shutil.copy(journal_path, crashed)
        finally:
            hold.set()
            run.join(60.0)
        assert sorted(ModeJournal(crashed).replay()) == list(range(2, nk + 1))

        del computed[:]
        result, resumed = run_plinger_checkpointed(
            scdm, small_grid, crashed, config, nproc=3,
            background=bg_scdm, thermo=thermo_scdm)
        assert (resumed, computed) == (nk - 1, [1])
        reference = run_linger(scdm, small_grid, config,
                               background=bg_scdm, thermo=thermo_scdm)
        for got, ref in zip(result.payloads, reference.payloads):
            np.testing.assert_array_equal(got.pack(), ref.pack())
        for got, ref in zip(result.headers, reference.headers):
            # every header value but cpu_seconds
            np.testing.assert_array_equal(np.delete(got.pack(), 18),
                                          np.delete(ref.pack(), 18))


class TestCrashResume:
    """Satellite: a real SIGKILL mid-journal, then a resume *under
    chaos injection* — the recovered run must be bitwise-identical to
    an uninterrupted one (the journal stores %.17e, which round-trips
    float64 exactly, and chaos recovery is bit-preserving)."""

    def test_sigkill_mid_journal_then_chaos_resume(
            self, tmp_path, scdm, bg_scdm, thermo_scdm, small_grid,
            config):
        import os
        import signal
        import time

        from repro.chaos import ChaosPolicy, active

        journal_path = tmp_path / "run.journal"

        pid = os.fork()
        if pid == 0:  # child: start the run, die whenever the parent says
            try:
                run_plinger_checkpointed(
                    scdm, small_grid, journal_path, config, nproc=3,
                    background=bg_scdm, thermo=thermo_scdm,
                )
            finally:
                os._exit(0)

        # parent: wait for at least one complete journal line, then
        # SIGKILL the child mid-flight (no atexit, no cleanup)
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if journal_path.exists() and \
                    journal_path.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the child finished the whole grid first — still fine
        os.waitpid(pid, 0)

        pre = ModeJournal(journal_path).replay()
        assert pre  # the crash left at least one durable mode behind

        # resume under integrator chaos: the forced step collapse must
        # be absorbed by a same-config transient retry, not change bits
        with active(ChaosPolicy.from_profile("integrator", seed=1)):
            result, resumed = run_plinger_checkpointed(
                scdm, small_grid, journal_path, config, nproc=3,
                background=bg_scdm, thermo=thermo_scdm,
            )
        assert resumed == len(pre)

        reference = run_linger(scdm, small_grid, config,
                               background=bg_scdm, thermo=thermo_scdm)
        assert [h.ik for h in result.headers] == [1, 2, 3, 4, 5]
        for got, ref in zip(result.payloads, reference.payloads):
            np.testing.assert_array_equal(got.pack(), ref.pack())
        assert all(h.retry_level == 0 for h in result.headers)
