"""The fault-injecting transport itself.

What a PLINGER run does under each injected fault — recover the
fault-free records bitwise, or raise within the policy's bounds, never
a quietly wrong or incomplete spectrum — is pinned in
``tests/test_fault_tolerance.py`` (``TestEveryAction`` runs every
action of :data:`~repro.mp.backends.faulty.ACTIONS` against
every message kind of the exchange).
"""

import threading

import numpy as np
import pytest

from repro import KGrid
from repro.mp.backends.faulty import FaultPolicy, FaultyWorld
from repro.mp.backends.inprocess import InProcessWorld
from repro.plinger import master_subroutine, worker_subroutine
from tests.test_plinger import fake_compute


class TestFaultPolicy:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(selector=lambda m, c: True, action="scramble")

    def test_no_faults_when_selector_never_fires(self):
        world = FaultyWorld(InProcessWorld(2), FaultPolicy(
            selector=lambda m, c: False, action="drop"))
        kgrid = KGrid.from_k(0.01 * np.arange(1, 5))

        def worker():
            mp = world.handle(1)
            mp.initpass()
            worker_subroutine(
                mp, lambda iks: [fake_compute(ik) for ik in iks])

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        mp0 = world.handle(0)
        mp0.initpass()
        log = master_subroutine(mp0, kgrid)
        thread.join(5.0)
        assert not thread.is_alive()
        assert sorted(h.ik for h in log.headers) == [1, 2, 3, 4]
        assert world.faults_injected == 0 and not log.fault.any_faults
