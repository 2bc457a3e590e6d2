"""Models of the paper's 1995 machines and the master/worker schedule.

We do not have a 256-node SP2 or a C90/T3D pair; what Fig. 1 and the
Section 5 numbers actually measure is the interaction of (a) per-node
sustained flop rates, (b) a per-wavenumber work distribution, and
(c) the largest-k-first master/worker schedule with its (tiny) message
costs.  This package implements exactly those three ingredients:

* :mod:`machines`  — C90 / SP2 / T3D / Alpha-cluster node and network
  parameters, with the paper's sustained per-node rates;
* :mod:`costmodel` — flops and message bytes per wavenumber, either
  fitted to the paper's anchor points (2 CPU-minutes at the smallest k,
  ~30 at the largest, 150 B - 80 kB messages) or *calibrated against
  this package's real integrator* (measured RHS-evaluation counts);
* :mod:`simulate`  — a discrete-event simulation of the Appendix-A
  protocol that turns (work list, machine, nproc) into wallclock / CPU
  / efficiency curves.

The scaling curves are therefore emergent from the same scheduling
algorithm the paper ran, not transcribed from its figure.
"""

from .machines import MachineModel, CRAY_C90, IBM_SP2, IBM_SP2_TUNED, CRAY_T3D, DEC_ALPHA_CLUSTER, MACHINES
from .costmodel import CostModel, paper_cost_model, calibrated_cost_model
from .simulate import ScheduleResult, simulate_schedule, scaling_study

__all__ = [
    "MachineModel",
    "CRAY_C90",
    "IBM_SP2",
    "IBM_SP2_TUNED",
    "CRAY_T3D",
    "DEC_ALPHA_CLUSTER",
    "MACHINES",
    "CostModel",
    "paper_cost_model",
    "calibrated_cost_model",
    "ScheduleResult",
    "simulate_schedule",
    "scaling_study",
]
