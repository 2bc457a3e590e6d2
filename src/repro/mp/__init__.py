"""Message-passing substrate: the paper's wrapper API.

PLINGER isolates all communication behind eight wrapper routines
(Appendix A of the paper) so the same master/worker code runs on PVM,
MPI, MPL or PVMe.  This package reproduces that abstraction layer in
Python:

* :class:`MessagePassing` — the wrapper API (``initpass, endpass,
  mybcastreal, mysendreal, mycheckany, mycheckone, mychecktid,
  myrecvreal``) with the exact probe/receive semantics of the paper's
  MPI implementation,
* backends: ``serial`` (loopback), ``inprocess`` (threads sharing
  mailboxes), ``procs`` (``os.fork`` children, one pipe per rank pair
  carrying the RPMP frames of :mod:`.message`), ``sockets`` (the same
  frames over real TCP, elastic worker pool — the one backend that
  crosses a host boundary).

An mpi4py backend would slot in unchanged (same buffer-of-float64
discipline); it is not bundled because this sandbox has no MPI.
"""

from .api import MessagePassing, get_backend, available_backends
from .message import Message

__all__ = ["MessagePassing", "Message", "get_backend", "available_backends"]
