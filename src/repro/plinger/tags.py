"""The PLINGER message tags (paper §7.2, plus the liveness extension)."""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Tag"]


class Tag(IntEnum):
    """Each message carries a tag which reveals its function.

    Tags 1-6 are the paper's, verbatim.  HEARTBEAT is a liveness
    extension: a worker that has had nothing else to say for a
    heartbeat interval emits it on a timer so the master can tell busy
    from dead; it earns no reply, so the paper's one-reply-per-ask
    accounting of tags 1-6 is untouched, and a run of short modes
    never sends one.  No tag carries tables: a rank is handed its
    background and thermal history, inherits them at fork, or builds
    them itself (DESIGN.md, "How tables reach a rank"), so value 8 is
    unused; and no tag adds a rank, because a world's ranks are fixed
    at launch, as the paper's ``initpass`` fixes them.
    """

    #: first message from master to workers (run setup broadcast)
    INIT = 1
    #: from worker; asking for a wavenumber
    READY = 2
    #: from master; giving worker a wavenumber to work on
    WORK = 3
    #: from worker; giving first set of data and lmax
    HEADER = 4
    #: from worker; giving data (length = 2*lmax + 8)
    PAYLOAD = 5
    #: from master; telling worker to stop
    STOP = 6
    #: from worker; liveness signal, one real: its running beat count
    #: (never replied to)
    HEARTBEAT = 7
