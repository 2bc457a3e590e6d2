"""The PLINGER message tags (paper §7.2, plus the liveness extension)."""

from __future__ import annotations

from enum import IntEnum

__all__ = ["Tag", "HEARTBEAT_LENGTH"]

#: A heartbeat carries one real: the sender's running beat count.
HEARTBEAT_LENGTH = 1


class Tag(IntEnum):
    """Each message carries a tag which reveals its function.

    Tags 1-6 are the paper's, verbatim.  HEARTBEAT is a liveness
    extension: workers emit it on a timer so the fault-tolerant master
    can tell a busy worker from a dead one; it earns no reply, so the
    paper's one-reply-per-message accounting of tags 1-6 is untouched.
    JOIN is the multi-node extension: it is synthesized by an elastic
    world (the sockets backend) when a rank connects mid-run; the
    fault-tolerant master admits the rank and re-sends INIT, the
    legacy master has no elastic path and treats it like any unexpected
    tag.  No tag carries tables: a rank is handed its background and
    thermal history, inherits them at fork, or builds them itself
    (DESIGN.md, "How tables reach a rank"), so value 8 is unused.
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
    #: from worker; periodic liveness signal (never replied to)
    HEARTBEAT = 7
    #: from an elastic world; a new rank announcing itself mid-run
    JOIN = 9
