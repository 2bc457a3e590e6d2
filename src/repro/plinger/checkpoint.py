"""Checkpoint/restart for PLINGER runs.

A production run on the paper's scale (75 C90-CPU-hours) cannot afford
to lose completed wavenumbers to a crashed job.  The checkpointed
driver writes each completed (header, payload) pair to an append-only
journal as the master receives it; a restarted run replays the journal,
re-dispatches only the missing wavenumbers, and produces a result
identical to an uninterrupted run.

Journal format: one line per mode —
``21 header values | 2*lmax+8 payload values`` in plain text (the
spirit of LINGER's ascii/binary output pair, merged for atomicity).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import ProtocolError
from ..linger.kgrid import KGrid
from ..linger.records import HEADER_LENGTH, ModeHeader, ModePayload
from ..linger.serial import LingerConfig, LingerResult
from ..resilience import FaultTolerance

__all__ = ["ModeJournal", "run_plinger_checkpointed"]


class ModeJournal:
    """Append-only journal of completed modes.

    The append handle opens lazily on the first write and stays open
    across modes (reopening per append cost one open/close syscall pair
    per mode and, worse, re-resolved the path every time); durability
    is unchanged — every line is flushed and fsync'd before
    :meth:`append` returns, so a crash can tear at most the line being
    written.  Use as a context manager (or call :meth:`close`) to
    release the handle.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "a")
        return self._fh

    def append(self, header: ModeHeader, payload: ModePayload) -> None:
        if header.ik != payload.ik:
            raise ProtocolError("header/payload ik mismatch")
        h = " ".join(f"{v:.17e}" for v in header.pack())
        p = " ".join(f"{v:.17e}" for v in payload.pack())
        fh = self._handle()
        fh.write(h + " | " + p + "\n")
        # a mode is only as durable as the OS makes it: push the
        # line through the page cache before the master moves on,
        # so a crash can tear at most the line being written
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "ModeJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def replay(self) -> dict[int, tuple[ModeHeader, ModePayload]]:
        """Read back every *complete* journal line.

        A crashed writer can leave a short, garbled, or non-numeric
        tail; any line that does not survive strict parsing and
        finiteness validation is skipped (the mode is simply
        recomputed), never fatal.
        """
        done: dict[int, tuple[ModeHeader, ModePayload]] = {}
        if not self.path.exists():
            return done
        for line in self.path.read_text().splitlines():
            if "|" not in line:
                continue
            left, right = line.split("|", 1)
            try:
                hvals = np.array([float(v) for v in left.split()])
                pvals = np.array([float(v) for v in right.split()])
                # Only the structural fields must be finite: a real
                # header may carry NaN in a physics slot (e.g.
                # delta_nu_massive with no massive neutrinos), but
                # "inf"/"nan" in the ik/lmax slots or anywhere in the
                # payload can never be a real mode.
                if hvals.size != HEADER_LENGTH:
                    continue
                if not (np.isfinite(hvals[0]) and np.isfinite(hvals[-1])
                        and np.all(np.isfinite(pvals))):
                    continue
                header = ModeHeader.unpack(hvals)
                payload = ModePayload.unpack(pvals, header.lmax)
            except (ValueError, OverflowError, ProtocolError):
                continue  # torn write at the tail
            if not 1 <= header.ik <= 10**9 or header.lmax < 0:
                continue
            done[header.ik] = (header, payload)
        return done


def run_plinger_checkpointed(
    params,
    kgrid: KGrid,
    journal_path,
    config: LingerConfig | None = None,
    nproc: int = 3,
    backend: str = "inprocess",
    background=None,
    thermo=None,
    fault_tolerance: FaultTolerance = FaultTolerance(),
) -> tuple[LingerResult, int]:
    """PLINGER with a completion journal; resumable.

    Returns (result, n_resumed): how many modes were recovered from the
    journal instead of recomputed.  The k-grid and configuration must
    match the original run (the journal stores ik indices).

    This is :func:`run_plinger` started with the journal's modes
    already done and the journal's :meth:`~ModeJournal.append` as its
    ``on_result``: in-run faults are recovered live, and a crash of
    the whole job resumes from the last fsync'd mode.
    """
    from .driver import run_plinger

    with ModeJournal(journal_path) as journal:
        done = journal.replay()
        result, _stats = run_plinger(
            params, kgrid, config, nproc=nproc, backend=backend,
            background=background, thermo=thermo,
            fault_tolerance=fault_tolerance,
            completed=done, on_result=journal.append,
        )
    return result, len(done)
