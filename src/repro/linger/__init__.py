"""LINGER: the serial driver.

The serial code's main loop is over wavenumbers: for each ``k`` it
integrates the Einstein-Boltzmann system to the present and writes two
output records (a 21-value summary and a ``2 lmax + 8``-value multipole
array — the exact payloads PLINGER later ships as messages).  This
package provides the k-grid builders (including the paper's
largest-k-first ordering), the record formats, and the serial runner.
"""

from .io import SavedRun, load_run, read_ascii_headers, save_run, write_ascii_headers
from .kgrid import KGrid, cl_kgrid, matter_kgrid, sparse_kgrid
from .records import ModeHeader, ModePayload, HEADER_LENGTH
from .serial import (
    LingerConfig,
    LingerResult,
    build_tables,
    compute_mode,
    compute_modes_batch,
    dispatch_chunks,
    run_linger,
)

__all__ = [
    "KGrid",
    "cl_kgrid",
    "matter_kgrid",
    "sparse_kgrid",
    "ModeHeader",
    "ModePayload",
    "HEADER_LENGTH",
    "LingerConfig",
    "LingerResult",
    "build_tables",
    "compute_mode",
    "compute_modes_batch",
    "dispatch_chunks",
    "run_linger",
    "SavedRun",
    "save_run",
    "load_run",
    "write_ascii_headers",
    "read_ascii_headers",
]
