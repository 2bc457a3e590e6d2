"""LINGER output files.

The original code writes two files per run: an ascii file with the
per-mode summary values and a binary file with the multipole arrays.
This module provides both: the ascii format is the 21-column record,
one line per mode, and the binary file is a run archive, reloadable
for spectrum post-processing without re-integrating.  An archive is
one digest-checked entry of :mod:`repro.cache.store`'s format.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..cache.store import read_entry, write_entry
from ..errors import ParameterError
from ..params import CosmologyParams
from .records import HEADER_LENGTH, ModeHeader, ModePayload

__all__ = [
    "write_ascii_headers",
    "read_ascii_headers",
    "save_run",
    "load_run",
    "SavedRun",
]


def write_ascii_headers(result, path) -> Path:
    """One line of 21 columns per mode — LINGER's ascii output file."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("# LINGER mode summaries: 21 columns per mode\n")
        fh.write("# ik k tau_end a_end delta_c delta_b delta_g delta_nu "
                 "delta_nu_massive theta_b theta_g theta_nu eta hdot "
                 "etadot phi psi delta_m cpu_seconds n_rhs lmax\n")
        for h in result.headers:
            fh.write(" ".join(f"{v:.10e}" for v in h.pack()) + "\n")
    return path


def read_ascii_headers(path) -> list[ModeHeader]:
    """Parse a file written by :func:`write_ascii_headers`."""
    headers = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values = np.array([float(v) for v in line.split()])
        if values.size != HEADER_LENGTH:
            raise ParameterError(
                f"malformed header line with {values.size} columns"
            )
        headers.append(ModeHeader.unpack(values))
    return headers


@dataclass
class SavedRun:
    """A reloaded LINGER run: enough for spectrum post-processing."""

    params: CosmologyParams
    k: np.ndarray
    headers: list[ModeHeader]
    payloads: list[ModePayload]

    @property
    def delta_m(self) -> np.ndarray:
        return np.array([h.delta_m for h in self.headers])

    def theta_l_matrix(self) -> np.ndarray:
        lmaxes = {p.lmax for p in self.payloads}
        if len(lmaxes) != 1:
            raise ParameterError("theta_l_matrix requires a fixed-lmax run")
        return np.stack([p.f_gamma / 4.0 for p in self.payloads])


#: the ``format`` tag in an archive's meta
_ARCHIVE_FORMAT = "repro.linger.run/1"


def save_run(result, path) -> Path:
    """Archive a (P)LINGER run to ``path``: parameters, headers and
    payloads.

    The source records (``result.modes``) are deliberately not stored —
    they are the working state of a run, not its product, exactly as the
    original code only persisted the two output files.
    """
    path = Path(path)
    payload_rows = [p.pack() for p in result.payloads]
    params = {name: np.asarray(value).item()  # numpy scalars as JSON's
              for name, value in asdict(result.params).items()}
    write_entry(path, {
        "k": np.asarray(result.kgrid.k if hasattr(result, "kgrid")
                        else result.k),
        "headers": np.stack([h.pack() for h in result.headers]),
        "payload_lengths": np.array([row.size for row in payload_rows]),
        "payload_flat": np.concatenate(payload_rows),
    }, {"format": _ARCHIVE_FORMAT, "params": params})
    return path


def load_run(path) -> SavedRun:
    """Reload an archive written by :func:`save_run`; ParameterError if
    ``path`` holds none."""
    try:
        data, meta, _ = read_entry(path)
        if meta.get("format") != _ARCHIVE_FORMAT:
            raise ValueError(f"format tag {meta.get('format')!r}")
        params = CosmologyParams(**meta["params"])
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ParameterError(
            f"cannot read run archive {path}: {exc}") from exc
    headers = [ModeHeader.unpack(row) for row in data["headers"]]
    payloads = []
    offset = 0
    flat = data["payload_flat"]
    for h, length in zip(headers, data["payload_lengths"]):
        row = flat[offset : offset + int(length)]
        offset += int(length)
        payloads.append(ModePayload.unpack(row, h.lmax))
    return SavedRun(params=params, k=data["k"], headers=headers,
                    payloads=payloads)
