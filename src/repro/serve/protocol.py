"""The spectrum-service wire protocol: newline-delimited JSON.

One request per line, one response line per request, over a plain TCP
stream.  JSON floats round-trip float64 exactly (``json.dumps`` emits
the shortest repr that reparses to the same bits), so a served C_l is
*bitwise* the computed C_l — the service's exactness guarantee does
not stop at the socket.

:class:`ServeRequest` is the canonical request object: a full
:class:`~repro.params.CosmologyParams` plus the run shape (k-grid,
multipole cutoff, tolerance).  Its :meth:`ServeRequest.digest` is the
content address everything keys on — the run-result store, the
in-flight coalescing map, and the tests — derived through
:meth:`CosmologyParams.digest`, i.e. the same bit-exact canonical
serialization that addresses the precompute cache.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ServeError
from ..params import CosmologyParams
from ..revision import SOLVER_REVISION

if TYPE_CHECKING:  # the engine; a client addressing a request needs none
    from ..linger.kgrid import KGrid
    from ..linger.serial import LingerConfig

__all__ = [
    "PROTOCOL_VERSION",
    "ServeRequest",
    "encode_message",
    "decode_message",
    "MAX_LINE_BYTES",
]

#: Bump on any incompatible change to the request/response documents.
PROTOCOL_VERSION = 1

#: Upper bound on one protocol line; a longer line is a malformed (or
#: hostile) request and is rejected before parsing.
MAX_LINE_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeRequest:
    """One cosmology-spectrum request: parameters plus run shape.

    The shape mirrors the CLI ``run`` defaults: a linear k-grid from
    ``k_min`` to ``k_max`` with ``nk`` points, integrated at
    ``lmax``/``rtol`` with the hierarchy C_l read off at
    ``l = 2 .. lmax - 3``.  A request names a result, not how to
    compute it: execution knobs (chunk length, kernel, rank count) are
    the server's, and :meth:`from_doc` ignores top-level keys it does
    not know — the ``batch_size`` older clients still send included.
    """

    params: CosmologyParams
    k_min: float = 3e-5
    k_max: float = 3e-3
    nk: int = 16
    lmax: int = 16
    rtol: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.k_min < self.k_max):
            raise ServeError(f"need 0 < k_min < k_max, got "
                             f"[{self.k_min}, {self.k_max}]")
        if self.nk < 2:
            raise ServeError(f"nk must be >= 2, got {self.nk}")
        if self.lmax < 5:
            raise ServeError(f"lmax must be >= 5, got {self.lmax}")
        if not 0.0 < self.rtol <= 1e-2:
            raise ServeError(f"rtol must lie in (0, 1e-2], got {self.rtol}")

    # -- content addressing -------------------------------------------------

    def shape(self) -> dict:
        """The non-cosmological part of the request key.  It carries the
        revision of the solver behind the spectrum, so a store filled
        by an earlier solver is never answered from."""
        return {
            "protocol": PROTOCOL_VERSION,
            "solver": SOLVER_REVISION,
            "k_min": float(self.k_min),
            "k_max": float(self.k_max),
            "nk": int(self.nk),
            "lmax": int(self.lmax),
            "rtol": float(self.rtol),
        }

    def digest(self) -> str:
        """The request's content address (SHA-256, bit-exact)."""
        return self.params.digest("serve_result", self.shape())

    # -- run construction (the daemon's side) -------------------------------

    def kgrid(self) -> KGrid:
        from ..linger.kgrid import KGrid

        return KGrid.from_k(np.linspace(self.k_min, self.k_max, self.nk))

    def config(self) -> LingerConfig:
        from ..linger.serial import LingerConfig

        return LingerConfig(
            lmax_photon=self.lmax,
            rtol=self.rtol,
            nq=8 if self.params.omega_nu > 0 else 0,
            record_sources=False,
            keep_mode_results=False,
        )

    def l_values(self) -> np.ndarray:
        """The multipoles the hierarchy method reports (2 .. lmax-3)."""
        return np.arange(2, self.lmax - 2)

    # -- wire form ----------------------------------------------------------

    def to_doc(self) -> dict:
        doc = {"op": "spectrum", "protocol": PROTOCOL_VERSION,
               "params": dataclasses.asdict(self.params)}
        doc.update({k: v for k, v in self.shape().items()
                    if k not in ("protocol", "solver")})
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ServeRequest":
        try:
            raw = dict(doc.get("params") or {})
            known = {f.name for f in dataclasses.fields(CosmologyParams)}
            unknown = set(raw) - known
            if unknown:
                raise ServeError(
                    f"unknown cosmology fields: {sorted(unknown)}"
                )
            if "n_nu_massive" in raw:
                raw["n_nu_massive"] = int(raw["n_nu_massive"])
            params = CosmologyParams(**raw)
            return cls(
                params=params,
                k_min=float(doc.get("k_min", cls.k_min)),
                k_max=float(doc.get("k_max", cls.k_max)),
                nk=int(doc.get("nk", cls.nk)),
                lmax=int(doc.get("lmax", cls.lmax)),
                rtol=float(doc.get("rtol", cls.rtol)),
            )
        except ServeError:
            raise
        except (TypeError, ValueError) as exc:
            raise ServeError(f"malformed spectrum request: {exc}") from exc


def encode_message(doc: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    line = json.dumps(doc, separators=(",", ":"),
                      allow_nan=False).encode() + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ServeError(f"message of {len(line)} bytes exceeds the "
                         f"{MAX_LINE_BYTES}-byte protocol limit")
    return line


def decode_message(line: bytes) -> dict:
    """Parse one protocol line into its document."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeError("protocol line exceeds the size limit")
    try:
        doc = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed protocol line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServeError("protocol line must decode to a JSON object")
    return doc
