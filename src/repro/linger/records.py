"""LINGER/PLINGER output records — the paper's exact message payloads.

Per completed wavenumber the worker sends two messages (paper §7.2):

* tag 4 — a fixed 21-value summary record (the values LINGER writes to
  its ascii file, with the multipole cutoff ``lmax`` in slot 21 so the
  master knows the length of the next message);
* tag 5 — a ``2 lmax + 8``-value record carrying the temperature and
  polarization multipoles (the values LINGER writes to its binary
  file).

The message length therefore grows with lmax, i.e. with CPU time —
from ~150 bytes at the smallest k to tens of kilobytes at the largest,
exactly the economics of §4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ProtocolError

__all__ = ["ModeHeader", "ModePayload", "HEADER_LENGTH", "wire_index"]

#: Length of the tag-4 summary record (fixed, as in the paper).
HEADER_LENGTH = 21


def wire_index(value: float) -> int | None:
    """An index that crossed the wire as a real, or None if the value
    is not (to 1e-6) a finite integer."""
    if not np.isfinite(value) or abs(value - round(value)) > 1e-6:
        return None
    return int(round(value))


@dataclass(frozen=True)
class ModeHeader:
    """The 21-value per-mode summary record."""

    ik: int  #: index of the wavenumber in the grid (1-based, as in F77)
    k: float  #: wavenumber [Mpc^-1]
    tau_end: float  #: conformal time of the final state [Mpc]
    a_end: float  #: scale factor at tau_end
    delta_c: float
    delta_b: float
    delta_g: float
    delta_nu: float
    delta_nu_massive: float
    theta_b: float
    theta_g: float
    theta_nu: float
    eta: float
    hdot: float
    etadot: float
    phi: float
    psi: float
    delta_m: float
    cpu_seconds: float  #: worker CPU spent on this mode
    n_rhs: float  #: RHS evaluations (the cost-model observable)
    lmax: int  #: photon multipole cutoff (determines payload length)
    #: escalation-ladder level the integration needed (0 = none).
    #: Not one of the 21 values below: the worker appends it to the
    #: wire header as a 22nd real only when it is not zero.
    retry_level: int = 0

    def pack(self) -> np.ndarray:
        """Serialize to the 21-double wire format."""
        return np.array(
            [
                float(self.ik), self.k, self.tau_end, self.a_end,
                self.delta_c, self.delta_b, self.delta_g, self.delta_nu,
                self.delta_nu_massive, self.theta_b, self.theta_g,
                self.theta_nu, self.eta, self.hdot, self.etadot,
                self.phi, self.psi, self.delta_m, self.cpu_seconds,
                self.n_rhs, float(self.lmax),
            ]
        )

    @classmethod
    def unpack(cls, buf: np.ndarray) -> "ModeHeader":
        buf = np.asarray(buf, dtype=float)
        if buf.shape != (HEADER_LENGTH,):
            raise ProtocolError(
                f"mode header must have {HEADER_LENGTH} values, got {buf.shape}"
            )
        return cls(
            ik=int(round(buf[0])), k=buf[1], tau_end=buf[2], a_end=buf[3],
            delta_c=buf[4], delta_b=buf[5], delta_g=buf[6], delta_nu=buf[7],
            delta_nu_massive=buf[8], theta_b=buf[9], theta_g=buf[10],
            theta_nu=buf[11], eta=buf[12], hdot=buf[13], etadot=buf[14],
            phi=buf[15], psi=buf[16], delta_m=buf[17], cpu_seconds=buf[18],
            n_rhs=buf[19], lmax=int(round(buf[20])),
        )


@dataclass(frozen=True)
class ModePayload:
    """The ``2 lmax + 8``-value multipole record."""

    ik: int
    k: float
    tau_end: float
    a_end: float
    amplitude: float  #: initial-condition normalization C
    n_steps: float
    f_gamma: np.ndarray  #: temperature multipoles F_l, l = 0..lmax
    g_gamma: np.ndarray  #: polarization multipoles G_l, l = 0..lmax

    def __post_init__(self) -> None:
        f = np.asarray(self.f_gamma, dtype=float)
        g = np.asarray(self.g_gamma, dtype=float)
        if f.shape != g.shape or f.ndim != 1:
            raise ProtocolError("f_gamma and g_gamma must be equal-length 1-d")
        object.__setattr__(self, "f_gamma", f)
        object.__setattr__(self, "g_gamma", g)

    @property
    def lmax(self) -> int:
        return self.f_gamma.size - 1

    @property
    def wire_length(self) -> int:
        """2 lmax + 8, the paper's message length."""
        return 2 * self.lmax + 8

    def pack(self) -> np.ndarray:
        head = np.array(
            [float(self.ik), self.k, self.tau_end, self.a_end,
             self.amplitude, self.n_steps]
        )
        return np.concatenate([head, self.f_gamma, self.g_gamma])

    @classmethod
    def unpack(cls, buf: np.ndarray, lmax: int) -> "ModePayload":
        buf = np.asarray(buf, dtype=float)
        expected = 2 * lmax + 8
        if buf.size != expected:
            raise ProtocolError(
                f"mode payload for lmax={lmax} must have {expected} values, "
                f"got {buf.size}"
            )
        n = lmax + 1
        return cls(
            ik=int(round(buf[0])), k=buf[1], tau_end=buf[2], a_end=buf[3],
            amplitude=buf[4], n_steps=buf[5],
            f_gamma=buf[6 : 6 + n].copy(),
            g_gamma=buf[6 + n : 6 + 2 * n].copy(),
        )
