"""The psi movie: real-space evolution of the Newtonian potential.

The paper's mpeg movie shows psi of the conformal Newtonian gauge on a
comoving 100 Mpc square, from the early radiation era to conformal
time ~250 Mpc (just after recombination), with the acoustic
oscillations of the photon-baryon fluid visible as oscillations of the
potential.  We reproduce it by evolving psi(k, tau) for a k-grid,
drawing one set of random phases for a 2-D slice, and synthesizing the
slice at every recorded time with the *same* phases — so the time
evolution is the transfer function's, not sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..perturbations import ModeResult
from ..util.fastspline import fit_cubic

__all__ = ["PotentialMovie"]


@dataclass
class PotentialMovie:
    """Fixed-phase 2-D realizations of psi(x, tau).

    Parameters
    ----------
    modes:
        Mode results (with records) covering the k-range the box needs:
        k from ~2 pi / L to ~ pi N / L.
    box_mpc:
        Comoving box side (the paper uses 100 Mpc).
    npix:
        Pixels per side.
    n_s:
        Primordial spectral index (psi power ~ k^(n_s - 4) |psi_k|^2).
    """

    modes: list[ModeResult]
    box_mpc: float = 100.0
    npix: int = 128
    n_s: float = 1.0
    seed: int = 1995

    def __post_init__(self) -> None:
        if len(self.modes) < 3:
            raise ParameterError("need at least 3 modes to interpolate psi(k)")
        self._k = np.array([m.k for m in self.modes])
        if np.any(np.diff(self._k) <= 0):
            order = np.argsort(self._k)
            self.modes = [self.modes[i] for i in order]
            self._k = self._k[order]
        # common tau grid: use the first mode's records as the reference
        self._tau_tables = [m.tau for m in self.modes]
        self._psi_splines = [
            fit_cubic(m.tau, m.records["psi"]) for m in self.modes
        ]
        # fixed random phases for the slice
        rng = np.random.default_rng(self.seed)
        n = self.npix
        kx = 2.0 * np.pi * np.fft.fftfreq(n, d=self.box_mpc / n)
        ky = 2.0 * np.pi * np.fft.rfftfreq(n, d=self.box_mpc / n)
        self._kmag = np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
        re = rng.normal(0.0, 1.0 / math.sqrt(2.0), self._kmag.shape)
        im = rng.normal(0.0, 1.0 / math.sqrt(2.0), self._kmag.shape)
        self._xi = re + 1j * im

    @property
    def tau_range(self) -> tuple[float, float]:
        lo = max(t[0] for t in self._tau_tables)
        hi = min(t[-1] for t in self._tau_tables)
        return lo, hi

    def psi_of_k(self, tau: float) -> np.ndarray:
        """psi(k, tau) interpolated onto the mode k-grid."""
        lo, hi = self.tau_range
        if not lo <= tau <= hi:
            raise ParameterError(f"tau={tau} outside recorded range [{lo}, {hi}]")
        return np.array([s(tau) for s in self._psi_splines])

    def frame(self, tau: float) -> np.ndarray:
        """One 2-D slice of psi at conformal time tau (npix x npix).

        The field is drawn from P_psi(k, tau) ~ k^(n_s - 4) psi(k,tau)^2
        with phases fixed across frames.
        """
        psi_k = self.psi_of_k(tau)
        # interpolate |psi| onto the slice's k magnitudes (log-k linear)
        kmag = np.clip(self._kmag, self._k[0], self._k[-1])
        psi_2d = np.interp(np.log(kmag), np.log(self._k), psi_k)
        with np.errstate(divide="ignore"):
            power = np.where(
                self._kmag > 0.0,
                np.clip(self._kmag, self._k[0], None) ** (self.n_s - 4.0)
                * psi_2d**2,
                0.0,
            )
        amp = self.npix**2 * np.sqrt(power) / self.box_mpc
        field = np.fft.irfft2(amp * self._xi, s=(self.npix, self.npix))
        return field

    def frames(self, taus) -> np.ndarray:
        """Stack of frames, shape (ntau, npix, npix)."""
        return np.stack([self.frame(float(t)) for t in taus])

    def rms_history(self, taus) -> np.ndarray:
        """RMS of the slice at each time (shows the acoustic decay)."""
        return np.array([float(np.std(self.frame(float(t)))) for t in taus])
