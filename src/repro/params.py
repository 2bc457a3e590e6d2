"""Cosmological parameter sets (the LINGER "input deck").

The central object is :class:`CosmologyParams`, a frozen dataclass that
captures everything LINGER needs to define a model: density parameters,
the Hubble constant, the primordial spectral index, the helium fraction,
and the massive-neutrino content.  Factory functions provide the models
exercised in the paper (standard CDM) and the main mid-90s alternatives
(tilted CDM, LambdaCDM, mixed dark matter).

All derived quantities (photon/neutrino densities, H0 in Mpc^-1, the
radiation-matter equality scale factor...) are exposed as properties so
the rest of the package never re-derives them inconsistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import constants as const
from .errors import ParameterError

__all__ = [
    "CosmologyParams",
    "standard_cdm",
    "lambda_cdm",
    "mixed_dark_matter",
    "tilted_cdm",
]


@dataclass(frozen=True)
class CosmologyParams:
    """A complete cosmological model specification.

    Parameters
    ----------
    h:
        Dimensionless Hubble constant, ``H0 = 100 h`` km/s/Mpc.
    omega_b:
        Baryon density parameter today.
    omega_c:
        Cold-dark-matter density parameter today.
    omega_lambda:
        Cosmological-constant density parameter today.
    omega_nu:
        Density parameter in *massive* neutrinos today.  Zero for the
        standard-CDM run of the paper.
    n_nu_massless:
        Effective number of massless (two-component) neutrino species.
    n_nu_massive:
        Number of degenerate massive neutrino species carrying
        ``omega_nu`` (0 if ``omega_nu == 0``).
    t_cmb:
        CMB temperature today [K].
    y_he:
        Primordial helium mass fraction.
    n_s:
        Scalar spectral index of the primordial power spectrum
        (``n_s = 1`` is the scale-invariant spectrum used in the paper).
    q_rms_ps_uk:
        COBE normalization Q_rms-PS in micro-Kelvin; used to normalize
        C_l exactly as Fig. 2 of the paper normalizes to the COBE
        quadrupole.
    """

    h: float = 0.5
    omega_b: float = 0.05
    omega_c: float = 0.95
    omega_lambda: float = 0.0
    omega_nu: float = 0.0
    n_nu_massless: float = 3.0
    n_nu_massive: int = 0
    t_cmb: float = const.T_CMB_K
    y_he: float = 0.24
    n_s: float = 1.0
    q_rms_ps_uk: float = 18.0

    def __post_init__(self) -> None:
        if self.h <= 0.0:
            raise ParameterError(f"h must be positive, got {self.h}")
        if not 0.0 <= self.omega_b:
            raise ParameterError("omega_b must be non-negative")
        if self.omega_b == 0.0:
            raise ParameterError("omega_b = 0 leaves no baryons to recombine")
        if self.omega_c < 0.0 or self.omega_nu < 0.0:
            raise ParameterError("density parameters must be non-negative")
        if not 0.0 < self.t_cmb:
            raise ParameterError("t_cmb must be positive")
        if not 0.0 <= self.y_he < 1.0:
            raise ParameterError("y_he must lie in [0, 1)")
        if self.omega_nu > 0.0 and self.n_nu_massive < 1:
            raise ParameterError(
                "omega_nu > 0 requires at least one massive species"
            )
        if self.n_nu_massive > 0 and self.omega_nu == 0.0:
            raise ParameterError("massive species declared but omega_nu = 0")
        if self.n_nu_massless < 0:
            raise ParameterError("n_nu_massless must be non-negative")

    # -- derived densities ------------------------------------------------

    @property
    def h0_mpc(self) -> float:
        """Hubble constant today in Mpc^-1 (c = 1 units)."""
        return self.h / const.HUBBLE_MPC

    @property
    def omega_gamma(self) -> float:
        """Photon density parameter today."""
        return const.omega_gamma_h2(self.t_cmb) / self.h**2

    @property
    def omega_nu_massless(self) -> float:
        """Massless-neutrino density parameter today."""
        return self.n_nu_massless * const.NU_MASSLESS_FACTOR * self.omega_gamma

    @property
    def omega_r(self) -> float:
        """Total relativistic density parameter today (photons + massless nu)."""
        return self.omega_gamma + self.omega_nu_massless

    @property
    def omega_m(self) -> float:
        """Non-relativistic matter today (CDM + baryons + massive nu)."""
        return self.omega_c + self.omega_b + self.omega_nu

    @property
    def omega_total(self) -> float:
        return self.omega_m + self.omega_r + self.omega_lambda

    @property
    def omega_k(self) -> float:
        """Curvature density parameter (flat models give ~0)."""
        return 1.0 - self.omega_total

    @property
    def a_equality(self) -> float:
        """Scale factor of matter-radiation equality (massless radiation)."""
        return self.omega_r / self.omega_m

    @property
    def t_nu(self) -> float:
        """Neutrino temperature today [K]."""
        return self.t_cmb * const.T_NU_OVER_T_GAMMA

    @property
    def nu_mass_ev(self) -> float:
        """Mass per massive neutrino species [eV], from omega_nu.

        Uses the standard relation ``omega_nu h^2 = sum(m_nu) / 93.14 eV``
        scaled to the actual neutrino temperature.
        """
        if self.n_nu_massive == 0:
            return 0.0
        # m / T_nu conversion: rho_nu(m >> T) = n_nu * m
        # n_nu per species = (3/4)(zeta(3)/pi^2) * 2 * T_nu^3 (2 helicities)
        zeta3 = 1.2020569031595943
        t_nu_erg = const.K_BOLTZMANN * self.t_nu
        n_nu = (3.0 / 4.0) * (zeta3 / math.pi**2) * 2.0 * (
            t_nu_erg / (const.HBAR * const.C_LIGHT)
        ) ** 3  # cm^-3
        rho_nu = self.omega_nu * const.rho_critical_cgs(self.h)  # g cm^-3
        m_grams = rho_nu / (self.n_nu_massive * n_nu)
        return m_grams * const.C_LIGHT**2 / const.EV

    @property
    def nu_mass_over_t_nu(self) -> float:
        """Dimensionless ``m_nu c^2 / (k_B T_nu,0)`` for the massive species."""
        if self.n_nu_massive == 0:
            return 0.0
        return (
            self.nu_mass_ev
            * const.EV
            / (const.K_BOLTZMANN * self.t_nu)
        )

    # -- helpers -----------------------------------------------------------

    @property
    def grhom(self) -> float:
        """``(3/2) H0^2`` in Mpc^-2: the 4 pi G a^2 rho prefactor.

        With densities expressed through Omega_i and the a-scalings
        applied separately, ``4 pi G a^2 rho_i = grhom * Omega_i / a^n``
        for matter (n=1) and radiation (n=2) once multiplied by a^2.
        """
        return 1.5 * self.h0_mpc**2

    @property
    def baryon_number_density_cgs(self) -> float:
        """Hydrogen + helium nucleon number density today [cm^-3]."""
        rho_b = self.omega_b * const.rho_critical_cgs(self.h)
        return rho_b / const.M_HYDROGEN

    @property
    def n_hydrogen_cgs(self) -> float:
        """Hydrogen number density today [cm^-3]."""
        return (1.0 - self.y_he) * self.baryon_number_density_cgs

    def with_(self, **kwargs) -> "CosmologyParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def digest(self, kind: str = "params", shape=None) -> str:
        """The canonical content-address of this cosmology.

        A thin veneer over :func:`repro.cache.keys.cache_key` — a
        bit-exact serialization (``float.hex`` per field) — so the
        spectrum service, the run-result store and the tests all key a
        parameter set one way
        instead of re-deriving canonical blobs at each call site.
        ``shape`` carries any non-cosmological request shape (grid
        sizes, tolerances, ...) into the key.
        """
        from .cache.keys import cache_key

        return cache_key(kind, self, shape)


def standard_cdm(**overrides) -> CosmologyParams:
    """The "standard CDM" model of the paper's Fig. 2.

    Omega = 1 (CDM + baryons), h = 0.5, Omega_b = 0.05, n_s = 1,
    T_cmb = 2.726 K, normalized to the COBE Q_rms-PS.
    """
    params = dict(h=0.5, omega_b=0.05, omega_c=0.95, omega_lambda=0.0)
    params.update(overrides)
    return CosmologyParams(**params)


def tilted_cdm(n_s: float = 0.9, **overrides) -> CosmologyParams:
    """Tilted CDM: standard CDM with a non-unit spectral index."""
    return standard_cdm(n_s=n_s, **overrides)


def lambda_cdm(**overrides) -> CosmologyParams:
    """A mid-90s flat Lambda-CDM alternative (h=0.7, Omega_m=0.3)."""
    params = dict(h=0.7, omega_b=0.05, omega_c=0.25, omega_lambda=0.7)
    params.update(overrides)
    return CosmologyParams(**params)


def mixed_dark_matter(omega_nu: float = 0.2, **overrides) -> CosmologyParams:
    """Mixed (cold + hot) dark matter: exercises massive neutrinos.

    Omega = 1 with ``omega_nu`` in one massive neutrino species (the
    remaining radiation carries 2 massless species).
    """
    params = dict(
        h=0.5,
        omega_b=0.05,
        omega_c=0.95 - omega_nu,
        omega_nu=omega_nu,
        n_nu_massive=1,
        n_nu_massless=2.0,
    )
    params.update(overrides)
    return CosmologyParams(**params)
