"""Friedmann-Robertson-Walker background cosmology.

This subpackage provides the unperturbed expansion history that every
perturbation mode evolves on: the conformal Hubble rate, the mapping
between scale factor and conformal time, per-species densities and
pressures, and the momentum-space integrals required for massive
neutrinos (no fluid approximation, exactly as in LINGER).
"""

from .expansion import Background
from .nu_massive import (
    MassiveNuTables,
    fermi_dirac_f0,
    dlnf0_dlnq,
    solve_mass_parameter,
)

__all__ = [
    "Background",
    "MassiveNuTables",
    "fermi_dirac_f0",
    "dlnf0_dlnq",
    "solve_mass_parameter",
]
