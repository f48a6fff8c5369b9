"""Microscopic coupled drift-diffusion solver on the perforated domain.

Transport of P charged species with nonlinear diffusion h_p(r) = r + eta r^p
and drift eps^beta D_i z_i c_i grad(phi), coupled to the eps^alpha-scaled
pure-Neumann Poisson problem with zero-mean potential.  Species fluxes vanish
on the hole boundary and the outer boundary (no-flux); the potential sees the
sampled surface charges there instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import FacetCharges, MaskedGrid
from .transport import RunResult, TransportSim, h_p_eval, h_p_prime

__all__ = [
    "ScalingSpec", "SpeciesSpec", "MicroSimulation", "run_micro",
    "validate_compatibility", "balance_outer_charges", "h_p_eval", "h_p_prime",
]


@dataclass(frozen=True)
class ScalingSpec:
    """Scale and nonlinearity parameters of the microscopic model."""

    epsilon: float
    alpha: float
    beta: float
    eta: float
    p: float
    final_time: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.alpha > self.beta:
            raise ConfigError(
                f"alpha <= beta is required (mobility may not outscale permittivity); "
                f"got alpha = {self.alpha}, beta = {self.beta}"
            )
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.p < 4:
            raise ConfigError(f"p >= 4 is required, got {self.p}")
        if self.final_time < 0:
            raise ConfigError(f"final_time must be >= 0, got {self.final_time}")


@dataclass(frozen=True)
class SpeciesSpec:
    """One transported species: diffusivity, charge number, initial profile.

    ``initial_profile`` maps an array of cell centers, shape (k, n), to
    nonnegative concentrations, shape (k,).
    """

    name: str
    diffusivity: float
    charge: int
    initial_profile: object

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ConfigError(
                f"species {self.name!r}: diffusivity must be positive, got {self.diffusivity}"
            )


COMPAT_REL_TOL = 1e-12   # |R| allowed relative to the charge scale


def validate_compatibility(grid: MaskedGrid, species, charges: FacetCharges,
                           raise_on_fail: bool = True) -> float:
    """Discrete charge balance R = sum_i z_i int c_i^0 + int_boundary xi dS.

    The pure-Neumann Poisson problem is solvable iff R = 0.  Returns R; when
    ``raise_on_fail`` and |R| exceeds COMPAT_REL_TOL times the charge scale, a
    ConfigError carrying R is raised.
    """
    bulk = 0.0
    scale = 0.0
    for spec in species:
        c0 = np.asarray(spec.initial_profile(grid.centers), dtype=float)
        mass = float(np.sum(c0)) * grid.cell_volume
        bulk += spec.charge * mass
        scale += abs(spec.charge) * abs(mass)
    boundary = charges.total_charge(grid)
    scale += float(np.sum(np.abs(charges.gamma_values)) * grid.facet_area)
    scale += float(np.sum(np.abs(charges.outer_values)) * grid.facet_area)
    residual = bulk + boundary
    if raise_on_fail and abs(residual) > COMPAT_REL_TOL * max(1.0, scale):
        raise ConfigError(
            f"incompatible charge data: residual {residual:.6e} violates the "
            f"solvability condition (total bulk + boundary charge must vanish); "
            "enable auto_balance or adjust the data",
            residual=residual,
        )
    return residual


def balance_outer_charges(grid: MaskedGrid, species, charges: FacetCharges):
    """Shift the outer-boundary charge by a constant so the discrete balance is exact.

    Returns (balanced charges, shift).  The shift -R/|outer boundary| is the
    unique constant correction supported on the outer boundary.
    """
    residual = validate_compatibility(grid, species, charges, raise_on_fail=False)
    shift = -residual / grid.outer_area_total
    balanced = FacetCharges(gamma_values=charges.gamma_values,
                            outer_values=charges.outer_values + shift)
    return balanced, float(shift)


class MicroSimulation(TransportSim):
    """The microscopic system as engine data: identity transport tensor,
    permittivity eps^alpha, mobility eps^beta, the sampled facet charges."""

    def __init__(self, grid: MaskedGrid, scaling: ScalingSpec, species,
                 charges: FacetCharges, poisson_tol: float = 1e-11,
                 explicit_time: bool = False):
        eps, alpha, beta = scaling.epsilon, scaling.alpha, scaling.beta
        identity = np.eye(grid.dim)
        super().__init__(
            grid, species, scaling.eta, scaling.p,
            transport_tensor=identity, poisson_tensor=eps ** alpha * identity,
            drift_scale=eps ** beta, volumetric_charge=np.zeros(grid.n_fluid),
            facet_charges=charges, energy_prefactor=eps ** (alpha + beta),
            grad_scale=eps ** alpha, poisson_tol=poisson_tol, explicit_time=explicit_time,
        )


def run_micro(grid: MaskedGrid, scaling: ScalingSpec, species, charges: FacetCharges,
              dt_init: float, cfl_fraction: float = 0.5, output_interval=None,
              snapshot_times=(), poisson_tol: float = 1e-11,
              explicit_time: bool = False, source=None) -> RunResult:
    """Integrate the microscopic system to scaling.final_time."""
    sim = MicroSimulation(grid, scaling, species, charges,
                          poisson_tol=poisson_tol, explicit_time=explicit_time)
    return sim.run(scaling.final_time, dt_init, cfl_fraction=cfl_fraction,
                   output_interval=output_interval, snapshot_times=snapshot_times,
                   source=source)
