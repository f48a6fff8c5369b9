"""Microscopic coupled drift-diffusion solver on the perforated domain.

Transport of P charged species with nonlinear diffusion h_p(r) = r + eta r^p
and drift eps^beta D_i z_i c_i grad(phi), coupled to the eps^alpha-scaled
pure-Neumann Poisson problem with zero-mean potential.  Species fluxes vanish
on the hole boundary and the outer boundary (no-flux); the potential sees the
sampled surface charges there instead.  Those charges are a
``geometry.FacetCharges`` with no volumetric part; their compatibility check
and balancing are the ones the macro model uses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import FacetCharges, MaskedGrid
from .transport import RunResult, TransportSim

__all__ = ["ScalingSpec", "SpeciesSpec", "MicroSimulation", "run_micro"]


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


class MicroSimulation(TransportSim):
    """The microscopic system as engine data: identity transport tensor,
    permittivity eps^alpha, mobility eps^beta, the sampled facet charges."""

    def __init__(self, grid: MaskedGrid, scaling: ScalingSpec, species,
                 charges: FacetCharges):
        eps, alpha, beta = scaling.epsilon, scaling.alpha, scaling.beta
        identity = np.eye(grid.dim)
        super().__init__(
            grid, species, scaling.eta, scaling.p, transport_tensor=identity,
            poisson_tensor=eps ** alpha * identity, drift_scale=eps ** beta, charges=charges,
            grad_scale=eps ** alpha)


def run_micro(grid: MaskedGrid, scaling: ScalingSpec, species, charges: FacetCharges,
              dt_init: float, output_interval=None, snapshot_times=(),
              source=None) -> RunResult:
    """Integrate the microscopic system to scaling.final_time."""
    sim = MicroSimulation(grid, scaling, species, charges)
    return sim.run(scaling.final_time, dt_init, output_interval=output_interval,
                   snapshot_times=snapshot_times, source=source)
