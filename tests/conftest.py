import numpy as np
import pytest
from hypothesis import settings

from porodrift import (
    InclusionShape,
    ScalingSpec,
    SpeciesSpec,
    build_cell_geometry,
    build_masked_grid,
    surface_charge_on_facets,
)

# The property tests draw the same examples on every run: a failure replays without a stored
# example database.  ``pytest --hypothesis-profile=random`` draws fresh examples instead.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("reproducible")


def zero_xi1(x, y):
    return np.zeros(x.shape[0])


def zero_xi2(x):
    return np.zeros(x.shape[0])


def constant_xi1(value):
    def xi1(x, y):
        return np.full(x.shape[0], value)
    return xi1


def constant_xi2(value):
    def xi2(x):
        return np.full(x.shape[0], value)
    return xi2


def smooth_c0(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])


def hole_free_grid(resolution, m=1):
    cell = build_cell_geometry(InclusionShape("none"), resolution)
    return build_masked_grid(cell, m)


def zero_charges(grid):
    return surface_charge_on_facets(grid, zero_xi1, zero_xi2)


@pytest.fixture(scope="session")
def disk_cell_8():
    return build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5), radius=0.25), 8)


@pytest.fixture(scope="session")
def disk_cell_64():
    return build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5), radius=0.25), 64)


@pytest.fixture(scope="session")
def canonical_species():
    return [
        SpeciesSpec("cation", 1.0, 1, smooth_c0),
        SpeciesSpec("anion", 0.5, -1, smooth_c0),
    ]


def make_scaling(eps, alpha=0.0, beta=0.0, eta=1.0, p=4.0, T=0.1):
    return ScalingSpec(epsilon=eps, alpha=alpha, beta=beta, eta=eta, p=p, final_time=T)
