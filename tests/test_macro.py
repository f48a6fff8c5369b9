import numpy as np
import pytest

from porodrift import (
    FacetCharges,
    InclusionShape,
    MacroSimulation,
    SpeciesSpec,
    build_cell_geometry,
    build_macro_source,
    build_masked_grid,
    compute_effective_tensor,
    reconstruct_corrector_potential,
    run_macro,
    run_micro,
)
from porodrift.linalg import ZeroMeanDirect, face_laplacian
from porodrift.macro import cell_centered_gradients, sample_macro_field
from porodrift.transport import poisson_matrix

from conftest import hole_free_grid, make_scaling, smooth_c0, zero_charges


def _zero_source(grid):
    return FacetCharges(np.empty(0), np.zeros(grid.outer_cell.size),
                        volumetric=np.zeros(grid.n_fluid))


# -- macro source -----------------------------------------------------------------


def test_macro_source_zero_interface_charge(disk_cell_8):
    grid = hole_free_grid(16)
    source = build_macro_source(disk_cell_8, grid,
                                lambda x, y: np.zeros(x.shape[0]),
                                lambda x: np.zeros(x.shape[0]))
    np.testing.assert_array_equal(source.volumetric, 0.0)
    np.testing.assert_array_equal(source.outer_values, 0.0)


def test_macro_source_constant_interface_charge(disk_cell_8):
    grid = hole_free_grid(16)
    source = build_macro_source(disk_cell_8, grid,
                                lambda x, y: np.ones(x.shape[0]),
                                lambda x: np.zeros(x.shape[0]))
    expected = disk_cell_8.gamma_area_total / disk_cell_8.porosity
    np.testing.assert_allclose(source.volumetric, expected, rtol=1e-13)


def test_macro_source_separable(disk_cell_8):
    grid = hole_free_grid(8)

    def xi1(x, y):
        return x[:, 0] * np.cos(2 * np.pi * y[:, 1])

    source = build_macro_source(disk_cell_8, grid, xi1, lambda x: np.zeros(x.shape[0]))
    q_total = float(np.sum(np.cos(2 * np.pi * disk_cell_8.gamma_center[:, 1]))
                    * disk_cell_8.facet_area)
    expected = grid.centers[:, 0] * q_total / disk_cell_8.porosity
    np.testing.assert_allclose(source.volumetric, expected, atol=1e-14)


def test_staircase_perimeter_tends_to_l1_limit():
    # the staircase interface measure converges to the l1 perimeter 8r = 2.0,
    # not the smooth perimeter 2 pi r; both facts are pinned here
    lengths = {}
    for res in (64, 256):
        cell = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5),
                                                  radius=0.25), res)
        lengths[res] = cell.gamma_area_total
    assert abs(lengths[256] - 2.0) <= abs(lengths[64] - 2.0) + 1e-12
    assert abs(lengths[256] - 2.0) / 2.0 < 0.1
    assert abs(lengths[256] - 2 * np.pi * 0.25) / (2 * np.pi * 0.25) > 0.2


# -- Poisson with tensor -------------------------------------------------------------


def test_identity_tensor_matches_micro_poisson():
    # the identity tensor reduces to the micro model's two-point face Laplacian
    grid = hole_free_grid(32)
    charge = smooth_c0(grid.centers)
    rhs = (charge - charge.mean()) * grid.cell_volume
    two_point = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi,
                               grid.facet_area / grid.h)
    phi_two_point = ZeroMeanDirect(two_point).solve(rhs, tol=1e-12)
    phi_tensor = ZeroMeanDirect(poisson_matrix(grid, np.eye(2))).solve(rhs, tol=1e-12)
    np.testing.assert_allclose(phi_tensor, phi_two_point, atol=1e-10)


def test_isotropic_tensor_scales_solution():
    grid = hole_free_grid(32)
    charge = smooth_c0(grid.centers)
    rhs = (charge - charge.mean()) * grid.cell_volume
    a = 0.37
    phi_a = ZeroMeanDirect(poisson_matrix(grid, a * np.eye(2))).solve(rhs, tol=1e-12)
    phi_1 = ZeroMeanDirect(poisson_matrix(grid, np.eye(2))).solve(rhs, tol=1e-12)
    np.testing.assert_allclose(phi_a, phi_1 / a, atol=1e-9)


def test_simulations_are_engine_data():
    # micro and macro differ only in the data they hand the shared engine
    from porodrift import MicroSimulation
    for cls in (MicroSimulation, MacroSimulation):
        assert [name for name, value in vars(cls).items() if callable(value)] == ["__init__"]


def test_tensor_must_be_symmetric():
    grid = hole_free_grid(8)
    spec = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    bad = np.array([[1.0, 0.2], [-0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MacroSimulation(grid, bad, spec, _zero_source(grid), eta=1.0, p=4.0)


# -- stepping ---------------------------------------------------------------------


def test_decoupled_concentrations_invariant_under_charge_data():
    grid = hole_free_grid(16)
    source_a = _zero_source(grid)
    source_b = FacetCharges(np.empty(0), np.full(grid.outer_cell.size, -0.3 * 1.0 / 4.0),
                            volumetric=np.full(grid.n_fluid, 0.3))
    species_a = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    species_b = [SpeciesSpec("p", 1.0, 2, smooth_c0), SpeciesSpec("m", 0.5, -2, smooth_c0)]
    r1 = run_macro(grid, np.eye(2), species_a, source_a, 1.0, 4.0, 0.02, 1e-3,
                   mode="decoupled")
    r2 = run_macro(grid, np.eye(2), species_b, source_b, 1.0, 4.0, 0.02, 1e-3,
                   mode="decoupled")
    np.testing.assert_array_equal(r1.state.conc, r2.state.conc)


def test_decoupled_equals_pure_diffusion_bitwise():
    grid = hole_free_grid(16)
    charged = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 1.0, -1, smooth_c0)]
    neutral = [SpeciesSpec("p", 1.0, 0, smooth_c0), SpeciesSpec("m", 1.0, 0, smooth_c0)]
    r1 = run_macro(grid, np.eye(2), charged, _zero_source(grid), 1.0, 4.0, 0.02, 1e-3,
                   mode="decoupled")
    r2 = run_macro(grid, np.eye(2), neutral, _zero_source(grid), 1.0, 4.0, 0.02, 1e-3,
                   mode="coupled")
    np.testing.assert_array_equal(r1.state.conc, r2.state.conc)


def test_coupled_identity_matches_micro_hole_free():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.02)
    micro = run_micro(grid, scaling, species, zero_charges(grid), dt_init=1e-3)
    macro = run_macro(grid, np.eye(2), species, _zero_source(grid), 1.0, 4.0, 0.02,
                      1e-3, mode="coupled")
    np.testing.assert_array_equal(micro.state.conc, macro.state.conc)


def test_coupled_symmetric_species_identical():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 1.0, -1, smooth_c0)]
    result = run_macro(grid, np.eye(2), species, _zero_source(grid), 1.0, 4.0, 0.02,
                       1e-3, mode="coupled")
    np.testing.assert_array_equal(result.state.conc[0], result.state.conc[1])
    np.testing.assert_array_equal(result.state.phi, 0.0)


def test_constant_state_is_steady():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 1, lambda x: np.full(x.shape[0], 2.0)),
               SpeciesSpec("m", 0.5, -1, lambda x: np.full(x.shape[0], 2.0))]
    result = run_macro(grid, np.array([[0.8, 0.05], [0.05, 0.9]]), species,
                       _zero_source(grid), 1.0, 4.0, 0.02, 1e-3, mode="coupled")
    np.testing.assert_allclose(result.state.conc, 2.0, atol=1e-12)
    assert result.summary["max_mass_drift_rel"] <= 1e-12


def test_full_tensor_mass_conservation():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    tensor = np.array([[1.0, 0.1], [0.1, 0.7]])
    result = run_macro(grid, tensor, species, _zero_source(grid), 1.0, 4.0, 0.02, 1e-3)
    assert result.summary["max_mass_drift_rel"] <= 1e-12
    assert result.summary["min_c"] >= -1e-12


# -- sampling -------------------------------------------------------------------


def _hole_free(dim, resolution):
    cell = build_cell_geometry(InclusionShape("none", center=(0.5,) * dim), resolution)
    return build_masked_grid(cell, 1)


@pytest.mark.parametrize("dim,resolution", [(2, 8), (3, 6)])
def test_sampler_reproduces_affine_fields(dim, resolution):
    grid = _hole_free(dim, resolution)
    slope = np.array([0.7, -1.3, 2.1])[:dim]

    def affine(x):
        return 0.4 + x @ slope

    rng = np.random.default_rng(dim)
    h = grid.h
    interior = rng.uniform(0.5 * h, 1.0 - 0.5 * h, size=(200, dim))
    # the half-cell rim outside the cell-center hull, corners included
    rim = rng.uniform(0.0, 1.0, size=(200, dim))
    axes = rng.integers(0, dim, size=200)
    rim[np.arange(200), axes] = rng.choice([0.0, 0.2 * h, 0.5 * h, 1.0 - 0.3 * h, 1.0], 200)
    rim = np.vstack([rim, np.zeros(dim), np.ones(dim)])
    for points in (interior, grid.centers, rim):
        np.testing.assert_allclose(sample_macro_field(grid, affine(grid.centers), points),
                                   affine(points), rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim,resolution", [(2, 8), (3, 6)])
def test_sampler_matches_scipy_linear_interpolation(dim, resolution):
    from scipy.interpolate import RegularGridInterpolator

    grid = _hole_free(dim, resolution)
    rng = np.random.default_rng(10 + dim)
    values = rng.standard_normal(grid.n_fluid)
    points = np.vstack([rng.uniform(0.0, 1.0, size=(500, dim)), grid.centers,
                        np.zeros(dim), np.ones(dim)])
    axis = (np.arange(resolution) + 0.5) * grid.h
    oracle = RegularGridInterpolator((axis,) * dim, values.reshape((resolution,) * dim),
                                     method="linear", bounds_error=False, fill_value=None)
    expected = oracle(points)
    sampled = sample_macro_field(grid, values, points)
    assert np.max(np.abs(sampled - expected)) <= 1e-14 * np.max(np.abs(expected))


# -- corrector reconstruction -----------------------------------------------------


def test_reconstruction_without_inclusion_is_interpolation():
    macro_grid = hole_free_grid(16)
    cell = build_cell_geometry(InclusionShape("none"), 8)
    micro_grid = build_masked_grid(cell, 2)
    tensor = compute_effective_tensor(cell)
    phi0 = np.cos(np.pi * macro_grid.centers[:, 0])
    rec = reconstruct_corrector_potential(macro_grid, phi0, tensor.correctors, micro_grid)
    expected = sample_macro_field(macro_grid, phi0, micro_grid.centers)
    np.testing.assert_allclose(rec, expected, atol=1e-14)


def test_reconstruction_linear_macro_field(disk_cell_8):
    micro_grid = build_masked_grid(disk_cell_8, 4)
    macro_grid = hole_free_grid(32)
    tensor = compute_effective_tensor(disk_cell_8, tol=1e-12)
    phi0 = macro_grid.centers[:, 0].copy()
    rec = reconstruct_corrector_potential(macro_grid, phi0, tensor.correctors, micro_grid)
    ids = micro_grid.unit_cell_ids()
    expected = micro_grid.centers[:, 0] + micro_grid.eps * tensor.correctors[0].values[ids]
    np.testing.assert_allclose(rec, expected, atol=1e-12)


def test_cell_centered_gradients_exact_for_linear_fields():
    grid = hole_free_grid(16)
    values = 2.0 * grid.centers[:, 0] - 3.0 * grid.centers[:, 1]
    grads = cell_centered_gradients(grid, values)
    np.testing.assert_allclose(grads[0], 2.0, atol=1e-12)
    np.testing.assert_allclose(grads[1], -3.0, atol=1e-12)


def test_three_dimensional_macro_run():
    cell = build_cell_geometry(InclusionShape("none", center=(0.5, 0.5, 0.5)), 6)
    grid = build_masked_grid(cell, 1)

    def c0(x):
        return 1.0 + 0.25 * np.cos(np.pi * x[:, 1])

    species = [SpeciesSpec("p", 1.0, 1, c0), SpeciesSpec("m", 0.5, -1, c0)]
    tensor = np.diag([0.9, 0.8, 0.7])
    result = run_macro(grid, tensor, species, _zero_source(grid), 1.0, 4.0, 0.01,
                       2e-3, mode="coupled")
    assert result.summary["max_mass_drift_rel"] <= 1e-12
    assert result.summary["min_c"] >= -1e-12
    # gradients along x2 diffuse with coefficient 0.8; the state must evolve
    assert np.max(np.abs(result.state.conc[0] - c0(grid.centers))) > 1e-6
