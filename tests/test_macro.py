import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import porodrift.linalg as linalg
from porodrift import (
    FacetCharges,
    InclusionShape,
    MacroSimulation,
    MicroSimulation,
    SolverError,
    SpeciesSpec,
    TimeStepError,
    build_cell_geometry,
    build_macro_source,
    build_masked_grid,
    compute_effective_tensor,
    reconstruct_corrector_potential,
    run_macro,
    run_micro,
)
from porodrift.diagnostics import psi_eval
from porodrift.geometry import balance_outer_charges
from porodrift.linalg import DIVERGENCE_FACTOR, ZeroMeanDirect, face_laplacian
from porodrift.macro import sample_macro_field
from porodrift.transport import cross_operator, poisson_matrix

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


def test_identity_tensor_matches_micro_poisson(monkeypatch):
    # the identity tensor reduces to the micro model's two-point face Laplacian
    monkeypatch.setattr(linalg, "POISSON_TOL", 1e-12)
    grid = hole_free_grid(32)
    charge = smooth_c0(grid.centers)
    rhs = (charge - charge.mean()) * grid.cell_volume
    two_point = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi,
                               grid.facet_area / grid.h)
    phi_two_point = ZeroMeanDirect(two_point).solve(rhs)
    phi_tensor = ZeroMeanDirect(poisson_matrix(grid, np.eye(2))).solve(rhs)
    np.testing.assert_allclose(phi_tensor, phi_two_point, atol=1e-10)


def test_isotropic_tensor_scales_solution(monkeypatch):
    monkeypatch.setattr(linalg, "POISSON_TOL", 1e-12)
    grid = hole_free_grid(32)
    charge = smooth_c0(grid.centers)
    rhs = (charge - charge.mean()) * grid.cell_volume
    a = 0.37
    phi_a = ZeroMeanDirect(poisson_matrix(grid, a * np.eye(2))).solve(rhs)
    phi_1 = ZeroMeanDirect(poisson_matrix(grid, np.eye(2))).solve(rhs)
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
    # a symmetric transport tensor must also satisfy 0 <= A <= 2 diag(A): in 2-D A >= 0,
    # in 3-D with unit diagonal and every a_kl = a, a <= 0.5
    for domain, tensor in ((grid, [[1.0, 0.95], [0.95, 0.8]]),
                           (_hole_free(3, 4), np.full((3, 3), 0.55) + 0.45 * np.eye(3))):
        with pytest.raises(ValueError, match=r"violates 0 <= A <= 2 diag\(A\)"):
            MacroSimulation(domain, np.array(tensor), spec, _zero_source(domain), eta=1.0, p=4.0)


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


def test_transport_cg_stops_at_a_guess_it_cannot_correct():
    # eta 5e149 gives face coefficients near 3e154: the guess's residual is 1.6e148 times
    # that of 0, far past the divergence bound; without it CG ran 2,262 iterations
    grid = hole_free_grid(64)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    with pytest.raises(SolverError, match="implicit transport solve: CG stopped after 0 "
                                          "iterations") as failure:
        run_macro(grid, np.eye(2), species, _zero_source(grid), 5e149, 4.0, 1e-3, 1e-3)
    assert failure.value.iterations == 0
    assert failure.value.residual > DIVERGENCE_FACTOR


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


def _translated_disk_a_hom():
    # off the cell centre the staircase disk gives A_hom an off-diagonal entry of -0.0073
    cell = build_cell_geometry(InclusionShape("disk", center=(0.4, 0.55), radius=0.25), 16)
    return compute_effective_tensor(cell).a_hom


@pytest.mark.parametrize("tensor", [
    lambda: [[1.0, 0.1], [0.1, 0.7]],
    lambda: [[1.0, 0.45], [0.45, 0.8]],
    lambda: [[1.0, 0.85], [0.85, 0.8]],
    _translated_disk_a_hom,
], ids=["a0.1", "a0.45", "a0.85", "translated-disk"])
def test_full_tensor_mass_conservation(tensor):
    # without drift (z = 0) nothing limits dt: the cross terms take the step dt_init
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    result = run_macro(grid, np.array(tensor()), species, _zero_source(grid), 1.0, 4.0, 0.02,
                       1e-3)
    assert result.summary["steps"] == round(0.02 / 1e-3)
    assert result.summary["max_mass_drift_rel"] <= 1e-12
    assert result.summary["min_c"] >= -1e-12
    assert result.summary["max_energy_increase_rel"] <= 1e-8


def _rough_c0(x):
    return 1.0 + np.random.default_rng(0).uniform(-0.9, 0.9, x.shape[0])


def test_nearly_degenerate_tensor_fails_typed_naming_the_cross_term():
    # inside the condition (det 0.0079) but nearly singular: on rough data no halving
    # restores nonnegativity, with or without a dt bound from the cross term
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, _rough_c0)]
    tensor = np.array([[1.0, 0.89], [0.89, 0.8]])
    with pytest.raises(TimeStepError, match="largest off-diagonal entry of the transport "
                                            "tensor in magnitude 8.900e-01"):
        run_macro(grid, tensor, species, _zero_source(grid), 1.0, 4.0, 0.02, 1e-3)


def _step_matrix(grid, tensor, dt):
    """(I - dt L_diag)^-1 (I + dt L_cross) of the constant-coefficient transport, dense."""
    diag = poisson_matrix(grid, np.diag(np.diag(tensor))).toarray() / grid.cell_volume
    cross = poisson_matrix(grid, tensor).toarray() / grid.cell_volume - diag
    eye = np.eye(grid.n_fluid)
    return np.linalg.solve(eye + dt * diag, eye - dt * cross)


@pytest.mark.parametrize("dim,a,inside", [
    (2, 0.45, True), (2, np.sqrt(0.8), True), (3, 0.5, True), (3, 0.55, False),
], ids=["2d-0.45", "2d-singular", "3d-0.5", "3d-0.55"])
def test_cross_terms_are_stable_at_every_dt_exactly_inside_the_tensor_condition(dim, a, inside):
    # 2-D [[1, a], [a, 0.8]] meets 0 <= A <= 2 diag(A) up to a = sqrt(0.8), where A turns
    # singular; 3-D unit diagonal with every a_kl = a up to a = 0.5, where 1 + 2a reaches 2
    grid = _hole_free(dim, 16 if dim == 2 else 8)
    tensor = (np.array([[1.0, a], [a, 0.8]]) if dim == 2
              else np.full((3, 3), a) + (1.0 - a) * np.eye(3))
    step = _step_matrix(grid, tensor, dt=1.0)
    radius = np.max(np.abs(np.linalg.eigvals(step)))
    if not inside:
        assert radius > 1.05
        return
    assert radius <= 1.0 + 1e-10
    # the matrix is the engine's step: linear diffusion (eta = 0), no drift
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    sim = MacroSimulation(grid, tensor, species, _zero_source(grid), eta=0.0, p=4.0)
    state = sim.initial_state()
    np.testing.assert_allclose(sim.step(state, 1.0).conc[0], step @ state.conc[0],
                               rtol=0.0, atol=1e-8)


def _energy_decay_run(tensor, mode="coupled"):
    """8^2 macro run of a neutral and a charged species, c0 = 1, outer charge balanced."""
    grid = hole_free_grid(8)
    species = [SpeciesSpec("n", 1.0, 0, lambda x: np.ones(x.shape[0])),
               SpeciesSpec("c", 1.0, 1, lambda x: np.ones(x.shape[0]))]
    sources, _ = balance_outer_charges(grid, species, _zero_source(grid))
    return grid, run_macro(grid, np.asarray(tensor), species, sources, 2.0, 2.0, 0.005, 1e-3,
                           mode=mode)


@pytest.mark.parametrize("tensor", [1.5 * np.eye(2), np.diag([1.5, 0.6])],
                         ids=["isotropic-1.5", "diag-1.5-0.6"])
def test_coupled_energy_decays_with_the_tensor_field_term(tensor):
    # the energy's field term is (1/2) phi . P_A phi; with the two-point |grad phi|^2 the
    # isotropic case rose by 1.0007e-8 of the initial energy
    grid, result = _energy_decay_run(tensor)
    assert result.summary["steps"] == 5
    assert result.summary["max_energy_increase_rel"] <= 1e-8
    phi = result.state.phi
    field = 0.5 * phi @ (poisson_matrix(grid, tensor) @ phi)
    entropy = np.sum(psi_eval(result.state.conc, 2.0, 2.0)) * grid.cell_volume
    assert field > 0.0
    assert result.record.column("energy")[-1] == pytest.approx(field + entropy, rel=1e-13)


def test_decoupled_energy_is_the_entropy_sum():
    # decoupled transport never sees phi, so its energy has no field term
    grid, result = _energy_decay_run(np.diag([1.5, 0.6]), mode="decoupled")
    assert np.any(result.state.phi != 0.0)
    # Psi(1) = eta / (p - 1) = 2 per species on the unit square
    assert result.summary["energy_initial"] == 4.0
    entropy = sum(np.sum(psi_eval(c, 2.0, 2.0)) * grid.cell_volume for c in result.state.conc)
    assert result.record.column("energy")[-1] == entropy
    assert result.summary["max_energy_increase_rel"] == 0.0


@settings(max_examples=25, deadline=None, database=None)
@given(resolution=st.integers(8, 16),
       diagonal=st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5)),
       rho=st.floats(-0.99, 0.99),
       diffusivities=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
       charges=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       eta=st.floats(0.0, 2.0), p=st.floats(1.5, 5.0),
       modes=st.tuples(*[st.tuples(st.floats(0.0, 0.9), st.integers(1, 2),
                                   st.integers(0, 2))] * 2))
def test_coupled_full_tensor_runs_keep_the_invariants(resolution, diagonal, rho, diffusivities,
                                                      charges, eta, p, modes):
    # A = [[d1, a], [a, d2]] with a = rho sqrt(d1 d2) meets 0 <= A <= 2 diag(A) for |rho| <= 1
    off = rho * np.sqrt(diagonal[0] * diagonal[1])
    tensor = np.array([[diagonal[0], off], [off, diagonal[1]]])

    def c0(amplitude, k1, k2):
        return lambda x: 1.0 + amplitude * np.cos(k1 * np.pi * x[:, 0]) * np.cos(
            k2 * np.pi * x[:, 1])

    grid = hole_free_grid(resolution)
    species = [SpeciesSpec(f"s{i}", d, z, c0(*mode))
               for i, (d, z, mode) in enumerate(zip(diffusivities, charges, modes))]
    sources, _ = balance_outer_charges(grid, species, _zero_source(grid))
    summary = MacroSimulation(grid, tensor, species, sources, eta, p).run(0.005, 1e-3).summary
    assert summary["max_mass_drift_rel"] <= 1e-12
    assert summary["max_compat_residual"] <= 1e-10
    assert summary["min_c"] >= -1e-12
    # the condition is exact for constant coefficients; nearer the singular end, the face
    # coefficient h_p' varying between cells lets the energy of nonlinear runs rise
    if abs(rho) <= 0.8:
        assert summary["max_energy_increase_rel"] <= 1e-8


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
    tensor = compute_effective_tensor(disk_cell_8)
    phi0 = macro_grid.centers[:, 0].copy()
    rec = reconstruct_corrector_potential(macro_grid, phi0, tensor.correctors, micro_grid)
    ids = micro_grid.unit_cell_ids()
    expected = micro_grid.centers[:, 0] + micro_grid.eps * tensor.correctors[0].values[ids]
    np.testing.assert_allclose(rec, expected, atol=1e-12)


@pytest.mark.parametrize("slope, tensor", [
    ((2.0, -3.0), [[1.0, 0.3], [0.3, 0.7]]),
    ((2.0, -3.0, 0.5), [[1.0, 0.3, -0.2], [0.3, 0.7, 0.1], [-0.2, 0.1, 0.9]]),
], ids=["2d", "3d"])
def test_cross_operator_exact_for_linear_fields(slope, tensor):
    dim = len(slope)
    cell = build_cell_geometry(InclusionShape("none", center=(0.5,) * dim), 16 if dim == 2 else 6)
    grid = build_masked_grid(cell, 1)
    slope, tensor = np.array(slope), np.array(tensor)
    # the tangential part of (T grad u) . n on every face: sum over t != axis of T[axis, t] a_t
    off_diagonal = tensor - np.diag(np.diag(tensor))
    expected = (off_diagonal @ slope)[grid.face_axis]
    np.testing.assert_allclose(cross_operator(grid, tensor) @ (grid.centers @ slope), expected,
                               rtol=0.0, atol=1e-12)
    assert cross_operator(grid, np.diag(np.diag(tensor))) is None


ANISOTROPIC = np.diag([1.0, 0.6])


def _anisotropic_simulations(disk_cell_8):
    """A micro simulation on the m = 2 disk grid and a macro one with ``ANISOTROPIC``."""
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    micro_grid, macro_grid = build_masked_grid(disk_cell_8, 2), hole_free_grid(16)
    return [MicroSimulation(micro_grid, make_scaling(micro_grid.eps), species,
                            zero_charges(micro_grid)),
            MacroSimulation(macro_grid, ANISOTROPIC, species, _zero_source(macro_grid),
                            eta=1.0, p=4.0)]


def _held_float_sizes(value):
    """Sizes of the float arrays in ``value``: itself, a sparse matrix's data, a tuple's items."""
    if isinstance(value, tuple):
        return [size for item in value for size in _held_float_sizes(item)]
    if sparse.issparse(value):
        value = value.data
    return [value.size] if isinstance(value, np.ndarray) and value.dtype.kind == "f" else []


def test_simulations_hold_no_face_sized_float_array(disk_cell_8):
    # the tensor's diagonal, D_i A_kk and the Poisson coefficient are kept per axis, and the
    # Poisson solver keeps no red-black block, which has one entry per face
    for sim in _anisotropic_simulations(disk_cell_8):
        n_faces, n_species, n_cells = sim.grid.face_lo.size, len(sim.species), sim.grid.n_fluid
        face_sizes = {n_faces, n_species * n_faces}
        assert face_sizes.isdisjoint({n_cells, n_species * n_cells})
        sizes = [value.size for value in vars(sim).values()
                 if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
        sizes += [size for value in vars(sim._poisson).values()
                  for size in _held_float_sizes(value)]
        assert n_cells in sizes
        assert face_sizes.isdisjoint(sizes)


def test_per_axis_constants_give_the_per_face_formulas_bitwise(disk_cell_8):
    # every benchmark workload is isotropic: here each axis has its own entry
    sim = _anisotropic_simulations(disk_cell_8)[1]
    grid = sim.grid
    lo, hi, axis = grid.face_lo, grid.face_hi, grid.face_axis
    assert set(axis.tolist()) == {0, 1}
    u = np.random.default_rng(8).uniform(-1.0, 1.0, grid.n_fluid)
    assert np.array_equal(sim._normal_gradient_faces(u),
                          ANISOTROPIC[axis, axis] * (u[hi] - u[lo]) / grid.h)
    kappa = ANISOTROPIC[axis, axis] * grid.facet_area / grid.h
    assert sim._poisson.energy(u) == float(np.sum(kappa * (u[hi] - u[lo]) ** 2)) / 2


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
