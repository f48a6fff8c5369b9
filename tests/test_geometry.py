from dataclasses import replace

import numpy as np
import pytest

from porodrift import (
    GeometryError,
    InclusionShape,
    SpeciesSpec,
    balance_outer_charges,
    build_cell_geometry,
    build_macro_source,
    build_masked_grid,
    surface_charge_on_facets,
    validate_compatibility,
)
from porodrift.geometry import _check_connected, _grid_points
from porodrift.transport import TransportSim

from conftest import constant_xi1, constant_xi2, zero_xi1, zero_xi2


# -- unit cell ----------------------------------------------------------------


def test_no_inclusion_is_all_fluid():
    cell = build_cell_geometry(InclusionShape("none"), 32)
    assert cell.porosity == 1.0
    assert cell.n_fluid == 32 * 32
    assert cell.gamma_cell.size == 0


def test_disk_porosity_matches_analytic_area():
    cell = build_cell_geometry(
        InclusionShape("disk", center=(0.5, 0.5), radius=0.25), 256)
    assert abs(cell.porosity - (1.0 - np.pi * 0.25 ** 2)) < 0.01


def test_margin_violation_rejected():
    with pytest.raises(GeometryError, match="margin"):
        build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5), radius=0.49), 32)


def test_resolution_floor():
    with pytest.raises(GeometryError, match="resolution"):
        build_cell_geometry(InclusionShape("none"), 3)


def test_square_inclusion_four_fold_symmetric():
    cell = build_cell_geometry(
        InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 32)
    mask = cell.fluid_mask
    np.testing.assert_array_equal(mask, mask.T)
    np.testing.assert_array_equal(mask, mask[::-1, :])


def test_super_ellipse_between_disk_and_square():
    disk = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5), radius=0.25), 64)
    box = build_cell_geometry(
        InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 64)
    soft = build_cell_geometry(
        InclusionShape("super_ellipse", center=(0.5, 0.5), semi_axes=(0.25, 0.25),
                       exponent=4.0), 64)
    assert box.porosity < soft.porosity < disk.porosity


@pytest.mark.parametrize("exponent", [0.0, -2.0, float("nan")])
def test_super_ellipse_exponent_must_be_positive(exponent):
    with pytest.raises(GeometryError, match="super_ellipse exponent must be positive"):
        InclusionShape("super_ellipse", center=(0.5, 0.5), semi_axes=(0.25, 0.25),
                       exponent=exponent)


@pytest.mark.parametrize("shape", [
    InclusionShape("super_ellipse", center=(0.5, 0.5), semi_axes=(0.25, 0.25), exponent=0.5),
    InclusionShape("disk", center=(0.5, 0.5), radius=0.05),
    InclusionShape("square", center=(0.5, 0.5, 0.5), half_width=0.06),
], ids=["super-ellipse-q-0.5", "small-disk", "small-cube"])
def test_inclusion_covering_no_cell_center_is_rejected(shape):
    # at r = 8 the cell centers nearest the middle lie 1/16 from it on every axis
    with pytest.raises(GeometryError, match="inclusion covers no cell center at r = 8"):
        build_cell_geometry(shape, 8)
    # one level finer, the same inclusion covers the centers next to the middle
    assert build_cell_geometry(shape, 32).porosity < 1.0


def test_huge_super_ellipse_exponent_is_the_square():
    # every term (|x_i - c_i| / a_i)^q with q = 1e308 underflows to 0 inside the box and
    # overflows to inf outside it, without a warning (warnings are errors here)
    box = build_cell_geometry(InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 16)
    huge = build_cell_geometry(InclusionShape("super_ellipse", center=(0.5, 0.5),
                                              semi_axes=(0.25, 0.25), exponent=1e308), 16)
    np.testing.assert_array_equal(huge.fluid_mask, box.fluid_mask)


def test_disconnected_fluid_detected():
    # two fluid components joined by no face
    face_lo = np.array([0, 2], dtype=np.int64)
    face_hi = np.array([1, 3], dtype=np.int64)
    with pytest.raises(GeometryError, match="disconnected"):
        _check_connected(4, face_lo, face_hi)


def test_periodic_face_count_full_cell():
    cell = build_cell_geometry(InclusionShape("none"), 16)
    # on the torus every cell owns one face per axis
    assert cell.face_lo.size == 2 * 16 * 16


# -- masked grid ---------------------------------------------------------------


def test_hole_free_grid_counts():
    cell = build_cell_geometry(InclusionShape("none"), 8)
    grid = build_masked_grid(cell, 4)
    assert grid.n_fluid == 1024
    assert grid.gamma_cell.size == 0
    assert grid.outer_cell.size == 128
    assert _solid_solid_faces(grid) == 0


def test_gamma_area_doubles_with_m(disk_cell_8):
    g2 = build_masked_grid(disk_cell_8, 2)
    g4 = build_masked_grid(disk_cell_8, 4)
    ratio = g4.gamma_area_total / g2.gamma_area_total
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_gamma_scaling_identity(disk_cell_8):
    # area(Gamma_eps) = m^n eps^(n-1) * per-cell staircase area, exact on aligned grids
    for m in (1, 2, 4):
        grid = build_masked_grid(disk_cell_8, m)
        eps = 1.0 / m
        expected = m ** 2 * eps * disk_cell_8.gamma_area_total
        assert grid.gamma_area_total == pytest.approx(expected, rel=1e-13)


def test_single_cell_grid_matches_cell_staircase(disk_cell_8):
    # the inclusion is interior, so no fluid-solid facet wraps around the cell
    grid = build_masked_grid(disk_cell_8, 1)
    for name in ("fluid_mask", "centers", "gamma_cell", "gamma_center"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(disk_cell_8, name),
                                      err_msg=name)
    # both number their fluid cells alike: each is its own image in the unit cell
    np.testing.assert_array_equal(grid.unit_cell_ids(), np.arange(grid.n_fluid))
    assert grid.porosity == disk_cell_8.porosity


def test_mask_periodicity(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    mask = grid.fluid_mask
    for bi in range(4):
        for bj in range(4):
            block = mask[bi * 8:(bi + 1) * 8, bj * 8:(bj + 1) * 8]
            np.testing.assert_array_equal(block, disk_cell_8.fluid_mask)


def test_volume_consistency(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    solid_per_cell = disk_cell_8.fluid_mask.size - disk_cell_8.n_fluid
    expected = 1.0 - 4 ** 2 * solid_per_cell * grid.cell_volume
    assert grid.n_fluid * grid.cell_volume == pytest.approx(expected, abs=1e-15)


def _solid_solid_faces(grid):
    """Faces between two solid cells, counted from the mask; the unit cell wraps around."""
    count = 0
    for axis in range(grid.dim):
        solid = np.moveaxis(~grid.fluid_mask, axis, 0)
        if grid.cell is None:
            solid = np.concatenate([solid, solid[:1]])
        count += int(np.count_nonzero(solid[:-1] & solid[1:]))
    return count


def _interior_faces(grid):
    return grid.face_lo.size + grid.gamma_cell.size + _solid_solid_faces(grid)


def test_facet_partition_complete(disk_cell_8):
    # the periodic unit cell: every cell owns one face per axis, none is outer
    cell = build_cell_geometry(InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 8)
    assert _solid_solid_faces(cell) > 0
    assert _interior_faces(cell) == 2 * 8 ** 2
    assert cell.outer_cell.size == 0
    assert cell.outer_center.shape == (0, 2)

    for grid in (build_masked_grid(disk_cell_8, 2), build_masked_grid(_ball_cell(3), 2)):
        n, dim = grid.n_cells_per_edge, grid.dim
        side = n ** (dim - 1)
        assert _interior_faces(grid) == dim * side * (n - 1)
        assert grid.outer_cell.size == 2 * dim * side
        # outer facets come axis by axis, the x = 0 side before the x = 1 side
        axes = np.repeat(np.arange(dim), 2 * side)
        signs = np.tile(np.repeat([-1, 1], side), dim)
        np.testing.assert_array_equal(grid.outer_axis, axes)
        np.testing.assert_array_equal(grid.outer_sign, signs)
        np.testing.assert_array_equal(grid.outer_center[np.arange(axes.size), axes],
                                      (signs + 1) / 2)


def test_fluid_volume_approaches_porosity_times_domain(disk_cell_8):
    # |Omega_eps| equals |Omega| * |Y^f| exactly here since eps-cells tile Omega
    for m in (2, 4, 8):
        grid = build_masked_grid(disk_cell_8, m)
        assert grid.n_fluid * grid.cell_volume == pytest.approx(disk_cell_8.porosity, rel=1e-13)


def test_unit_cell_ids_map_to_matching_centers(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    ids = grid.unit_cell_ids()
    y = np.mod(grid.centers / grid.eps, 1.0)
    np.testing.assert_allclose(disk_cell_8.centers[ids], y, atol=1e-12)


def test_unit_cell_ids_keep_the_tiling_mismatch_error(disk_cell_8):
    # the disk grid's fluid cells at the corners of the square's 4 x 4 block are solid there
    square = build_cell_geometry(InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 8)
    grid = replace(build_masked_grid(disk_cell_8, 2), cell=square)
    with pytest.raises(GeometryError, match="tiling mismatch"):
        grid.unit_cell_ids()


def _layout_grids():
    """Periodic unit cells and domain grids, 2-D and 3-D, each with a perforation."""
    for dim, r, m in ((2, 8, 3), (3, 8, 2)):
        cell = build_cell_geometry(InclusionShape("disk", center=(0.5,) * dim, radius=0.25), r)
        yield cell
        yield build_masked_grid(cell, m)


@pytest.mark.parametrize("grid", list(_layout_grids()),
                         ids=["cell-2d", "domain-2d", "cell-3d", "domain-3d"])
def test_faces_are_grouped_by_axis(grid):
    # each face's axis, recovered from its two cells' centers: the one coordinate that differs
    # (by h, or by 1 - h across the periodic wrap)
    differs = np.abs(grid.centers[grid.face_hi] - grid.centers[grid.face_lo]) > 0.5 * grid.h
    assert np.all(differs.sum(axis=1) == 1)
    face_axis = np.argmax(differs, axis=1)
    np.testing.assert_array_equal(np.repeat(np.arange(grid.dim), grid.axis_counts), face_axis)
    for axis in range(grid.dim):
        faces = grid.axis_faces(axis)
        np.testing.assert_array_equal(np.arange(faces.start, faces.stop),
                                      np.flatnonzero(face_axis == axis))
    assert grid.axis_counts.shape == (grid.dim,) and np.all(grid.axis_counts > 0)


@pytest.mark.parametrize("grid", list(_layout_grids()),
                         ids=["cell-2d", "domain-2d", "cell-3d", "domain-3d"])
def test_grid_holds_no_face_sized_or_full_grid_integer_array_but_the_face_lists(grid):
    if grid.cell is not None:
        grid.unit_cell_ids()  # cached on the grid
    n_faces, n_cells = grid.face_lo.size, grid.fluid_mask.size
    assert n_cells not in (n_faces, grid.n_fluid)
    held = {name for name, value in vars(grid).items()
            if isinstance(value, np.ndarray) and value.dtype.kind in "iu"
            and value.size in (n_faces, n_cells)}
    assert held == {"face_lo", "face_hi"}
    assert not {"face_axis", "fluid_id"} & set(vars(grid))
    # nor a cell-sized float array: the centers are computed where they are read
    assert not {name for name, value in vars(grid).items()
                if isinstance(value, np.ndarray) and value.dtype.kind == "f"
                and value.shape[:1] == (grid.n_fluid,)}


@pytest.mark.parametrize("grid", list(_layout_grids()),
                         ids=["cell-2d", "domain-2d", "cell-3d", "domain-3d"])
def test_centers_are_the_grid_points_of_the_fluid_cells_bitwise(grid):
    centers = grid.centers
    expected = _grid_points(grid.n_cells_per_edge, grid.dim)[grid.fluid_mask.ravel()]
    assert centers.shape == (grid.n_fluid, grid.dim) and centers.dtype == expected.dtype
    assert np.array_equal(centers, expected)


def test_three_dimensional_grid_smoke():
    shape = InclusionShape("disk", center=(0.5, 0.5, 0.5), radius=0.2)
    cell = build_cell_geometry(shape, 8)
    assert cell.dim == 3
    assert abs(cell.porosity - (1.0 - 4.0 / 3.0 * np.pi * 0.2 ** 3)) < 0.05
    grid = build_masked_grid(cell, 2)
    assert grid.fluid_mask.shape == (16, 16, 16)
    assert grid.outer_cell.size == 6 * 16 * 16
    assert grid.facet_area == pytest.approx(grid.h ** 2)


# -- surface charges -------------------------------------------------------------


def test_constant_interface_charge(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = surface_charge_on_facets(grid, constant_xi1(1.0), zero_xi2)
    np.testing.assert_allclose(charges.gamma_values, 0.25)


def test_constant_outer_charge_total(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = surface_charge_on_facets(grid, zero_xi1, constant_xi2(3.0))
    np.testing.assert_allclose(charges.outer_values, 3.0)
    total_outer = np.sum(charges.outer_values) * grid.facet_area
    assert total_outer == pytest.approx(3.0 * grid.outer_area_total, rel=1e-13)
    assert grid.outer_area_total == pytest.approx(4.0)


def test_oscillatory_interface_charge_matches_cell_quadrature(disk_cell_8):
    # single-cell quadrature oracle: the eps-scaled facet sum telescopes to the
    # per-cell staircase line integral of cos(2 pi y1), independent of eps
    def xi1(x, y):
        return np.cos(2 * np.pi * y[:, 0])

    oracle = float(np.sum(np.cos(2 * np.pi * disk_cell_8.gamma_center[:, 0]))
                   * disk_cell_8.facet_area)
    for m in (2, 4):
        grid = build_masked_grid(disk_cell_8, m)
        charges = surface_charge_on_facets(grid, xi1, zero_xi2)
        total = float(np.sum(charges.gamma_values) * grid.facet_area)
        assert total == pytest.approx(oracle, rel=1e-12, abs=1e-14)


# -- charge balance --------------------------------------------------------------


def _ball_cell(dim):
    return build_cell_geometry(InclusionShape("disk", center=(0.5,) * dim, radius=0.25), 8)


def _micro_charges(dim):
    grid = build_masked_grid(_ball_cell(dim), 2)
    return grid, surface_charge_on_facets(grid, constant_xi1(0.2), zero_xi2)


def _macro_charges(dim):
    resolution = 12 if dim == 2 else 8
    grid = build_masked_grid(
        build_cell_geometry(InclusionShape("none", center=(0.5,) * dim), resolution), 1)

    def xi1(x, y):
        return 0.2 + 0.1 * x[:, 0] * np.cos(2 * np.pi * y[:, 1])

    return grid, build_macro_source(_ball_cell(dim), grid, xi1, constant_xi2(0.05))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("build", [_micro_charges, _macro_charges], ids=["micro", "macro"])
def test_one_balance_serves_both_scales(build, dim):
    grid, charges = build(dim)
    assert np.any(np.asarray(charges.volumetric) != 0.0) == (build is _macro_charges)
    species = [SpeciesSpec("p", 1.0, 1, lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0])),
               SpeciesSpec("m", 0.5, -2, lambda x: 0.3 + 0.1 * np.sin(3.0 * x[:, 1]))]
    residual = validate_compatibility(grid, species, charges, raise_on_fail=False)
    assert abs(residual) > 1e-3
    balanced, shift = balance_outer_charges(grid, species, charges)
    assert shift == -residual / grid.outer_area_total
    np.testing.assert_array_equal(balanced.volumetric, charges.volumetric)

    sim = TransportSim(grid, species, 1.0, 4.0, transport_tensor=np.eye(dim),
                       poisson_tensor=np.eye(dim), drift_scale=1.0, charges=balanced,
                       grad_scale=1.0)
    c0 = np.stack([s.initial_profile(grid.centers) for s in species])
    bulk = np.abs(np.array([s.charge for s in species])) @ c0 + np.abs(balanced.volumetric)
    facets = np.concatenate([balanced.gamma_values, balanced.outer_values])
    scale = bulk.sum() * grid.cell_volume + np.abs(facets).sum() * grid.facet_area
    assert abs(sim.state(0.0, c0).compat) <= 1e-13 * scale
