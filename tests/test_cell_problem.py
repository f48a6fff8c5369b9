import numpy as np
import pytest
from scipy.sparse.linalg import cg

from porodrift import linalg
from porodrift import (
    InclusionShape,
    SolverError,
    build_cell_geometry,
    compute_effective_tensor,
    corrector_residual,
    solve_cell_problem,
)
from porodrift.cell_problem import CorrectorField, _rhs_for_direction

# Regression baselines for the centered disk, radius 0.25: diagonal entry of
# the effective tensor at three staircase resolutions, frozen from converged
# mean-projected CG solves at tol 1e-12.  The h-linear Richardson value
# 2 a(256) - a(128) extrapolates the staircase geometry error.
DISK_A11 = {
    64: 0.8238340015409427,
    128: 0.8296510728744951,
    256: 0.8326926128941801,
}
DISK_A11_EXTRAPOLATED = 0.835734152913865


def test_no_inclusion_corrector_vanishes():
    cell = build_cell_geometry(InclusionShape("none"), 16)
    corr = solve_cell_problem(cell, 0)
    np.testing.assert_allclose(corr.values, 0.0, atol=1e-14)
    # the right-hand side is exactly zero: no iteration, no residual
    assert corr.iterations == 0
    assert corr.rel_residual == 0.0
    assert corrector_residual(cell, corr) <= 1e-12


def test_no_inclusion_tensor_is_identity():
    cell = build_cell_geometry(InclusionShape("none"), 16)
    tensor = compute_effective_tensor(cell)
    np.testing.assert_allclose(tensor.a_hom, np.eye(2), atol=1e-14)
    assert tensor.porosity == 1.0


def test_rhs_is_compatible(disk_cell_64):
    for k in range(2):
        rhs = _rhs_for_direction(disk_cell_64, k)
        assert abs(np.sum(rhs)) <= 1e-12 * max(1.0, np.sum(np.abs(rhs)))


def test_corrector_zero_mean_and_periodic_residual(disk_cell_64):
    corr = solve_cell_problem(disk_cell_64, 0, tol=1e-12)
    assert abs(np.mean(corr.values)) <= 1e-12
    # residual bound from the CG tolerance: |div| <= ||r||_2 / vol
    rhs = _rhs_for_direction(disk_cell_64, 0)
    bound = 10 * 1e-12 * np.linalg.norm(rhs) / disk_cell_64.h ** 2
    assert corrector_residual(disk_cell_64, corr) <= max(bound, 1e-8)


def test_unconverged_solve_flagged(disk_cell_64, monkeypatch):
    # one CG iteration cannot reach the tolerance
    monkeypatch.setattr(linalg, "cg",
                        lambda *args, **kwargs: cg(*args, **{**kwargs, "maxiter": 1}))
    with pytest.raises(SolverError, match="after 1 iterations") as excinfo:
        solve_cell_problem(disk_cell_64, 0, tol=1e-12)
    assert excinfo.value.residual > 1e-12


def test_unconverged_field_has_large_divergence(disk_cell_64):
    zero_field = CorrectorField(k=0, values=np.zeros(disk_cell_64.n_fluid),
                                rel_residual=1.0, iterations=0)
    assert corrector_residual(disk_cell_64, zero_field) > 1.0


def test_disk_tensor_invariants(disk_cell_64):
    tensor = compute_effective_tensor(disk_cell_64, tol=1e-12)
    a = tensor.a_hom
    # symmetry and isotropy of the centered disk
    assert abs(a[0, 1] - a[1, 0]) <= 1e-10
    assert abs(a[0, 1]) <= 1e-6 and abs(a[1, 0]) <= 1e-6
    assert abs(a[0, 0] - a[1, 1]) <= 1e-8
    # SPD with diagonal in (0, 1), strictly below 1 for a nonempty inclusion
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T))
    assert np.min(eigenvalues) > 0
    assert 0 < a[0, 0] < 1 - 1e-4
    # mean-flux and energy forms agree
    assert np.max(np.abs(a - tensor.energy_form)) <= 1e-8 * np.max(np.abs(a))


def test_divergence_form_identity(disk_cell_64):
    # |Y^f| A_kk = int |grad w_k + e_k|^2 (testing the discrete problem with w_k)
    tensor = compute_effective_tensor(disk_cell_64, tol=1e-12)
    from porodrift.cell_problem import corrected_gradients

    grads = corrected_gradients(disk_cell_64, tensor.correctors)
    vol = disk_cell_64.h ** 2
    n_fluid = disk_cell_64.n_fluid
    for k in range(2):
        lhs = n_fluid * vol * tensor.a_hom[k, k]
        rhs = float(np.sum(grads[k] ** 2)) * vol
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_variational_upper_bound(disk_cell_64):
    # energy of the trivial competitor w = 0 bounds the minimum from above
    tensor = compute_effective_tensor(disk_cell_64, tol=1e-12)
    for k in range(2):
        sel = disk_cell_64.face_axis == k
        trivial = np.count_nonzero(sel) / disk_cell_64.n_fluid
        assert tensor.a_hom[k, k] <= trivial + 1e-10
        assert trivial <= 1.0 + 1e-12


def test_swap_symmetry_of_correctors(disk_cell_64):
    w1 = solve_cell_problem(disk_cell_64, 0, tol=1e-12)
    w2 = solve_cell_problem(disk_cell_64, 1, tol=1e-12)
    res = disk_cell_64.r
    full1 = np.full((res, res), np.nan)
    full2 = np.full((res, res), np.nan)
    full1[disk_cell_64.fluid_mask] = w1.values
    full2[disk_cell_64.fluid_mask] = w2.values
    np.testing.assert_allclose(full2, full1.T, atol=1e-9)


def test_refinement_consistency():
    values = {}
    for res in (64, 128):
        cell = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5),
                                                  radius=0.25), res)
        values[res] = compute_effective_tensor(cell, tol=1e-12).a_hom[0, 0]
    assert abs(values[64] - values[128]) < 1e-2


def test_disk_regression_values():
    for res, frozen in DISK_A11.items():
        cell = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5),
                                                  radius=0.25), res)
        a11 = compute_effective_tensor(cell, tol=1e-12).a_hom[0, 0]
        assert a11 == pytest.approx(frozen, rel=1e-10)
    extrapolated = 2 * DISK_A11[256] - DISK_A11[128]
    assert extrapolated == pytest.approx(DISK_A11_EXTRAPOLATED, abs=1e-12)


def test_square_inclusion_diagonal_equal():
    cell = build_cell_geometry(
        InclusionShape("square", center=(0.5, 0.5), half_width=0.25), 64)
    tensor = compute_effective_tensor(cell, tol=1e-12)
    assert abs(tensor.a_hom[0, 0] - tensor.a_hom[1, 1]) <= 1e-10


def test_three_dimensional_identity():
    cell = build_cell_geometry(InclusionShape("none", center=(0.5, 0.5, 0.5)), 6)
    tensor = compute_effective_tensor(cell)
    np.testing.assert_allclose(tensor.a_hom, np.eye(3), atol=1e-13)
