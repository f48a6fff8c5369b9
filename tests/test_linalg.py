import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from porodrift import MicroSimulation, SolverError, build_masked_grid
from porodrift.linalg import ZeroMeanDirect, face_laplacian
from porodrift.transport import poisson_matrix

from conftest import hole_free_grid, make_scaling, smooth_c0, zero_charges


def _zero_mean_reference(matrix, rhs):
    # minimum-norm least-squares solution: zero mean, since constants span the nullspace
    dense = matrix.toarray()
    return np.linalg.lstsq(dense, rhs - rhs.mean(), rcond=None)[0]


@pytest.mark.parametrize("case", ["perforated-identity", "full-tensor"])
def test_zero_mean_direct_matches_dense_reference(disk_cell_8, case):
    if case == "perforated-identity":
        grid = build_masked_grid(disk_cell_8, 2, 8)
        matrix = poisson_matrix(grid, np.eye(2))
    else:
        grid = hole_free_grid(16)
        matrix = poisson_matrix(grid, [[1.0, 0.1], [0.1, 0.7]])
    rng = np.random.default_rng(7)
    rhs = (smooth_c0(grid.centers) + rng.uniform(-1.0, 1.0, grid.n_fluid)) * grid.cell_volume
    phi = ZeroMeanDirect(matrix).solve(rhs)
    reference = _zero_mean_reference(matrix, rhs)
    assert np.max(np.abs(phi - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert abs(phi.mean()) <= 1e-14


def test_singular_factorization_raises_solver_error():
    # two chains with no face between them: the pinned block keeps one nullspace
    face_lo = np.array([0, 1, 3, 4])
    face_hi = np.array([1, 2, 4, 5])
    with pytest.raises(SolverError, match=r"Poisson factorization.*n = 6"):
        ZeroMeanDirect(face_laplacian(6, face_lo, face_hi, 1.0))


def test_implicit_solve_matches_spsolve(disk_cell_8, canonical_species):
    grid = build_masked_grid(disk_cell_8, 2, 8)
    sim = MicroSimulation(grid, make_scaling(grid.eps), canonical_species, zero_charges(grid))
    rng = np.random.default_rng(11)
    c = rng.uniform(0.5, 1.5, grid.n_fluid)
    rhs_extra = rng.uniform(-1.0, 1.0, grid.n_fluid)
    face_h = rng.uniform(0.1, 10.0, grid.face_lo.size)
    dt = 1e-3
    diffusivity = 0.7
    solution = sim._implicit_solve(c, diffusivity, face_h, dt, rhs_extra)
    # micro transport tensor is the identity
    kappa = diffusivity * face_h / grid.h ** 2
    matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi, kappa)
    matrix = matrix + sparse.identity(grid.n_fluid) / dt
    reference = spsolve(matrix.tocsc(), c / dt + rhs_extra)
    assert np.max(np.abs(solution - reference)) <= 1e-12 * np.max(np.abs(reference))
