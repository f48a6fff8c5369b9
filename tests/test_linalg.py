import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spilu, splu, spsolve

import porodrift.linalg as linalg
import porodrift.transport as transport
from porodrift import (
    InclusionShape,
    MicroSimulation,
    SolverError,
    SpeciesSpec,
    build_cell_geometry,
    build_masked_grid,
    run_micro,
)
from porodrift.linalg import (
    MAX_REFINEMENTS,
    SUPERLU_NATURAL,
    SUPERNODES,
    ReducedFaceSystem,
    ZeroMeanDirect,
    cg_solve,
    face_laplacian,
    symmetric_ordering,
)
from porodrift.transport import poisson_matrix, poisson_solver

from conftest import hole_free_grid, make_scaling, smooth_c0, zero_charges


def _perforated_grid(dim, m=2):
    cell = build_cell_geometry(InclusionShape("disk", center=(0.5,) * dim, radius=0.25), 8)
    return build_masked_grid(cell, m)


def _transport_matrix(grid, kappa, dt):
    matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi, kappa)
    return (matrix + sparse.identity(grid.n_fluid) / dt).tocsc()


def _parity(grid):
    return np.indices(grid.fluid_mask.shape).sum(axis=0)[grid.fluid_mask] % 2


def _reduced_system(grid):
    return ReducedFaceSystem(_parity(grid), grid.face_lo, grid.face_hi)


def _symmetric_mmd_lu(matrix):
    return splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}, **SUPERNODES)


def _zero_mean_reference(matrix, rhs):
    # minimum-norm least-squares solution: zero mean, since constants span the nullspace
    dense = matrix.toarray()
    return np.linalg.lstsq(dense, rhs - rhs.mean(), rcond=None)[0]


@pytest.mark.parametrize("case", ["perforated-identity", "perforated-3d", "full-tensor",
                                  "reduced-perforated", "reduced-3d", "reduced-hole-free"])
def test_zero_mean_direct_matches_dense_reference(disk_cell_8, case):
    tensor = np.eye(2)
    if case in ("perforated-identity", "reduced-perforated"):
        grid = build_masked_grid(disk_cell_8, 2)
    elif case in ("perforated-3d", "reduced-3d"):
        grid = _perforated_grid(3, m=1)
        tensor = np.eye(3)
    elif case == "reduced-hole-free":
        grid = hole_free_grid(16)
        tensor = np.diag([1.0, 0.7])
    else:
        grid = hole_free_grid(16)
        tensor = [[1.0, 0.1], [0.1, 0.7]]
    matrix = poisson_matrix(grid, tensor)
    if case.startswith("reduced"):
        direct = poisson_solver(grid, tensor)
        assert isinstance(direct._system, ReducedFaceSystem)
    else:
        direct = ZeroMeanDirect(matrix)
    rng = np.random.default_rng(7)
    rhs = (smooth_c0(grid.centers) + rng.uniform(-1.0, 1.0, grid.n_fluid)) * grid.cell_volume
    phi = direct.solve(rhs)
    reference = _zero_mean_reference(matrix, rhs)
    assert np.max(np.abs(phi - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert abs(phi.mean()) <= 1e-14


def test_poisson_counts_record_solves_refinements_and_residual(monkeypatch):
    grid = hole_free_grid(16)
    direct = poisson_solver(grid, np.eye(2))
    rhs = (smooth_c0(grid.centers) - 1.0) * grid.cell_volume
    direct.solve(rhs)
    direct.solve(np.zeros(grid.n_fluid))
    assert direct.counts.solves == 2 and direct.counts.refinements == 0
    assert 0.0 < direct.counts.max_residual <= linalg.POISSON_TOL
    # a residual no solve reaches: every correction is counted before the failure
    monkeypatch.setattr(linalg, "POISSON_TOL", 1e-300)
    with pytest.raises(SolverError):
        direct.solve(rhs)
    assert direct.counts.solves == 3 and direct.counts.refinements == linalg.MAX_REFINEMENTS


@pytest.mark.parametrize("case", [2, 3, "hole-free-128"], ids=str)
def test_two_point_poisson_lu_fills_less_than_the_full_pinned_lu(case):
    grid = hole_free_grid(128) if case == "hole-free-128" else _perforated_grid(case)
    dim = grid.dim
    two_point = poisson_solver(grid, np.eye(dim))._lu
    full = ZeroMeanDirect(poisson_matrix(grid, np.eye(dim)))._lu
    # 1,696 against 2,572 nonzeros on the 2-D disk grid, 468,626 against 510,172 in 3-D and
    # 572,348 against 664,076 without a hole, where pinning the last black cell instead of
    # the first gives 672,728
    assert two_point.nnz < full.nnz


@pytest.mark.parametrize("tensor", [np.eye(2), [[1.0, 0.1], [0.1, 0.7]]],
                         ids=["reduced", "full-tensor"])
def test_refinement_checks_every_correction(tensor, monkeypatch):
    grid = hole_free_grid(16)
    direct = poisson_solver(grid, tensor)
    iterates = []
    pinned_solve = direct._pinned_solve
    direct._pinned_solve = lambda rhs: iterates.append(pinned_solve(rhs)) or iterates[-1]
    rhs = smooth_c0(grid.centers) * grid.cell_volume
    monkeypatch.setattr(linalg, "POISSON_TOL", 1e-300)
    with pytest.raises(SolverError, match="direct Neumann solve residual") as failure:
        direct.solve(rhs)
    # one back-solve per pinned solve
    assert len(iterates) == 1 + MAX_REFINEMENTS
    # the reported residual is that of the last iterate, which every correction built
    phi = iterates[0]
    for correction in iterates[1:]:
        phi = phi + correction
        phi -= phi.mean()
    b = rhs - rhs.mean()
    residual = b - direct._apply(phi)
    residual -= residual.mean()
    assert failure.value.residual == np.linalg.norm(residual) / np.linalg.norm(b)


def test_full_tensor_poisson_lu_fills_less_than_colamd():
    matrix = poisson_matrix(hole_free_grid(64), [[1.0, 0.15], [0.15, 0.8]])
    colamd = splu(matrix.tocsc()[1:, 1:], permc_spec="COLAMD", **SUPERNODES)
    assert ZeroMeanDirect(matrix)._lu.nnz < colamd.nnz


def test_singular_factorization_raises_solver_error():
    # two chains with no face between them: the pinned block keeps one nullspace
    face_lo = np.array([0, 1, 3, 4])
    face_hi = np.array([1, 2, 4, 5])
    with pytest.raises(SolverError, match=r"Poisson factorization.*n = 6"):
        ZeroMeanDirect(face_laplacian(6, face_lo, face_hi, 1.0))
    system = ReducedFaceSystem(np.arange(6) % 2, face_lo, face_hi)
    with pytest.raises(SolverError, match=r"Poisson factorization.*n = 6"):
        ZeroMeanDirect(system, np.ones(1), np.zeros(face_lo.size, dtype=np.intp))


def test_zero_mean_cg_matches_dense_reference(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 2)
    matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi, 1.0)
    rhs = np.random.default_rng(5).uniform(-1.0, 1.0, grid.n_fluid)
    values, residual, iterations, restarts = cg_solve(matrix, rhs, 1e-12, zero_mean=True)
    reference = _zero_mean_reference(matrix, rhs)
    assert abs(values.mean()) <= 1e-14
    assert np.max(np.abs(values - reference)) <= 1e-9 * np.max(np.abs(reference))
    assert residual <= 1e-12 and 0 < iterations <= grid.n_fluid and restarts == 0
    assert cg_solve(matrix, np.ones(grid.n_fluid), 1e-12, zero_mean=True)[1:] == (0.0, 0, 0)


def _spd_system(seed):
    grid = hole_free_grid(8)
    rng = np.random.default_rng(seed)
    matrix = _transport_matrix(grid, rng.uniform(0.1, 10.0, grid.face_lo.size), 1e-2)
    return matrix, rng.uniform(-1.0, 1.0, grid.n_fluid), rng


@pytest.mark.parametrize("zero_mean", [False, True], ids=["spd", "zero-mean"])
def test_cg_from_a_guess_matches_dense_reference(disk_cell_8, zero_mean):
    if zero_mean:
        grid = build_masked_grid(disk_cell_8, 2)
        matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi, 1.0)
        rng = np.random.default_rng(6)
        rhs = rng.uniform(-1.0, 1.0, grid.n_fluid)
        reference = _zero_mean_reference(matrix, rhs)
    else:
        matrix, rhs, rng = _spd_system(6)
        reference = np.linalg.solve(matrix.toarray(), rhs)
    guess = reference + 1e-3 * rng.uniform(-1.0, 1.0, rhs.size)
    values, residual, iterations, restarts = cg_solve(matrix, rhs, 1e-12, zero_mean=zero_mean,
                                                      x0=guess)
    assert np.max(np.abs(values - reference)) <= 1e-9 * np.max(np.abs(reference))
    assert residual <= 1e-12 and 0 < iterations and restarts == 0
    if zero_mean:
        assert abs(values.mean()) <= 1e-14
    # the target is relative to the right-hand side, not to the guess's residual: the
    # solution itself as the guess takes no iteration
    assert cg_solve(matrix, rhs, 1e-12, zero_mean=zero_mean, x0=values)[2:] == (0, 0)


def _cg_missing_its_true_residual(monkeypatch, misses):
    """The CG recurrence whose first ``misses`` results report convergence off the solution.

    Each call appends its right-hand side and its iteration count to the returned list.
    """
    calls = []
    real_recurrence = linalg._cg_recurrence

    def stub(matrix, rhs, *args):
        values, steps, converged = real_recurrence(matrix, rhs, *args)
        calls.append((rhs, steps))
        if len(calls) <= misses:
            values = values + 1e-6 * np.linalg.norm(rhs) / np.sqrt(rhs.size)
        return values, steps, converged

    monkeypatch.setattr(linalg, "_cg_recurrence", stub)
    return calls


def test_cg_restarts_once_when_the_true_residual_misses_tol(monkeypatch):
    matrix, rhs, _ = _spd_system(8)
    reference = np.linalg.solve(matrix.toarray(), rhs)
    calls = _cg_missing_its_true_residual(monkeypatch, misses=1)
    values, residual, iterations, restarts = cg_solve(matrix, rhs, 1e-12)
    assert len(calls) == 2 and restarts == 1
    # the restart solves for the defect of the first result, from 0
    assert np.linalg.norm(calls[1][0]) > 1e-12 * np.linalg.norm(rhs)
    assert iterations == calls[0][1] + calls[1][1]
    assert residual <= 1e-12
    assert np.max(np.abs(values - reference)) <= 1e-9 * np.max(np.abs(reference))


def test_cg_raises_when_the_restart_misses_tol_too(monkeypatch):
    matrix, rhs, _ = _spd_system(8)
    calls = _cg_missing_its_true_residual(monkeypatch, misses=2)
    with pytest.raises(SolverError, match=r"CG restarted once and stopped after \d+ "
                                          r"iterations at true relative residual") as failure:
        cg_solve(matrix, rhs, 1e-12)
    assert len(calls) == 2
    assert failure.value.iterations == calls[0][1] + calls[1][1] > 0
    assert failure.value.residual > 1e-12


def test_cg_stops_at_the_first_non_finite_residual():
    # an infinite diagonal entry turns the residual to NaN after one iteration; the norm
    # test alone is False for NaN, so CG would iterate to its cap
    matrix, rhs, _ = _spd_system(8)
    matrix = matrix.tolil()
    matrix[3, 3] = np.inf
    with pytest.raises(SolverError, match="CG stopped after [01] iterations") as failure, \
            np.errstate(invalid="ignore"):
        cg_solve(matrix.tocsr(), rhs, 1e-10)
    assert failure.value.iterations <= 1


def _check_implicit_solve(grid, species, bound=1e-12):
    sim = MicroSimulation(grid, make_scaling(grid.eps), species, zero_charges(grid))
    rng = np.random.default_rng(11)
    c = rng.uniform(0.5, 1.5, grid.n_fluid)
    rhs_extra = rng.uniform(-1.0, 1.0, grid.n_fluid)
    face_h = rng.uniform(0.1, 10.0, grid.face_lo.size)
    dt = 1e-3
    diffusivity = 0.7
    solution = sim._implicit_solve(c, diffusivity * face_h, dt, rhs_extra)
    # micro transport tensor is the identity
    matrix = _transport_matrix(grid, diffusivity * face_h / grid.h ** 2, dt)
    reference = spsolve(matrix, c / dt + rhs_extra)
    assert np.max(np.abs(solution - reference)) <= bound * np.max(np.abs(reference))
    return sim


def test_implicit_solve_matches_spsolve(disk_cell_8, canonical_species, monkeypatch):
    # the CG at a tight tolerance, so that the bound is an LU's
    monkeypatch.setattr(transport, "CG_TOL", 1e-13)
    _check_implicit_solve(build_masked_grid(disk_cell_8, 2), canonical_species)


@pytest.mark.parametrize("dim", [2, 3])
def test_two_level_implicit_solve_matches_spsolve(monkeypatch, dim):
    # the two-level machinery at a tight tolerance, so that the bound is an LU's
    monkeypatch.setattr(transport, "CG_TOL", 1e-13)
    # 6,656 black cells in 2-D
    grid = _perforated_grid(2, m=16) if dim == 2 else _perforated_grid(3)
    sim = _check_implicit_solve(grid, [SpeciesSpec("s", 1.0, 0, smooth_c0)])
    assert sim.solves.solves == 1
    assert 0 < sim.solves.max_cg_residual <= transport.CG_TOL


def test_two_level_implicit_solve_meets_its_tolerance():
    # at the default CG_TOL: the shift I/dt bounds the inverse of the reduced matrix by dt,
    # so a true residual CG_TOL moves the solution by a few CG_TOL relative, not more
    sim = _check_implicit_solve(_perforated_grid(2, m=16), [SpeciesSpec("s", 1.0, 0, smooth_c0)],
                                bound=10 * transport.CG_TOL)
    assert sim.solves.solves == 1
    assert 0 < sim.solves.max_cg_residual <= transport.CG_TOL


def test_warm_and_cold_two_level_solves_agree(disk_cell_8, monkeypatch):
    # the first step of the m = 16 grid: the warm start from c^n,
    # both solved at a tight tolerance, so that they agree to rounding
    monkeypatch.setattr(transport, "CG_TOL", 1e-13)
    grid = build_masked_grid(disk_cell_8, 16)
    sim = MicroSimulation(grid, make_scaling(grid.eps), [SpeciesSpec("s", 1.0, 0, smooth_c0)],
                          zero_charges(grid))
    c = smooth_c0(grid.centers)
    face_h = transport.h_p_prime(0.5 * (c[grid.face_lo] + c[grid.face_hi]), 1.0, 4.0)
    cold = sim._implicit_solve(c, face_h, 5e-4, np.zeros(grid.n_fluid))
    cold_iterations = sim.solves.cg_iterations
    warm = sim._implicit_solve(c, face_h, 5e-4, np.zeros(grid.n_fluid), c)
    assert sim.solves.solves == 2
    assert np.max(np.abs(warm - cold)) <= 1e-12 * np.max(np.abs(cold))
    assert 0 < sim.solves.cg_iterations - cold_iterations < cold_iterations


def test_two_level_coarse_operator_and_preconditioner():
    # the m = 4 disk grid, and the smallest grids: 2-D r = 4 without a hole (4 coarse
    # unknowns) and the 3-D r = 8 disk (27)
    for kind, dim, m, r, n_coarse in [("disk", 2, 4, 8, None), ("none", 2, 1, 4, 4),
                                      ("disk", 3, 1, 8, 27)]:
        cell = build_cell_geometry(InclusionShape(kind, center=(0.5,) * dim, radius=0.25), r)
        grid = build_masked_grid(cell, m)
        system = _reduced_system(grid)
        two_level = transport.aggregated_two_level(grid, system)
        rng = np.random.default_rng(4)
        system.assemble(rng.uniform(0.1, 10.0, grid.face_lo.size) / grid.h ** 2, 1e3)
        coarse = two_level.assemble()
        assert n_coarse in (None, coarse.shape[0])
        # the refilled coarse operator is the Galerkin product P^T S P, P piecewise constant
        n_black = system.matrix.shape[0]
        prolongation = sparse.csr_matrix((np.ones(n_black), (np.arange(n_black),
                                                             two_level._aggregate)))
        reference = (prolongation.T @ system.matrix @ prolongation).toarray()
        assert np.max(np.abs(coarse.toarray() - reference)) <= 1e-14 * np.max(np.abs(reference))
        # the preconditioner is symmetric positive definite
        preconditioner = two_level.preconditioner(splu(coarse, **SUPERLU_NATURAL))
        inverse = np.array([preconditioner(unit) for unit in np.eye(n_black)]).T
        assert np.max(np.abs(inverse - inverse.T)) <= 1e-14 * np.max(np.abs(inverse))
        assert np.linalg.eigvalsh(0.5 * (inverse + inverse.T)).min() > 0.0


def test_unconverged_two_level_solve_raises_with_iterations_and_residual(monkeypatch):
    real_recurrence = linalg._cg_recurrence
    monkeypatch.setattr(linalg, "_cg_recurrence", lambda matrix, b, atol, maxiter, *args:
                        real_recurrence(matrix, b, atol, 3, *args))
    grid = _perforated_grid(2)
    sim = MicroSimulation(grid, make_scaling(grid.eps), [SpeciesSpec("s", 1.0, 0, smooth_c0)],
                          zero_charges(grid))
    rng = np.random.default_rng(2)
    with pytest.raises(SolverError, match="implicit transport solve: CG stopped after 3 "
                                          "iterations") as failure:
        sim._implicit_solve(rng.uniform(0.5, 1.5, grid.n_fluid),
                            rng.uniform(0.1, 10.0, grid.face_lo.size), 1e-3,
                            np.zeros(grid.n_fluid))
    assert failure.value.iterations == 3
    assert failure.value.residual > transport.CG_TOL


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 300))
def test_entries_number_the_distinct_pairs_in_row_major_order(data, n):
    index = st.integers(0, n - 1)
    pool = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))
    # drawn from a small pool, the pairs repeat
    pairs = [pool[k] for k in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=60))]
    rows = np.array([row for row, _ in pairs], dtype=np.intp)
    cols = np.array([col for _, col in pairs], dtype=np.intp)
    first, second, entry = linalg._entries(rows, cols, n)
    reference = {pair: number for number, pair in enumerate(sorted(set(pairs)))}
    assert list(zip(first.tolist(), second.tolist())) == list(reference)
    assert entry.dtype == np.intp
    assert entry.tolist() == [reference[pair] for pair in pairs]
    # swapped, the pairs come in column-major order, each with the entry of that order
    cols_first, rows_second, swapped = linalg._entries(cols, rows, n)
    by_column = sorted(set(pairs), key=lambda pair: (pair[1], pair[0]))
    assert list(zip(rows_second.tolist(), cols_first.tolist())) == by_column
    assert swapped.tolist() == [by_column.index(pair) for pair in pairs]


def test_entries_key_in_intp_where_int32_would_overflow():
    # n * n >= 2**31: the key (n - 1) * n + n - 1 = 2**32 - 1 needs intp
    n = 2**16
    rows = np.array([n - 1, 0, 5, n - 1, 0, 5], dtype=np.intp)
    cols = np.array([n - 1, n - 1, 5, 0, n - 1, 3], dtype=np.intp)
    first, second, entry = linalg._entries(rows, cols, n)
    assert first.dtype == second.dtype == entry.dtype == np.intp
    pairs = list(zip(rows.tolist(), cols.tolist()))
    reference = sorted(set(pairs))
    assert list(zip(first.tolist(), second.tolist())) == reference
    assert entry.tolist() == [reference.index(pair) for pair in pairs]
    # below the bound the keys are int32, and the pairs are numbered the same
    small = rows % 46340, cols % 46340
    wide, narrow = linalg._entries(*small, n), linalg._entries(*small, 46340)
    assert narrow[0].dtype == narrow[1].dtype == np.int32 and narrow[2].dtype == np.intp
    assert wide[0].dtype == np.intp
    for wide_array, narrow_array in zip(wide, narrow):
        assert np.array_equal(wide_array, narrow_array)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(1, 60))
def test_two_level_numbers_the_coarse_layout_like_a_second_entries_call(seed, n_labels):
    # random labels make aggregates of scattered cells, so C's pattern is irregular
    system = _reduced_system(_perforated_grid(2))
    labels = np.random.default_rng(seed).integers(0, n_labels, system.black.size) * 7
    two_level = linalg.TwoLevel(system, labels)
    # the reference: the numbering in the cached order by a second _entries call
    matrix = system.matrix
    _, aggregate = np.unique(labels, return_inverse=True)
    n_coarse = int(aggregate.max()) + 1
    perm = np.empty(n_coarse, dtype=np.intp)
    perm[aggregate] = two_level._aggregate
    cols = perm[aggregate[matrix.indices]]
    rows = perm[aggregate[np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))]]
    coarse_cols, coarse_rows, slots = linalg._entries(cols, rows, n_coarse)
    indptr = np.searchsorted(coarse_cols, np.arange(n_coarse + 1)).astype(np.int32)
    for actual, expected in [(two_level.coarse.indptr, indptr),
                             (two_level.coarse.indices, coarse_rows.astype(np.int32)),
                             (two_level._slots, slots)]:
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


def test_index_arrays_are_native_intp():
    # numpy converts every other index array on each gather, scatter or count
    grid = _perforated_grid(2)
    system = _reduced_system(grid)
    two_level = transport.aggregated_two_level(grid, system)
    checked = set()
    for owner in (system, two_level):
        for name, value in vars(owner).items():
            if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
                checked.add(name)
                assert value.dtype == np.intp, name
    assert {"_pair_first", "_pair_entry", "_upper_slots", "_slots", "_aggregate"} < checked


@pytest.mark.parametrize("dim", [2, 3])
def test_face_list_elimination_is_scipys_product_bitwise(dim):
    # the reference stores K = -A_rb as a CSR matrix: the faces grouped by red cell, in face
    # order, with their black cells as columns; its products fix the order of every sum
    grid = _perforated_grid(dim)
    system = _reduced_system(grid)
    rng = np.random.default_rng(dim)
    kappa = rng.uniform(0.1, 10.0, grid.face_lo.size) / grid.h ** 2
    red_diag = system.assemble(kappa, rng.uniform(1.0, 100.0))
    by_red, n_red = system._by_red, red_diag.size
    indptr = np.concatenate([[0], np.cumsum(np.bincount(system._face_red, minlength=n_red))])
    coupling = sparse.csr_matrix((kappa[by_red], system._face_black[by_red], indptr),
                                 shape=(n_red, system.black.size))
    red = np.setdiff1d(np.arange(grid.n_fluid), system.black)
    values = rng.uniform(-1.0, 1.0, grid.n_fluid)
    black = rng.uniform(-1.0, 1.0, system.black.size)
    assert np.array_equal(system.reduce(values, kappa, red_diag),
                          values[system.black] + coupling.T @ (values[red] / red_diag))
    solution = system.back_substitute(black, values, kappa, red_diag)
    assert np.array_equal(solution[system.black], black)
    assert np.array_equal(solution[red], (values[red] + coupling @ black) / red_diag)


def _explicit_schur_complement(grid, kappa, dt):
    """The reference: eliminate the larger parity class (parity 1 on a tie) with scipy."""
    matrix = _transport_matrix(grid, kappa, dt).tocsr()
    parity = _parity(grid) == 1
    red = parity if 2 * np.count_nonzero(parity) >= parity.size else ~parity
    r, b = np.flatnonzero(red), np.flatnonzero(~red)
    inverse_red = sparse.diags(1.0 / matrix.diagonal()[r])
    schur = matrix[b][:, b] - matrix[b][:, r] @ inverse_red @ matrix[r][:, b]
    return schur.tocsc()


@pytest.mark.parametrize("dim", [2, 3])
def test_reduced_matrix_is_the_csr_schur_complement(dim):
    grid = _perforated_grid(dim)
    rng = np.random.default_rng(5)
    kappa = rng.uniform(0.1, 10.0, grid.face_lo.size) / grid.h ** 2
    dt = 1e-3
    system = _reduced_system(grid)
    # CSR with int32 indices, strictly increasing in each row
    assert system.matrix.format == "csr"
    assert system.matrix.indices.dtype == system.matrix.indptr.dtype == np.int32
    rows = np.split(system.matrix.indices, system.matrix.indptr[1:-1])
    assert all(np.all(np.diff(columns) > 0) for columns in rows)
    system.assemble(kappa, 1.0 / dt)
    # the in-place matrix is the explicit Schur complement, black cells ascending
    reference = _explicit_schur_complement(grid, kappa, dt)
    assert abs(system.matrix - reference).max() <= 1e-14 * abs(reference).max()
    # the two-point Poisson residual is the net face flux, the full operator's product
    v = rng.uniform(-1.0, 1.0, grid.n_fluid)
    full = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi, kappa) @ v
    flux = ZeroMeanDirect(system, kappa, np.arange(kappa.size))._apply(v)
    assert np.max(np.abs(flux - full)) <= 1e-14 * np.max(np.abs(kappa))


@pytest.mark.parametrize("shape", [("disk", 2, 8, 8), ("disk", 3, 2, 8), ("none", 2, 1, 128)])
def test_ordering_with_supernode_settings_is_the_symmetric_mmd_order(shape):
    kind, dim, m, r = shape
    cell = build_cell_geometry(InclusionShape(kind, center=(0.5,) * dim, radius=0.25), r)
    grid = build_masked_grid(cell, m)
    unit = _transport_matrix(grid, 1.0, 1.0)
    order = symmetric_ordering(unit)
    # SUPERNODES leaves the order alone: the incomplete LU without it, and the full LU
    default = spilu(unit, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    np.testing.assert_array_equal(order, default.perm_c)
    np.testing.assert_array_equal(order, _symmetric_mmd_lu(unit).perm_c)


@st.composite
def _small_grids(draw):
    dim = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["none", "disk", "square"]))
    # the inclusion keeps the margin 2/r to the cell boundary that build_cell_geometry asks;
    # a factor of 1.0 would put it exactly on that bound, where rounding can land one ulp
    # short of 2/r (r = 6), so the factor stays below 1
    size = draw(st.floats(0.05, 0.95)) * (0.5 - 2.0 / r)
    if size <= 0.0:
        kind = "none"
    shape = InclusionShape(kind, center=(0.5,) * dim, radius=size, half_width=size)
    return build_masked_grid(build_cell_geometry(shape, r), draw(st.integers(1, 3)))


@settings(max_examples=25, deadline=None)
@given(grid=_small_grids(), seed=st.integers(0, 2**32 - 1),
       log_dt=st.floats(-6.0, 0.0))
def test_reduced_solve_matches_spsolve_of_the_full_matrix(grid, seed, log_dt):
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.1, 10.0, grid.face_lo.size) / grid.h ** 2
    dt = 10.0 ** log_dt
    rhs = rng.uniform(-1.0, 1.0, grid.n_fluid)
    system = _reduced_system(grid)
    red_diag = system.assemble(kappa, 1.0 / dt)
    lu = _symmetric_mmd_lu(system.matrix.tocsc())
    solution = system.back_substitute(lu.solve(system.reduce(rhs, kappa, red_diag)), rhs,
                                      kappa, red_diag)
    reference = spsolve(_transport_matrix(grid, kappa, dt), rhs)
    assert np.max(np.abs(solution - reference)) <= 1e-12 * np.max(np.abs(reference))
    # the transport's two-level CG, at a tight tolerance, meets the same bound
    two_level = transport.aggregated_two_level(grid, system)
    black = cg_solve(system.matrix, system.reduce(rhs, kappa, red_diag), 1e-13,
                     preconditioner=two_level.preconditioner(
                         splu(two_level.assemble(), **SUPERLU_NATURAL)))[0]
    solution = system.back_substitute(black, rhs, kappa, red_diag)
    assert np.max(np.abs(solution - reference)) <= 1e-12 * np.max(np.abs(reference))
    # a face between two cells of one parity breaks the elimination
    parity = _parity(grid)
    same = np.flatnonzero(parity == parity[0])
    if same.size > 1:
        extra = same[rng.integers(1, same.size)]
        with pytest.raises(ValueError, match="same colour"):
            ReducedFaceSystem(parity, np.append(grid.face_lo, 0), np.append(grid.face_hi, extra))


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counted_run(monkeypatch, resolution):
    """A short two-species run on the hole-free grid, counting systems, orders and LUs."""
    calls = {"system": 0, "ordering": 0, "lu": 0}
    monkeypatch.setattr(ReducedFaceSystem, "__init__",
                        _counted(calls, "system", ReducedFaceSystem.__init__))
    monkeypatch.setattr(linalg, "symmetric_ordering",
                        _counted(calls, "ordering", linalg.symmetric_ordering))
    monkeypatch.setattr(transport, "splu", _counted(calls, "lu", transport.splu))
    grid = hole_free_grid(resolution)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    result = run_micro(grid, make_scaling(grid.eps, T=0.005), species, zero_charges(grid),
                       dt_init=1e-3)
    attempts = result.summary["steps"] + result.summary["rejections"]
    assert attempts >= 5
    return calls, result, attempts


def test_ordering_computed_once_per_simulation(monkeypatch):
    calls, _, _ = _counted_run(monkeypatch, 8)
    # the transport and the Poisson share one reduced system; the order of the coarse
    # operator is computed once, however many steps the run takes
    assert (calls["system"], calls["ordering"]) == (1, 1)


def test_one_coarse_lu_per_two_level_solve(monkeypatch):
    calls, result, attempts = _counted_run(monkeypatch, 16)
    # one coarse LU per solve, and still one system and one order
    assert calls == {"system": 1, "ordering": 1, "lu": 2 * attempts}
    counts = result.counts["transport"]
    assert counts["solves"] == 2 * attempts
    assert counts["coarse_size"] == math.ceil(16 / transport.AGGREGATE_WIDTH) ** 2
    assert 0 < counts["max_cg_iterations"] <= counts["cg_iterations"]


def test_transport_assembly_leaves_the_poisson_solution_unchanged(disk_cell_8,
                                                                   canonical_species):
    grid = build_masked_grid(disk_cell_8, 2)
    sim = MicroSimulation(grid, make_scaling(grid.eps), canonical_species, zero_charges(grid))
    rng = np.random.default_rng(3)
    cation = rng.uniform(0.5, 1.5, grid.n_fluid)
    excess = rng.uniform(-0.2, 0.2, grid.n_fluid)
    conc = np.stack([cation, cation + excess - excess.mean()])
    first = sim.state(0.0, conc).phi
    assert np.max(np.abs(first)) > 0.0
    # the transport refills the shared reduced matrix with other coefficients
    sim._implicit_solve(cation, 0.7 * rng.uniform(0.1, 10.0, grid.face_lo.size), 1e-3,
                        np.zeros(grid.n_fluid))
    np.testing.assert_array_equal(sim.state(0.0, conc).phi, first)
