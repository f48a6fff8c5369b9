"""Sparse operators and solvers for the singular Neumann/periodic systems.

The pure-Neumann operators here are singular with a constant nullspace and
compatible right-hand sides.  ``ZeroMeanDirect`` pins one unknown to 0,
factorizes the nonsingular rest once and mean-projects each solution: the
Poisson problem is re-solved every transport step with a constant operator,
so the factorization pays off.  ``cg_solve`` is the one CG helper: SciPy's
CG recurrence, run here with its operations in its order, so that the
iterates are bitwise SciPy's.  It is mean-projected for a singular operator
that is solved only once, such as a periodic cell problem, and
preconditioned by ``TwoLevel`` for the transport systems.  It starts from
an optional guess by solving for the correction from 0, and it accepts a
result only on its true residual: CG restarts once when that misses the
target which the recursively updated residual met.

The implicit transport matrices ``face_laplacian + I/dt`` change every step
but keep their sparsity pattern, and every face joins two cells of opposite
grid-index parity.  ``ReducedFaceSystem`` eliminates the larger parity class
exactly (its block is diagonal) and keeps the Schur complement on the other
class: an SPD M-matrix on half the cells with a 9-point (2-D) or 19-point
(3-D) stencil.  It computes the complement's pattern once and refills a CSR
matrix in ascending cell order in place.  The transport solves it by CG with
a ``TwoLevel`` preconditioner, whose coarse Galerkin operator is refilled
the same way, in its own cached symmetric fill-reducing order, and
factorized with the ``NATURAL`` column order (``SUPERLU_NATURAL``), the one
factorization of a transport solve.  Each fill returns the operator's own
``Elimination`` blocks, so one system serves the transport matrices of every
step and the two-point Poisson operator (shift 0).

``ZeroMeanDirect`` factors both Poisson operators with one call: the Schur
complement of the two-point operator, or an assembled operator such as the
full-tensor one, pinned at unknown 0 (the first black cell, or node 0) and
factored with SuperLU's partial pivoting in the symmetric minimum-degree
order ``MMD_AT_PLUS_A`` of the pinned block.  The two-point LU holds 1.47M
nonzeros on the 52k-cell ``micro_large`` grid and 0.57M on the 128^2 macro
grid, against 1.77M and 0.66M for the pinned full operator; pinned at its
last black cell instead, the 128^2 LU holds 0.67M.  A full-tensor operator
has cross terms, so it is neither two-point nor symmetric: on its pinned
64^2 block, partial pivoting in the 5-point face order filled the LU to 7.5M
nonzeros in 3.6 s, against 0.33M in 29 ms with the default ``COLAMD`` order
and 0.24M in 12 ms with ``MMD_AT_PLUS_A`` (one thread).  Every SuperLU
factorization here, the incomplete one that computes the coarse order
included, uses the supernode settings ``SUPERNODES``: on one thread these
systems factor faster without relaxed supernodes or column panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import spilu, splu

from .errors import SolverError

MAX_REFINEMENTS = 2   # iterative-refinement passes of ZeroMeanDirect.solve
POISSON_TOL = 1e-10   # default relative residual of the Poisson solves (solver.poisson_tol)
JACOBI_WEIGHT = 0.7   # damping of the Jacobi sweeps of TwoLevel.preconditioner

# SuperLU supernode relaxation and panel size of every factorization
SUPERNODES = {"relax": 1, "panel_size": 1}

# Symmetric-mode options of the SPD transport systems: a symmetric ordering
# of A + A^T keeps the diagonal pivots, so no pivoting is needed
_SYMMETRIC = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}

# splu keywords for a matrix already in its fill-reducing order
SUPERLU_NATURAL = {"permc_spec": "NATURAL", **_SYMMETRIC, **SUPERNODES}


def face_laplacian(n_cells, face_lo, face_hi, coeff):
    """SPD graph Laplacian row_j = sum_f coeff_f (u_j - u_nb) from face lists.

    ``coeff`` is scalar or per-face; omitted faces (masked, no-flux) simply
    do not appear, which realizes homogeneous Neumann conditions.
    """
    coeff = np.broadcast_to(np.asarray(coeff, dtype=float), face_lo.shape)
    rows = np.concatenate([face_lo, face_hi, face_lo, face_hi])
    cols = np.concatenate([face_lo, face_hi, face_hi, face_lo])
    vals = np.concatenate([coeff, coeff, -coeff, -coeff])
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n_cells, n_cells))
    return mat.tocsr()


def face_divergence(n_cells, face_lo, face_hi, flux):
    """Net inflow per cell of the face fluxes ``flux`` (positive flows lo -> hi)."""
    gain = np.bincount(face_hi, weights=flux, minlength=n_cells)
    loss = np.bincount(face_lo, weights=flux, minlength=n_cells)
    return gain - loss


def _cg_recurrence(matrix, b, atol, maxiter, preconditioner):
    """SciPy's preconditioned CG from 0 until ``||r|| < atol``: its operations, in its order.

    Returns the iterate, the number of iterations and whether the norm test
    passed within ``maxiter``.
    """
    x, r = np.zeros_like(b), b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration, True
        z = r if preconditioner is None else preconditioner(r)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


def cg_solve(matrix, rhs, tol, preconditioner=None, zero_mean=False, x0=None):
    """Solution of the SPD system ``matrix`` by SciPy's CG recurrence, started from ``x0``.

    ``preconditioner`` is a function applying an SPD approximation of the
    inverse (None: plain CG).  With ``zero_mean`` the matrix is singular
    with the constants as its nullspace: the right-hand side is
    mean-projected, so that CG stays orthogonal to the nullspace, and so is
    the solution.  ``x0`` is an initial guess (None: 0).  CG runs from 0 on
    the residual equation ``A d = b - A x0`` to the absolute target
    ``tol ||b||``, so its stopping test means what it means for a solve from
    0, and the solution is ``x0 + d``.

    CG stops on its recursively updated residual, so the true relative
    residual ``||b - A x|| / ||b||`` of the result is computed and compared
    with ``tol``: above it, CG restarts once from that iterate.  Returns the
    solution, its true relative residual, the number of iterations and of
    restarts.  SolverError (with that residual and count) is raised when CG
    does not reach its target within max(100, 50 sqrt(n)) iterations, or
    when the true residual is still above ``tol`` after the restart; a zero
    right-hand side takes no iteration.
    """
    b = rhs - rhs.mean() if zero_mean else rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0, 0
    iterations = 0
    values, defect = x0, (b if x0 is None else b - matrix @ x0)
    for restarts in range(2):
        if zero_mean and values is not None:
            defect = defect - defect.mean()
        step, steps, converged = _cg_recurrence(
            matrix, defect, tol * b_norm, max(100, int(50 * np.sqrt(b.size))), preconditioner)
        iterations += steps
        values = step if values is None else values + step
        if zero_mean:
            values = values - values.mean()
        defect = b - matrix @ values
        residual = float(np.linalg.norm(defect)) / b_norm
        if not converged:
            raise SolverError(f"CG stopped after {iterations} iterations at relative "
                              f"residual {residual:.3e} (tol {tol:.3e})", residual=residual,
                              iterations=iterations)
        if residual <= tol:
            return values, residual, iterations, restarts
    raise SolverError(f"CG restarted once and stopped after {iterations} iterations at true "
                      f"relative residual {residual:.3e} (tol {tol:.3e})", residual=residual,
                      iterations=iterations)


def symmetric_ordering(pattern):
    """SuperLU's ``MMD_AT_PLUS_A`` column order of a matrix with a symmetric pattern.

    Row and column ``i`` go to position ``perm[i]``.  The order depends only
    on the sparsity pattern, so the no-fill incomplete LU of a diagonally
    dominant matrix with that pattern yields the same permutation as a full
    symmetric-mode LU, at a fraction of its cost.
    """
    return spilu(pattern.tocsc(), drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                 **_SYMMETRIC, **SUPERNODES).perm_c


def _couplings(by_red, degree, face_black, n_black):
    """The entries that eliminating the red cells adds between black cells.

    ``by_red`` lists the faces grouped by red cell and ``degree`` counts them
    per red cell.  Faces ``first[k]`` and ``second[k]`` meet at a red cell, so
    their black cells are coupled: the pair adds to entry ``entry[k]``, which
    joins the black cells ``upper[entry[k]] < lower[entry[k]]``.  Temporaries
    end here, before the first factorization allocates.
    """
    start = np.cumsum(degree) - degree
    firsts, seconds = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    max_degree = int(degree.max(initial=0))
    for i in range(max_degree):
        for j in range(i + 1, max_degree):
            at = start[degree > j]
            firsts.append(by_red[at + i])
            seconds.append(by_red[at + j])
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    b_first, b_second = face_black[first], face_black[second]
    if np.any(b_first == b_second):
        raise ValueError("face lists repeat a pair of cells")
    # scipy's conversion merges the pairs into entries in (upper, lower) order; numbered
    # 0..n-1 as values, the entries are read back at each pair
    low, high = np.minimum(b_first, b_second), np.maximum(b_first, b_second)
    coupled = sparse.csr_matrix((np.ones(low.size), (low, high)), shape=(n_black, n_black))
    coupled.data = np.arange(float(coupled.nnz))
    entry = np.asarray(coupled[low, high]).ravel().astype(np.int32)
    upper = np.repeat(np.arange(n_black, dtype=np.int32), np.diff(coupled.indptr))
    return first, second, entry, upper, coupled.indices


def _pattern_order(upper, lower, n):
    """``symmetric_ordering`` of the pattern with off-diagonal entries (upper, lower), both ways."""
    diagonal = np.arange(n, dtype=np.int32)
    unit = np.concatenate([-np.ones(2 * upper.size),
                           1.0 + np.bincount(upper, minlength=n) + np.bincount(lower, minlength=n)])
    pattern = sparse.csc_matrix((unit, (np.concatenate([upper, lower, diagonal]),
                                        np.concatenate([lower, upper, diagonal]))), shape=(n, n))
    return symmetric_ordering(pattern).astype(np.int32)


class Elimination(NamedTuple):
    """The blocks of one operator on a ``ReducedFaceSystem`` that its elimination keeps.

    ``coupling`` is the red-black block ``K = -A_rb`` (CSR, one entry
    ``kappa_f`` per face, columns in the order of ``S``), ``coupling_t`` its
    transpose and ``red_diag`` the diagonal ``d_r`` of the red block.
    """

    coupling: sparse.csr_matrix
    coupling_t: sparse.csc_matrix
    red_diag: np.ndarray


class ReducedFaceSystem:
    """``face_laplacian(kappa) + shift I`` with one colour of cells eliminated exactly.

    ``colour`` is a 0/1 label per cell (the parity of its grid index) and
    every face must join two cells of opposite colour, else ``ValueError``.
    The cells of the larger colour ("red", colour 1 on a tie) are coupled
    only to the others ("black"), so their block is diagonal, ``d_r = shift
    + sum_f kappa_f``, and the black unknowns solve the Schur complement
    ``S = D_bb - A_br D_rr^-1 A_rb``: an SPD M-matrix on about half the
    cells, with a 9-point stencil in 2-D and 19 points in 3-D.  Two black
    cells are coupled in ``S`` through every red cell next to both of them.

    ``S`` is a CSR matrix in ascending cell order.  Its pattern and layout
    (sorted int32 indices, and the slot of every entry) are built once;
    ``assemble`` rewrites only the values.  The layout comes from scipy's
    counting-sort COO to CSR conversion of the entries numbered 1..nnz, whose
    values then name each entry's slot; only the few entries of each row are
    sorted among themselves.  Nothing here orders ``S`` for a factorization:
    the CG multiplies by it, and the Poisson LU lets SuperLU order its pinned
    block.

    Vectors of the system are in the order ``cells``: the black cells
    ascending, then the red cells ascending (``u = values[cells]``).  With ``K =
    -A_rb``, ``reduce`` turns a right-hand side ``f`` into ``f_b + K^T (f_r
    / d_r)`` and ``back_substitute`` completes a black solution ``x_b`` with
    ``x_r = (f_r + K x_b) / d_r``; both take the ``Elimination`` that
    ``assemble`` returned for the operator.
    """

    def __init__(self, colour, face_lo, face_hi):
        colour = np.asarray(colour) % 2 == 1
        if np.any(colour[face_lo] == colour[face_hi]):
            raise ValueError("a face joins two cells of the same colour")
        red = colour if 2 * np.count_nonzero(colour) >= colour.size else ~colour
        red_cells = np.flatnonzero(red)
        black = np.flatnonzero(~red)
        n_red, n_black = red_cells.size, black.size
        local = np.empty(colour.size, dtype=np.int32)
        local[red_cells] = np.arange(n_red)
        local[black] = np.arange(n_black)
        red_lo = red[face_lo]
        face_red = local[np.where(red_lo, face_lo, face_hi)]
        face_black = local[np.where(red_lo, face_hi, face_lo)]
        by_red = np.argsort(face_red, kind="stable").astype(np.int32)
        degree = np.bincount(face_red, minlength=n_red)
        self._pair_first, self._pair_second, self._pair_entry, upper, lower = _couplings(
            by_red, degree, face_black, n_black)

        # CSR layout: (upper, lower) per coupling, (lower, upper), the diagonal; the entry
        # numbers 1..nnz ride through the conversion as values and name the slots
        diagonal = np.arange(n_black, dtype=np.int32)
        rows = np.concatenate([upper, lower, diagonal])
        cols = np.concatenate([lower, upper, diagonal])
        self.matrix = sparse.csr_matrix((np.arange(1.0, rows.size + 1.0), (rows, cols)),
                                        shape=(n_black, n_black))
        self.matrix.sort_indices()
        slots = np.empty(rows.size, dtype=np.int32)
        slots[self.matrix.data.astype(np.int32) - 1] = np.arange(rows.size, dtype=np.int32)
        self.matrix.data[:] = 0.0
        n_pairs = upper.size
        self._upper_slots = slots[:n_pairs]
        self._lower_slots = slots[n_pairs:2 * n_pairs]
        self._diag_slots = slots[2 * n_pairs:]
        # K row by row: the faces of each red cell, with their black cells as columns
        self._coupling_indptr = np.concatenate([[0], np.cumsum(degree)]).astype(np.int32)
        self._coupling_indices = face_black[by_red]
        # index arrays that numpy indexes and counts with on every assembly are intp, so
        # that it does not convert them each time
        self._face_red = face_red.astype(np.intp)
        self._face_black = face_black.astype(np.intp)
        self._by_red = by_red.astype(np.intp)
        self.cells = np.concatenate([black, red_cells])

    def assemble(self, kappa, shift) -> Elimination:
        """Write ``S`` for face coefficients ``kappa`` and diagonal shift ``shift`` into ``matrix``.

        Returns the blocks that ``reduce`` and ``back_substitute`` take for
        this operator; they stay valid when ``matrix`` is refilled.
        """
        n_red = self._coupling_indptr.size - 1
        red_diag = shift + np.bincount(self._face_red, kappa, n_red)
        weight = kappa / red_diag[self._face_red]
        pairs = np.bincount(self._pair_entry,
                            kappa[self._pair_first] * weight[self._pair_second],
                            self._upper_slots.size)
        data = self.matrix.data
        data[self._upper_slots] = -pairs
        data[self._lower_slots] = -pairs
        data[self._diag_slots] = shift + np.bincount(self._face_black, kappa * (1.0 - weight),
                                                     self._diag_slots.size)
        coupling = sparse.csr_matrix((kappa[self._by_red], self._coupling_indices,
                                      self._coupling_indptr), shape=(n_red, self._diag_slots.size))
        return Elimination(coupling, coupling.T, red_diag)

    def reduce(self, values, elimination):
        """The right-hand side of ``S`` for ``values`` given in the order ``cells``."""
        n_black = self._diag_slots.size
        return values[:n_black] + elimination.coupling_t @ (values[n_black:]
                                                            / elimination.red_diag)

    def back_substitute(self, black, values, elimination):
        """The solution in the order ``cells`` whose black part is ``black``.

        ``values`` is the right-hand side in the order ``cells``.
        """
        red = (values[black.size:] + elimination.coupling @ black) / elimination.red_diag
        return np.concatenate([black, red])


class TwoLevel:
    """Two-level preconditioner of the Schur complement ``S`` of a ``ReducedFaceSystem``.

    ``aggregate`` labels every black cell, in the order of ``S``; the cells
    of one label make one coarse unknown (plain aggregation), so the
    prolongation ``P`` is piecewise constant and the Galerkin operator ``C =
    P^T S P`` sums the entries of ``S`` over each pair of aggregates.  The
    pattern of ``C``, its symmetric fill-reducing order and the CSC slot
    that every entry of ``S`` adds to are computed once; ``assemble`` refills
    ``coarse`` from ``system.matrix``, and the caller factorizes it with
    ``SUPERLU_NATURAL``.

    ``preconditioner(lu)``, with ``lu`` that factorization, applies one
    Jacobi sweep damped by ``JACOBI_WEIGHT``, the exact coarse correction
    and a second sweep; its products with ``S`` read ``system.matrix``, so
    they see every refill.  It is symmetric, and it is positive definite
    because the damped sweep contracts in the energy norm of ``S``: ``S``
    is symmetric and diagonally dominant with a positive diagonal ``D``, so
    the eigenvalues of ``D^-1 S`` lie in (0, 2) and their multiples by
    ``JACOBI_WEIGHT`` stay below 2.  So CG applies.
    """

    def __init__(self, system, aggregate):
        matrix = system.matrix
        _, aggregate = np.unique(aggregate, return_inverse=True)
        n_coarse = int(aggregate.max(initial=-1)) + 1
        cols = aggregate[matrix.indices]
        rows = aggregate[np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))]
        coupled = np.unique(rows[rows < cols] * n_coarse + cols[rows < cols])
        perm = _pattern_order(coupled // n_coarse, coupled % n_coarse, n_coarse).astype(np.intp)
        # in the order of C, each entry of S falls on the slot of its key in CSC order
        keys, self._slots = np.unique(perm[cols] * n_coarse + perm[rows], return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n_coarse,
                                                            minlength=n_coarse))])
        self.coarse = sparse.csc_matrix(
            (np.zeros(keys.size), (keys % n_coarse).astype(np.int32), indptr.astype(np.int32)),
            shape=(n_coarse, n_coarse))
        self._aggregate = perm[aggregate].astype(np.intp)
        self._matrix = matrix

    def assemble(self):
        """``coarse`` refilled from the current values of ``S``."""
        self.coarse.data[:] = np.bincount(self._slots, self._matrix.data, self.coarse.nnz)
        return self.coarse

    def preconditioner(self, lu):
        """The preconditioner as a function of the residual, ``lu`` solving with ``coarse``."""
        matrix, aggregate, n_coarse = self._matrix, self._aggregate, self.coarse.shape[0]
        weight = JACOBI_WEIGHT / matrix.diagonal()

        def apply(residual):
            x = weight * residual
            x += lu.solve(np.bincount(aggregate, residual - matrix @ x, n_coarse))[aggregate]
            return x + weight * (residual - matrix @ x)

        return apply


@dataclass
class PoissonCounts:
    """What the solves of one ``ZeroMeanDirect`` did."""

    solves: int = 0
    refinements: int = 0         # iterative-refinement corrections
    max_residual: float = 0.0    # largest accepted relative residual


class ZeroMeanDirect:
    """Cached LU of a singular operator with constant nullspace; zero-mean solves.

    ``ZeroMeanDirect(system, kappa)`` takes the two-point operator
    ``face_laplacian(kappa)`` on the faces of the ``ReducedFaceSystem``
    ``system`` and assembles its Schur complement ``S`` with shift 0, which
    keeps the constant nullspace on the black cells.  A pinned solve reduces
    the right-hand side, back-solves and back-substitutes the red cells.  The
    blocks it keeps are its own, so refilling ``system.matrix`` afterwards
    changes nothing.  ``ZeroMeanDirect(matrix)`` takes any sparse operator,
    such as the full-tensor Poisson operator, which is not symmetric.

    Both pin unknown 0 (the first black cell of ``S``, or node 0) by dropping
    its row and column, and SuperLU factors the rest with partial pivoting
    in the symmetric minimum-degree order ``MMD_AT_PLUS_A`` of its pattern.
    On the 52k-cell ``micro_large`` grid the two-point LU holds 1.47M
    nonzeros and that of the assembled two-point operator 1.77M; on the
    128^2 macro grid 0.57M against 0.66M, and 0.67M with ``S`` pinned at its
    last black cell instead.

    For a connected operator the pinned block is nonsingular.  A solve
    mean-projects the right-hand side (it must be compatible up to
    rounding), fixes the pinned value to 0 and mean-projects the result, so
    it returns the zero-mean solution.  Iterative refinement then applies at
    most ``MAX_REFINEMENTS`` corrections, each followed by a check of the
    residual of the whole operator against ``tol``: the matrix product, or
    on the two-point path the net face flux ``sum_f kappa_f (phi_j -
    phi_nb)`` of every cell, summed in the red-black blocks of the operator.
    ``counts`` records the solves, their corrections and largest residual.
    """

    def __init__(self, operator, kappa=None):
        if isinstance(operator, ReducedFaceSystem):
            self.n = operator.cells.size
            # the reduced path works in the order ``cells``
            self._system, self._cells = operator, operator.cells
            self._elimination = operator.assemble(kappa, 0.0)
            # diagonal of the black rows: the sum of kappa over each black cell's faces
            self._black_diag = self._elimination.coupling.sum(axis=0).A1
            matrix = operator.matrix
        else:
            self.matrix = matrix = operator.tocsr()
            self.n = matrix.shape[0]
            self._system, self._cells = None, slice(None)
        try:
            self._lu = splu(matrix[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A", **SUPERNODES)
        except RuntimeError as exc:
            raise SolverError(f"Poisson factorization failed (n = {self.n}): {exc}") from exc
        self.counts = PoissonCounts()

    def _pinned_solve(self, rhs):
        system = self._system
        pinned = rhs if system is None else system.reduce(rhs, self._elimination)
        phi = np.concatenate([[0.0], self._lu.solve(pinned[1:])])
        if system is not None:
            phi = system.back_substitute(phi, rhs, self._elimination)
        return phi - phi.mean()

    def _apply(self, phi):
        if self._system is None:
            return self.matrix @ phi
        coupling, coupling_t, red_diag = self._elimination
        black, red = phi[:self._black_diag.size], phi[self._black_diag.size:]
        return np.concatenate([self._black_diag * black - coupling_t @ red,
                               red_diag * red - coupling @ black])

    def solve(self, rhs, tol=POISSON_TOL):
        """Zero-mean solution; iterative refinement until the residual meets ``tol``."""
        counts = self.counts
        counts.solves += 1
        b = rhs - rhs.mean()
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros(self.n)
        b = b[self._cells]
        phi = self._pinned_solve(b)
        for corrections in range(MAX_REFINEMENTS + 1):
            residual = b - self._apply(phi)
            residual -= residual.mean()
            rel = float(np.linalg.norm(residual)) / b_norm
            if np.isfinite(rel) and rel <= tol:
                counts.max_residual = max(counts.max_residual, rel)
                solution = np.empty(self.n)
                solution[self._cells] = phi
                return solution
            if corrections < MAX_REFINEMENTS:
                counts.refinements += 1
                phi = phi + self._pinned_solve(residual)
                phi -= phi.mean()
        raise SolverError(
            f"direct Neumann solve residual {rel:.3e} exceeds tolerance {tol:.3e}",
            residual=rel,
        )
