"""Sparse operators and solvers for the singular Neumann/periodic systems.

The pure-Neumann operators here are singular with a constant nullspace and
compatible right-hand sides.  They have two zero-mean solvers.
``ZeroMeanDirect`` pins one unknown to 0, factorizes the nonsingular rest
once and mean-projects each solution: the Poisson problem is re-solved every
transport step with a constant operator, so the factorization pays off.
``zero_mean_cg`` runs SciPy's ``cg`` on an SPD operator that is solved only
once, such as a periodic cell problem.

The implicit transport matrices ``face_laplacian + I/dt`` change every step
but keep their sparsity pattern, and every face joins two cells of opposite
grid-index parity.  ``ReducedFaceSystem`` eliminates the larger parity class
exactly (its block is diagonal) and keeps the Schur complement on the other
class: an SPD M-matrix on half the cells with a 9-point (2-D) or 19-point
(3-D) stencil.  It computes the complement's pattern and its symmetric
fill-reducing ordering once and refills a CSC matrix laid out in that order
in place; the caller factorizes it with the ``NATURAL`` column order
(``SUPERLU_NATURAL``).  Each fill returns the operator's own ``Elimination``
blocks, so one system serves the transport matrices of every step and the
two-point Poisson operator (shift 0, pinned at its last black cell).  On
the 52k-cell ``micro_large`` grid the reduced LU holds 1.47M nonzeros,
against 1.77M for the full system in its own order.  Every SuperLU
factorization here, the incomplete one that computes the order included,
uses the supernode settings ``SUPERNODES``: on one thread these systems
factor faster without relaxed supernodes or column panels.

A full-tensor Poisson operator has cross terms, so it is neither two-point
nor symmetric.  ``ZeroMeanDirect`` factors its block ``A[1:, 1:]`` pinned
at node 0 with SuperLU's partial pivoting, in the symmetric minimum-degree
order ``MMD_AT_PLUS_A`` of the block's own 9-point pattern: on the pinned
64^2 full-tensor block, partial pivoting in the 5-point face order filled
the LU to 7.5M nonzeros in 3.6 s, against 0.33M in 29 ms with the default
``COLAMD`` order and 0.24M in 12 ms with ``MMD_AT_PLUS_A`` (one thread).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import cg, spilu, splu

from .errors import SolverError

MAX_REFINEMENTS = 2   # iterative-refinement passes of ZeroMeanDirect.solve

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


def zero_mean_cg(matrix, rhs, tol):
    """Zero-mean solution of the SPD singular system ``matrix`` by SciPy's ``cg``.

    CG from 0 on the mean-projected right-hand side stays orthogonal to the
    constant nullspace.  Returns the mean-projected solution, its true
    relative residual and the number of iterations.  SolverError (with that
    residual) is raised only when ``cg`` does not reach ``tol`` within
    max(100, 50 sqrt(n)) iterations; a zero right-hand side takes none.
    """
    b = rhs - rhs.mean()
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    values, info = cg(matrix, b, rtol=tol, atol=0.0,
                      maxiter=max(100, int(50 * np.sqrt(b.size))), callback=count)
    values = values - values.mean()
    b_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(b - matrix @ values)) / b_norm if b_norm else 0.0
    if info != 0:
        raise SolverError(f"CG stopped after {iterations} iterations at relative residual "
                          f"{residual:.3e} (tol {tol:.3e})", residual=residual)
    return values, residual, iterations


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
    end here, before the order's incomplete LU and the first factorization
    allocate.
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

    The pattern of ``S``, its symmetric fill-reducing order and the CSC
    layout in that order (sorted int32 indices, and the slot of every entry)
    are built once; ``assemble`` rewrites only the values.  The layout comes
    from scipy's counting-sort COO to CSC conversion of the entries numbered
    1..nnz, whose values then name each entry's slot; only the few entries
    of each column are sorted among themselves.

    Vectors of the system are in the order ``cells``: the black cells in the
    order of ``S``, then the red cells (``u = values[cells]``).  With ``K =
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
        perm = _pattern_order(upper, lower, n_black)

        # CSC layout in that order: (upper, lower) per coupling, (lower, upper), the diagonal;
        # the entry numbers 1..nnz ride through the conversion as values and name the slots
        diagonal = np.arange(n_black, dtype=np.int32)
        rows = np.concatenate([perm[upper], perm[lower], diagonal])
        cols = np.concatenate([perm[lower], perm[upper], diagonal])
        self.matrix = sparse.csc_matrix((np.arange(1.0, rows.size + 1.0), (rows, cols)),
                                        shape=(n_black, n_black))
        self.matrix.sort_indices()
        slots = np.empty(rows.size, dtype=np.int32)
        slots[self.matrix.data.astype(np.int32) - 1] = np.arange(rows.size, dtype=np.int32)
        self.matrix.data[:] = 0.0
        n_pairs = upper.size
        self._upper_slots = slots[:n_pairs]
        self._lower_slots = slots[n_pairs:2 * n_pairs]
        self._diag_slots = slots[2 * n_pairs:]
        self.perm = perm
        # K row by row: the faces of each red cell, with their black cells as columns
        self._coupling_indptr = np.concatenate([[0], np.cumsum(degree)]).astype(np.int32)
        self._coupling_indices = perm[face_black][by_red]
        # index arrays that numpy indexes and counts with on every assembly are intp, so
        # that it does not convert them each time
        self._face_red = face_red.astype(np.intp)
        self._face_black = perm[face_black].astype(np.intp)
        self._by_red = by_red.astype(np.intp)
        self.cells = np.empty(colour.size, dtype=np.intp)
        self.cells[perm] = black
        self.cells[n_black:] = red_cells

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


class ZeroMeanDirect:
    """Cached LU of a singular operator with constant nullspace; zero-mean solves.

    ``ZeroMeanDirect(system, kappa)`` takes the two-point operator
    ``face_laplacian(kappa)`` on the faces of the ``ReducedFaceSystem``
    ``system``.  It assembles the Schur complement with shift 0, which keeps
    the constant nullspace on the black cells, pins the last black cell in
    elimination order by dropping its row and column, and factors the rest in
    the system's cached order with ``SUPERLU_NATURAL``.  A pinned solve
    reduces the right-hand side, back-solves and back-substitutes the red
    cells.  The blocks it keeps are its own, so refilling ``system.matrix``
    afterwards changes nothing.  On the 52k-cell ``micro_large`` grid the LU
    holds 1.47M nonzeros.

    ``ZeroMeanDirect(matrix)`` takes any sparse operator, such as the
    full-tensor Poisson operator, which is not symmetric.  It factors the
    block ``A[1:, 1:]`` pinned at node 0 in the symmetric minimum-degree
    order ``MMD_AT_PLUS_A`` with SuperLU's partial pivoting (1.77M nonzeros
    for the two-point operator of ``micro_large``).

    For a connected operator the pinned block is nonsingular.  A solve
    mean-projects the right-hand side (it must be compatible up to
    rounding), fixes the pinned value to 0 and mean-projects the result, so
    it returns the zero-mean solution.  Iterative refinement then applies at
    most ``MAX_REFINEMENTS`` corrections, each followed by a check of the
    residual of the whole operator against ``tol``: the matrix product, or
    on the two-point path the net face flux ``sum_f kappa_f (phi_j -
    phi_nb)`` of every cell, summed in the red-black blocks of the operator.
    """

    def __init__(self, operator, kappa=None):
        if isinstance(operator, ReducedFaceSystem):
            self.n = operator.cells.size
            # the reduced path works in the system's order
            self._system, self._cells = operator, operator.cells
            self._elimination = operator.assemble(kappa, 0.0)
            # diagonal of the black rows: the sum of kappa over each black cell's faces
            self._black_diag = self._elimination.coupling.sum(axis=0).A1
            pinned, options = operator.matrix[:-1, :-1], SUPERLU_NATURAL
        else:
            self.matrix = operator.tocsr()
            self.n = self.matrix.shape[0]
            self._system, self._cells = None, slice(None)
            pinned = self.matrix[1:, 1:].tocsc()
            options = {"permc_spec": "MMD_AT_PLUS_A", **SUPERNODES}
        try:
            self._lu = splu(pinned, **options)
        except RuntimeError as exc:
            raise SolverError(f"Poisson factorization failed (n = {self.n}): {exc}") from exc

    def _pinned_solve(self, rhs):
        if self._system is None:
            phi = np.concatenate([[0.0], self._lu.solve(rhs[1:])])
        else:
            black = self._system.reduce(rhs, self._elimination)
            black[:-1] = self._lu.solve(black[:-1])
            black[-1] = 0.0
            phi = self._system.back_substitute(black, rhs, self._elimination)
        return phi - phi.mean()

    def _apply(self, phi):
        if self._system is None:
            return self.matrix @ phi
        coupling, coupling_t, red_diag = self._elimination
        black, red = phi[:self._black_diag.size], phi[self._black_diag.size:]
        return np.concatenate([self._black_diag * black - coupling_t @ red,
                               red_diag * red - coupling @ black])

    def solve(self, rhs, tol=1e-10):
        """Zero-mean solution; iterative refinement until the residual meets ``tol``."""
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
                solution = np.empty(self.n)
                solution[self._cells] = phi
                return solution
            if corrections < MAX_REFINEMENTS:
                phi = phi + self._pinned_solve(residual)
                phi -= phi.mean()
        raise SolverError(
            f"direct Neumann solve residual {rel:.3e} exceeds tolerance {tol:.3e}",
            residual=rel,
        )
