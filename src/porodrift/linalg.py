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
factorization of a transport solve.  The system takes right-hand sides and
returns solutions in cell order; ``black`` names the cells of S's unknowns.
The red-black block is never stored as a matrix: the elimination multiplies
by it on the system's face lists, summing in face order, given the
operator's face coefficients and the red diagonal that its fill returns, so
one system serves the transport matrices of every step and the two-point
Poisson operator (shift 0).

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

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import spilu, splu

from .errors import SolverError

MAX_REFINEMENTS = 2   # iterative-refinement passes of ZeroMeanDirect.solve
POISSON_TOL = 1e-10   # relative residual every Poisson solve meets (README, Tolerances)
JACOBI_WEIGHT = 0.7   # damping of the Jacobi sweeps of TwoLevel.preconditioner

# CG's error never grows in the energy norm, so from 0 its residual stays below sqrt(cond(A))
# ||b|| in exact arithmetic: past DIVERGENCE_FACTOR ||b|| the system is singular in double
# precision (cond(A) > 1/eps).  From a guess, rounding leaves about eps times the largest
# residual seen in the true residual, so past that bound no tolerance below sqrt(eps) = 1.5e-8
# can be met
DIVERGENCE_FACTOR = 1.0 / math.sqrt(np.finfo(float).eps)

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


def _cg_recurrence(matrix, b, atol, maxiter, preconditioner, limit):
    """SciPy's preconditioned CG from 0 until ``||r|| < atol``: its operations, in its order.

    Returns the iterate, the number of iterations and whether the norm test
    passed within ``maxiter``; it stops failed at the first ``||r||`` that is
    not finite or is above ``limit``.
    """
    x, r = np.zeros_like(b), b.copy()
    for iteration in range(maxiter):
        # numpy's norm of a real vector, without its overhead
        norm = np.sqrt(r.dot(r))
        if norm < atol:
            return x, iteration, True
        if not math.isfinite(norm) or norm > limit:
            return x, iteration, False
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
    does not reach its target within max(100, 50 sqrt(n)) iterations, at
    once when its residual norm turns non-finite (a NaN or overflowed
    system) or exceeds ``DIVERGENCE_FACTOR ||b||`` (a guess or an iterate
    that no tolerance below 1.5e-8 can correct), or when the true residual
    is still above ``tol`` after the restart; a zero right-hand side takes
    no iteration.
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
            matrix, defect, tol * b_norm, max(100, int(50 * np.sqrt(b.size))), preconditioner,
            DIVERGENCE_FACTOR * b_norm)
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


def _entries(rows, cols, n):
    """The distinct pairs ``(rows, cols)`` of indices below ``n``, and the entry of each pair.

    Returns the distinct pairs as two arrays in row-major order, which is a
    CSR pattern with sorted indices (a CSC pattern when called with the
    pairs swapped), and for every pair given the number of its entry in that
    order (intp); repeated pairs share one entry.  The keys ``row * n + col``
    are int32 when every key fits, ``n * n < 2**31``, which halves the sort's
    memory, and intp otherwise; the pairs come back in the key type.
    """
    keys = rows.astype(np.int32 if n * n < 2**31 else np.intp)
    keys *= n
    keys += cols
    keys, entry = np.unique(keys, return_inverse=True)
    return keys // n, keys % n, entry


def _couplings(by_red, degree, face_black, n_black):
    """The entries that eliminating the red cells adds between black cells.

    ``by_red`` lists the faces grouped by red cell and ``degree`` counts them
    per red cell.  Faces ``first[k]`` and ``second[k]`` meet at a red cell, so
    their black cells are coupled: the pair adds to entry ``entry[k]``, which
    joins the black cells ``upper[entry[k]] < lower[entry[k]]``.  Temporaries
    end here, before the first factorization allocates.
    """
    start = np.cumsum(degree) - degree
    firsts, seconds = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
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
    upper, lower, entry = _entries(np.minimum(b_first, b_second),
                                   np.maximum(b_first, b_second), n_black)
    return first, second, entry, upper, lower


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
    ``assemble`` rewrites only the values.  ``_entries`` numbers the entries
    of the pattern in row-major order, which is the CSR order, so the number
    of an entry is its slot.  Nothing here orders ``S`` for a factorization:
    the CG multiplies by it, and the Poisson LU lets SuperLU order its pinned
    block.

    The unknowns of ``S`` are the cells ``black`` (ascending), and the
    system keeps its face lists ``face_lo`` and ``face_hi``.  Right-hand
    sides and solutions of the operator are in cell order.  With ``K =
    -A_rb``, ``reduce`` turns a right-hand side ``f`` into ``f_b + K^T (f_r
    / d_r)`` and ``back_substitute`` completes a black solution ``x_b`` with
    ``x_r = (f_r + K x_b) / d_r``; both take the operator's ``kappa`` and
    the ``d_r`` that ``assemble`` returned for it.  ``K`` has one entry
    ``kappa_f`` per face, at its red and black cell, so both products run
    on the face lists and sum each cell's terms in face order: the order of
    SciPy's sparse products with ``K`` stored row by row (faces grouped by
    red cell) and with ``K^T`` stored row by row (faces grouped by black
    cell), each in face order within a row.  The system keeps no
    face-sized permutation.
    """

    def __init__(self, colour, face_lo, face_hi):
        colour = np.asarray(colour) % 2 == 1
        if np.any(colour[face_lo] == colour[face_hi]):
            raise ValueError("a face joins two cells of the same colour")
        red = colour if 2 * np.count_nonzero(colour) >= colour.size else ~colour
        self._red, self.black = np.flatnonzero(red), np.flatnonzero(~red)
        self.n_cells, self.face_lo, self.face_hi = colour.size, face_lo, face_hi
        n_red, n_black = self._red.size, self.black.size
        # every index array that numpy gathers, scatters or counts with is intp, its native
        # index type, so that no call converts it
        local = np.empty(colour.size, dtype=np.intp)
        local[self._red] = np.arange(n_red)
        local[self.black] = np.arange(n_black)
        red_lo = red[face_lo]
        self._face_red = local[np.where(red_lo, face_lo, face_hi)]
        self._face_black = local[np.where(red_lo, face_hi, face_lo)]
        degree = np.bincount(self._face_red, minlength=n_red)
        self._pair_first, self._pair_second, self._pair_entry, upper, lower = _couplings(
            np.argsort(self._face_red, kind="stable"), degree, self._face_black, n_black)

        # CSR layout: (upper, lower) per coupling, (lower, upper), the diagonal; the entry of
        # each pair in row-major order is its slot
        diagonal = np.arange(n_black)
        rows, cols, slots = _entries(np.concatenate([upper, lower, diagonal]),
                                     np.concatenate([lower, upper, diagonal]), n_black)
        self.matrix = sparse.csr_matrix(
            (np.zeros(rows.size), cols.astype(np.int32),
             np.searchsorted(rows, np.arange(n_black + 1)).astype(np.int32)),
            shape=(n_black, n_black))
        self._upper_slots, self._lower_slots, self._diag_slots = np.split(
            slots, [upper.size, 2 * upper.size])

    def assemble(self, kappa, shift):
        """Write ``S`` for face coefficients ``kappa`` and diagonal shift ``shift`` into ``matrix``.

        Returns the red diagonal ``d_r`` that ``reduce`` and
        ``back_substitute`` take, with ``kappa``, for this operator; it stays
        valid when ``matrix`` is refilled.
        """
        red_diag = shift + np.bincount(self._face_red, kappa, self._red.size)
        # the face- and pair-sized temporaries are reused in place, which saves an allocation
        # each per solve; each in-place step is the operation of its out-of-place form
        weight = red_diag[self._face_red]
        np.divide(kappa, weight, out=weight)
        products = kappa[self._pair_first]
        products *= weight[self._pair_second]
        pairs = np.bincount(self._pair_entry, products, self._upper_slots.size)
        np.negative(pairs, out=pairs)
        data = self.matrix.data
        data[self._upper_slots] = pairs
        data[self._lower_slots] = pairs
        np.subtract(1.0, weight, out=weight)
        weight *= kappa
        data[self._diag_slots] = shift + np.bincount(self._face_black, weight,
                                                     self._diag_slots.size)
        return red_diag

    def diagonal(self):
        """The diagonal of ``S`` as last assembled, in the order of ``black``."""
        return self.matrix.data[self._diag_slots]

    def reduce(self, values, kappa, red_diag):
        """The right-hand side of ``S`` for the operator's right-hand side ``values``.

        ``K^T (f_r / d_r)`` sums each black cell's terms in face order, the
        order of the CSR product with ``K^T``.
        """
        scaled = values[self._red] / red_diag
        return values[self.black] + np.bincount(self._face_black, kappa * scaled[self._face_red],
                                                self.black.size)

    def back_substitute(self, black, values, kappa, red_diag):
        """The operator's solution whose part on ``self.black`` is ``black``.

        ``values`` is the operator's right-hand side.  ``K x_b`` sums each
        red cell's faces in face order, the order of the CSR product.
        """
        solution = np.empty(values.size)
        solution[self.black] = black
        red = values[self._red] + np.bincount(self._face_red, kappa * black[self._face_black],
                                              self._red.size)
        solution[self._red] = red / red_diag
        return solution


class TwoLevel:
    """Two-level preconditioner of the Schur complement ``S`` of a ``ReducedFaceSystem``.

    ``aggregate`` labels every black cell, in the order of ``S``; the cells
    of one label make one coarse unknown (plain aggregation), so the
    prolongation ``P`` is piecewise constant and the Galerkin operator ``C =
    P^T S P`` sums the entries of ``S`` over each pair of aggregates.  The
    pattern of ``C``, its symmetric fill-reducing order ``perm`` and the CSC
    slot that every entry of ``S`` adds to are computed once, in one
    numbering pass: ``_entries`` numbers the distinct aggregate pairs of the
    entries of ``S``, an argsort of those pairs by ``(perm[col],
    perm[row])`` gives the CSC layout of ``C`` in its cached order, and the
    slot of each entry is the rank of its pair in that sort.  ``assemble``
    refills ``coarse`` from ``system.matrix``, and the caller factorizes it
    with ``SUPERLU_NATURAL``.

    ``preconditioner(lu)``, with ``lu`` that factorization, applies one
    Jacobi sweep damped by ``JACOBI_WEIGHT``, the exact coarse correction
    and a second sweep; its products with ``S`` read ``system.matrix``, so
    they see every refill, and its sweeps the diagonal slots of the last
    refill (``system.diagonal()``).  It is symmetric, and it is positive definite
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
        # C's pattern is symmetric, so its CSR arrays are its CSC arrays; with the diagonal
        # dominant by one it has the order of every matrix of that pattern
        pattern_rows, pattern_cols, entry = _entries(rows, cols, n_coarse)
        indptr = np.searchsorted(pattern_rows, np.arange(n_coarse + 1))
        unit = np.where(pattern_rows == pattern_cols, np.diff(indptr)[pattern_rows], -1.0)
        perm = symmetric_ordering(sparse.csc_matrix((unit, pattern_cols, indptr),
                                                    shape=(n_coarse, n_coarse))).astype(np.intp)
        # in the order of C, each entry of S falls on the slot of its pair in CSC order: the
        # rank of (perm[col], perm[row]) among C's distinct pairs
        coarse_rows, coarse_cols = perm[pattern_rows], perm[pattern_cols]
        order = np.argsort(coarse_cols * n_coarse + coarse_rows)
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.arange(order.size)
        self._slots = rank[entry]
        coarse_rows, coarse_cols = coarse_rows[order], coarse_cols[order]
        self.coarse = sparse.csc_matrix(
            (np.zeros(coarse_rows.size), coarse_rows.astype(np.int32),
             np.searchsorted(coarse_cols, np.arange(n_coarse + 1)).astype(np.int32)),
            shape=(n_coarse, n_coarse))
        self._aggregate = perm[aggregate]
        self._system = system

    def assemble(self):
        """``coarse`` refilled from the current values of ``S``."""
        self.coarse.data[:] = np.bincount(self._slots, self._system.matrix.data, self.coarse.nnz)
        return self.coarse

    def preconditioner(self, lu):
        """The preconditioner as a function of the residual, ``lu`` solving with ``coarse``."""
        matrix, aggregate, n_coarse = self._system.matrix, self._aggregate, self.coarse.shape[0]
        weight = JACOBI_WEIGHT / self._system.diagonal()

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

    ``ZeroMeanDirect(system, kappa, axis_counts)`` takes the two-point
    operator ``face_laplacian(np.repeat(kappa, axis_counts))`` on the faces
    of the ``ReducedFaceSystem`` ``system`` and assembles its Schur
    complement ``S`` with shift 0, which keeps the constant nullspace on the
    black cells.  The faces are grouped by axis: ``kappa`` holds one
    coefficient per axis (the Poisson tensor's diagonal entry times the
    facet area over h) and ``axis_counts``, the grid's own array, counts the
    faces of each axis, so the coefficient is repeated per face once per
    solve, for its pinned solves and residuals, and once per energy, and
    never stored per face.  A pinned solve reduces the right-hand
    side, back-solves and back-substitutes the red cells, all in cell order.
    It keeps its LU and the red diagonal of its own fill, so refilling
    ``system.matrix`` afterwards changes nothing.  ``ZeroMeanDirect(matrix)``
    takes any sparse operator, such as the full-tensor Poisson operator,
    which is not symmetric.

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
    residual of the whole operator against ``POISSON_TOL``: the matrix
    product, or on the two-point path the net face flux ``sum_f kappa_f
    (phi_j - phi_nb)`` of every cell (``face_divergence``).
    ``counts`` records the solves, their corrections and largest residual.
    """

    def __init__(self, operator, kappa=None, axis_counts=None):
        if isinstance(operator, ReducedFaceSystem):
            self.n = operator.n_cells
            self._system, self._kappa, self._axis_counts = operator, kappa, axis_counts
            self._red_diag = operator.assemble(self._face_kappa(), 0.0)
            matrix = operator.matrix
        else:
            self.matrix = matrix = operator.tocsr()
            self.n = matrix.shape[0]
            self._system = None
        try:
            self._lu = splu(matrix[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A", **SUPERNODES)
        except RuntimeError as exc:
            raise SolverError(f"Poisson factorization failed (n = {self.n}): {exc}") from exc
        self.counts = PoissonCounts()

    def _face_kappa(self):
        return np.repeat(self._kappa, self._axis_counts)

    def _pinned_solve(self, rhs, kappa):
        system = self._system
        if system is None:
            phi = np.concatenate([[0.0], self._lu.solve(rhs[1:])])
        else:
            pinned = system.reduce(rhs, kappa, self._red_diag)
            phi = system.back_substitute(np.concatenate([[0.0], self._lu.solve(pinned[1:])]),
                                         rhs, kappa, self._red_diag)
        return phi - phi.mean()

    def _apply(self, phi, kappa):
        if self._system is None:
            return self.matrix @ phi
        lo, hi = self._system.face_lo, self._system.face_hi
        return face_divergence(self.n, lo, hi, kappa * (phi[hi] - phi[lo]))

    def energy(self, phi):
        """``(1/2) phi . P phi``, on the two-point path ``sum_f kappa_f (phi_hi - phi_lo)^2/2``."""
        if self._system is None:
            return 0.5 * float(phi @ (self.matrix @ phi))
        lo, hi = self._system.face_lo, self._system.face_hi
        return 0.5 * float(np.sum(self._face_kappa() * (phi[hi] - phi[lo]) ** 2))

    def solve(self, rhs):
        """Zero-mean solution; iterative refinement until the residual meets ``POISSON_TOL``."""
        counts = self.counts
        counts.solves += 1
        b = rhs - rhs.mean()
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros(self.n)
        # the two-point path's face coefficients, repeated over the faces once per solve
        kappa = None if self._system is None else self._face_kappa()
        phi = self._pinned_solve(b, kappa)
        for corrections in range(MAX_REFINEMENTS + 1):
            residual = b - self._apply(phi, kappa)
            residual -= residual.mean()
            rel = float(np.linalg.norm(residual)) / b_norm
            if np.isfinite(rel) and rel <= POISSON_TOL:
                counts.max_residual = max(counts.max_residual, rel)
                return phi
            if corrections < MAX_REFINEMENTS:
                counts.refinements += 1
                phi = phi + self._pinned_solve(residual, kappa)
                phi -= phi.mean()
        raise SolverError(
            f"direct Neumann solve residual {rel:.3e} exceeds tolerance {POISSON_TOL:.3e}",
            residual=rel,
        )
