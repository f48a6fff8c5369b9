"""Sparse operators and solvers for the singular Neumann/periodic systems.

All pure-Neumann and periodic operators here are singular with a constant
nullspace and compatible right-hand sides.  Two strategies are used:

* ``projected_cg`` removes the constant mode by mean-projecting the
  right-hand side and the iterate each step.  Used for the periodic cell
  problems.
* ``ZeroMeanDirect`` pins one node to 0, factorizes the nonsingular block
  ``A[1:, 1:]`` once and mean-projects each solution.  The Poisson problem
  is re-solved every transport step with a constant matrix, so the
  factorization pays off.  The block is as sparse as ``A`` and its pattern
  is symmetric, so it is factored in the symmetric minimum-degree order
  ``MMD_AT_PLUS_A``, with SuperLU's partial pivoting.

The implicit transport matrices ``face_laplacian + I/dt`` change every step
but keep their sparsity pattern.  ``OrderedFaceSystem`` computes their
symmetric fill-reducing ordering once, from the pattern alone, and refills a
CSC matrix laid out in that order in place; the caller factorizes it with the
``NATURAL`` column order (``SUPERLU_NATURAL``).  Every SuperLU factorization
here uses the supernode settings ``SUPERNODES``: on one thread the 5- and
7-point systems factor faster without relaxed supernodes or column panels.

The Poisson block computes its own order rather than reusing the transport's
cached one.  With a full tensor its pattern is the 9-point one, not the
transport's 5-point pattern.  On the pinned 64^2 full-tensor block, partial
pivoting in the cached 5-point order filled the LU to 7.5M nonzeros in
3.6 s, against 0.33M in 29 ms with the default ``COLAMD`` order and 0.24M
in 12 ms with ``MMD_AT_PLUS_A`` of the block's own pattern (one thread).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import spilu, splu

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


def symmetric_ordering(n_cells, face_lo, face_hi):
    """SuperLU's ``MMD_AT_PLUS_A`` column order of face Laplacians plus a diagonal.

    Cell ``i`` goes to position ``perm[i]``.  The order depends only on the
    sparsity pattern, so the no-fill incomplete LU of the unit-coefficient
    matrix yields the same permutation as a full symmetric-mode LU, at a
    fraction of its cost.
    """
    unit = face_laplacian(n_cells, face_lo, face_hi, 1.0) + sparse.identity(n_cells)
    return spilu(unit.tocsc(), drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                 **_SYMMETRIC).perm_c


class OrderedFaceSystem:
    """``face_laplacian(kappa) + diag(shift)`` assembled in place in its fill-reducing order.

    The CSC pattern (int32 indices) is built once; ``assemble`` rewrites only
    its values.  ``to_order`` and ``from_order`` move a cell vector into and
    out of the permuted numbering.
    """

    def __init__(self, n_cells, face_lo, face_hi):
        self.face_lo = face_lo
        self.face_hi = face_hi
        perm = symmetric_ordering(n_cells, face_lo, face_hi).astype(np.int32)
        # entries: (lo, hi) per face, (hi, lo) per face, then the diagonal
        rows = np.concatenate([perm[face_lo], perm[face_hi], perm])
        cols = np.concatenate([perm[face_hi], perm[face_lo], perm])
        order = np.lexsort((rows, cols))
        slots = np.empty(order.size, dtype=np.int32)
        slots[order] = np.arange(order.size, dtype=np.int32)
        indptr = np.zeros(n_cells + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n_cells), out=indptr[1:])
        self.matrix = sparse.csc_matrix(
            (np.zeros(order.size), rows[order], indptr), shape=(n_cells, n_cells))
        if not self.matrix.has_canonical_format:
            raise ValueError("face lists repeat a pair of cells")
        n_faces = face_lo.size
        self._lo_slots = slots[:n_faces]
        self._hi_slots = slots[n_faces:2 * n_faces]
        self._diag_slots = slots[2 * n_faces:]
        self.perm = perm

    def assemble(self, kappa, shift):
        """The matrix with face coefficients ``kappa`` and diagonal shift ``shift``."""
        data = self.matrix.data
        n = self.perm.size
        data[self._lo_slots] = -kappa
        data[self._hi_slots] = -kappa
        data[self._diag_slots] = (shift + np.bincount(self.face_lo, kappa, n)
                                  + np.bincount(self.face_hi, kappa, n))
        return self.matrix

    def to_order(self, values):
        ordered = np.empty_like(values)
        ordered[self.perm] = values
        return ordered

    def from_order(self, ordered):
        return ordered[self.perm]


def projected_cg(matrix, rhs, tol=1e-10, max_iter=None):
    """Solve the singular SPD system ``matrix x = rhs`` on the zero-mean subspace.

    Returns ``(x, rel_residual, iterations)`` with mean(x) = 0.  Raises
    SolverError (carrying the final relative residual) if the iteration does
    not reach ``tol`` within ``max_iter`` (default 50 * sqrt(n)).
    """
    n = rhs.size
    if max_iter is None:
        max_iter = max(100, int(50 * np.sqrt(n)))
    b = rhs - rhs.mean()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for iteration in range(1, max_iter + 1):
        ap = matrix @ p
        ap -= ap.mean()
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SolverError(
                f"projected CG broke down at iteration {iteration} (curvature {denom:.3e})",
                residual=float(np.sqrt(rs)) / b_norm,
            )
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        x -= x.mean()
        r -= r.mean()
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b_norm:
            ax = matrix @ x
            true_res = float(np.linalg.norm(b - (ax - ax.mean()))) / b_norm
            return x, true_res, iteration
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(
        f"projected CG did not converge in {max_iter} iterations",
        residual=float(np.sqrt(rs)) / b_norm,
    )


class ZeroMeanDirect:
    """Cached LU of a singular operator with constant nullspace, pinned at node 0.

    For a connected operator the block ``A[1:, 1:]`` is nonsingular.  A solve
    fixes the pinned value to 0 and mean-projects the result, so it returns
    the zero-mean solution.  The right-hand side is mean-projected first (it
    must be compatible up to rounding).

    The block is factored once, in the symmetric minimum-degree order
    ``MMD_AT_PLUS_A`` with SuperLU's default partial pivoting: on the 52k-cell
    ``micro_large`` grid its LU holds 1.77M nonzeros, against 2.85M in the
    default ``COLAMD`` order.  It does not reuse the transport's cached face
    order, which is computed for the 5-point pattern (see the module notes).
    """

    def __init__(self, matrix):
        self.n = matrix.shape[0]
        self.matrix = matrix.tocsr()
        try:
            self._lu = splu(self.matrix[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
                            **SUPERNODES)
        except RuntimeError as exc:
            raise SolverError(f"Poisson factorization failed (n = {self.n}): {exc}") from exc

    def _pinned_solve(self, rhs):
        phi = np.concatenate([[0.0], self._lu.solve(rhs[1:])])
        return phi - phi.mean()

    def solve(self, rhs, tol=1e-10):
        """Zero-mean solution; iterative refinement until the residual meets ``tol``."""
        b = rhs - rhs.mean()
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros(self.n)
        phi = self._pinned_solve(b)
        for _ in range(MAX_REFINEMENTS + 1):
            residual = b - self.matrix @ phi
            residual -= residual.mean()
            rel = float(np.linalg.norm(residual)) / b_norm
            if np.isfinite(rel) and rel <= tol:
                return phi
            phi = phi + self._pinned_solve(residual)
            phi -= phi.mean()
        raise SolverError(
            f"direct Neumann solve residual {rel:.3e} exceeds tolerance {tol:.3e}",
            residual=rel,
        )
