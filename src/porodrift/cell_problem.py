"""Periodic cell problems and the effective diffusion/permittivity tensor.

For each coordinate direction k the corrector w_k solves, on the fluid part
of the unit cell with periodic wrap and no-flux on the hole boundary,

    - div_y (grad_y w_k + e_k) = 0,

discretized with two-point fluxes on the staircase grid.  The effective
tensor column is the fluid average of (grad_y w_k + e_k); the quadratic
(energy) form over the corrected gradients gives an independent expression
that must agree with it, which the tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .geometry import MaskedGrid
from .linalg import face_divergence, face_laplacian, zero_mean_cg

DEFAULT_TOL = 1e-12


@dataclass
class CorrectorField:
    """Zero-mean corrector for one direction on the fluid cells of the unit cell."""

    k: int
    values: np.ndarray
    rel_residual: float
    iterations: int


def _rhs_for_direction(cell: MaskedGrid, k: int) -> np.ndarray:
    sel = cell.face_axis == k
    flux = np.full(int(np.count_nonzero(sel)), -cell.facet_area)
    return face_divergence(cell.n_fluid, cell.face_lo[sel], cell.face_hi[sel], flux)


def solve_cell_problem(cell: MaskedGrid, k: int, tol: float = DEFAULT_TOL) -> CorrectorField:
    """Solve for the direction-k corrector with ``linalg.zero_mean_cg``.

    The right-hand side is the masked-face divergence of the constant field
    e_k (supported near the hole boundary) and sums to zero by construction;
    this is asserted before solving.  The corrector is the zero-mean
    solution and reports its true relative residual.
    """
    if not 0 <= k < cell.dim:
        raise ValueError(f"direction index {k} out of range for dimension {cell.dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = _rhs_for_direction(cell, k)
    total = abs(float(np.sum(rhs)))
    if total > 1e-12 * max(1.0, float(np.sum(np.abs(rhs)))):
        raise SolverError(f"cell-problem RHS is incompatible (sum {total:.3e})")
    coeff = cell.facet_area / cell.h
    matrix = face_laplacian(cell.n_fluid, cell.face_lo, cell.face_hi, coeff)
    try:
        values, residual, iterations = zero_mean_cg(matrix, rhs, tol)
    except SolverError as exc:
        raise SolverError(f"cell problem {k + 1}: {exc}", residual=exc.residual) from exc
    return CorrectorField(k=k, values=values, rel_residual=residual, iterations=iterations)


def corrected_gradients(cell: MaskedGrid, correctors) -> np.ndarray:
    """Per-face normal components of (grad_y w_k + e_k), shape (n, n_faces)."""
    grads = np.empty((cell.dim, cell.face_lo.size))
    for k in range(cell.dim):
        w = correctors[k].values
        grads[k] = (w[cell.face_hi] - w[cell.face_lo]) / cell.h
        grads[k] += (cell.face_axis == k).astype(float)
    return grads


def corrector_residual(cell: MaskedGrid, corrector: CorrectorField) -> float:
    """Max norm of the discrete divergence of (grad_y w_k + e_k) over fluid cells."""
    w = corrector.values
    g = (w[cell.face_hi] - w[cell.face_lo]) / cell.h
    g += (cell.face_axis == corrector.k).astype(float)
    div = face_divergence(cell.n_fluid, cell.face_lo, cell.face_hi, g * cell.facet_area)
    return float(np.max(np.abs(div))) / cell.h ** cell.dim


@dataclass
class EffectiveTensor:
    """Homogenized tensor with porosity and the correctors that produced it.

    ``a_hom`` is the fluid-averaged corrected gradient (mean-flux form);
    ``energy_form`` is (1/|Y^f|) int (grad w_j + e_j) . (grad w_k + e_k),
    symmetric by construction and equal to ``a_hom`` up to solver residual.
    """

    a_hom: np.ndarray
    energy_form: np.ndarray
    porosity: float
    correctors: tuple


def compute_effective_tensor(cell: MaskedGrid, tol: float = DEFAULT_TOL) -> EffectiveTensor:
    """Solve the n cell problems and assemble both tensor expressions."""
    correctors = tuple(solve_cell_problem(cell, k, tol=tol) for k in range(cell.dim))
    grads = corrected_gradients(cell, correctors)
    a_hom = np.empty((cell.dim, cell.dim))
    for k in range(cell.dim):
        for j in range(cell.dim):
            sel = cell.face_axis == j
            a_hom[j, k] = np.sum(grads[k][sel]) / cell.n_fluid
    energy = grads @ grads.T / cell.n_fluid
    return EffectiveTensor(
        a_hom=a_hom,
        energy_form=energy,
        porosity=cell.porosity,
        correctors=correctors,
    )
