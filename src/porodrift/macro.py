"""Homogenized drift-diffusion solvers on the unperforated domain.

Two limit regimes share one stepper:

* coupled (equal permittivity and mobility scalings): species flux
  -D_i [A grad h_p(c_i) + z_i c_i A grad phi] with the constant effective
  tensor A, potential from  -div(A grad phi) = sum z_i c_i + s(x)  with
  Neumann flux g on the outer boundary;
* decoupled (mobility subordinate to permittivity): the drift term drops
  from transport entirely, the potential equation stays and is one-way.

The volumetric source s(x) is the cell-averaged interface charge; it is
computed with the same staircase facet measure as the microscopic model so
both sides of a convergence comparison share one geometry model.

Tensor cross terms use four-point averaged tangential differences and are
treated explicitly in time (the normal parts stay implicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sparse
from scipy.interpolate import RegularGridInterpolator

from .errors import GeometryError
from .geometry import CellGeometry, MaskedGrid
from .linalg import face_laplacian
from .transport import RunResult, TransportSim

__all__ = [
    "MacroSourceSpec", "MacroSimulation", "build_macro_source", "balance_macro_source",
    "run_macro", "reconstruct_corrector_potential", "cell_centered_gradients",
    "sample_macro_field",
]


@dataclass
class MacroSourceSpec:
    """Homogenized charge sources: volumetric per cell and Neumann flux per outer facet."""

    volumetric: np.ndarray
    boundary: np.ndarray


def build_macro_source(cell: CellGeometry, grid: MaskedGrid, xi1, xi2) -> MacroSourceSpec:
    """Average the interface charge over the unit cell per macro cell center.

    s(x) = (1/|Y^f|) * sum over staircase interface facets of xi1(x, y) dS(y),
    g(x) = xi2(x) / |Y^f| on the outer boundary.
    """
    porosity = cell.porosity
    n_cells = grid.n_fluid
    n_facets = cell.gamma_center.shape[0]
    if n_facets == 0:
        volumetric = np.zeros(n_cells)
    else:
        x_rep = np.repeat(grid.centers, n_facets, axis=0)
        y_rep = np.tile(cell.gamma_center, (n_cells, 1))
        values = np.asarray(xi1(x_rep, y_rep), dtype=float).reshape(n_cells, n_facets)
        volumetric = values.sum(axis=1) * cell.facet_area / porosity
    boundary = np.asarray(xi2(grid.outer_center), dtype=float) / porosity
    return MacroSourceSpec(volumetric=volumetric, boundary=boundary)


def balance_macro_source(grid: MaskedGrid, species, source: MacroSourceSpec) -> MacroSourceSpec:
    """Shift the Neumann flux by a constant so the discrete macro charge balance is exact.

    The macro counterpart of ``balance_outer_charges``: the residual of
    sum_i z_i c_i^0 + s over the cells plus g over the outer boundary is
    removed by the constant -R/|outer boundary| on g.
    """
    rho0 = np.zeros(grid.n_fluid)
    for spec in species:
        rho0 += spec.charge * np.asarray(spec.initial_profile(grid.centers), dtype=float)
    residual = (float(np.sum(rho0 + source.volumetric)) * grid.cell_volume
                + float(np.sum(source.boundary)) * grid.facet_area)
    return MacroSourceSpec(volumetric=source.volumetric,
                           boundary=source.boundary - residual / grid.outer_area_total)


def _derivative_matrix_1d(n: int, h: float):
    """Cell-centered first derivative: central interior, quadratic one-sided ends."""
    mat = sparse.lil_matrix((n, n))
    for i in range(1, n - 1):
        mat[i, i - 1] = -0.5 / h
        mat[i, i + 1] = 0.5 / h
    mat[0, 0], mat[0, 1], mat[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    mat[n - 1, n - 1], mat[n - 1, n - 2], mat[n - 1, n - 3] = 1.5 / h, -2.0 / h, 0.5 / h
    return mat.tocsr()


def gradient_matrices(grid: MaskedGrid):
    """Sparse cell-centered partial-derivative operators, one per axis (hole-free grids)."""
    if not grid.is_unperforated:
        raise GeometryError("cell-centered gradients require an unperforated grid")
    n_side = grid.n_cells_per_edge
    d1 = _derivative_matrix_1d(n_side, grid.h)
    eye = sparse.identity(n_side, format="csr")
    mats = []
    for axis in range(grid.dim):
        factors = [eye] * grid.dim
        factors[axis] = d1
        mats.append(reduce(lambda a, b: sparse.kron(a, b, format="csr"), factors))
    return mats


def cell_centered_gradients(grid: MaskedGrid, values: np.ndarray) -> np.ndarray:
    grads = gradient_matrices(grid)
    return np.stack([g @ values for g in grads])


def sample_macro_field(grid: MaskedGrid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a macro cell field at arbitrary points.

    Linear extrapolation outside the cell-center hull (only the half-cell rim).
    """
    n_side = grid.n_cells_per_edge
    axis = (np.arange(n_side) + 0.5) * grid.h
    interp = RegularGridInterpolator(
        (axis,) * grid.dim, values.reshape((n_side,) * grid.dim),
        method="linear", bounds_error=False, fill_value=None,
    )
    return np.asarray(interp(points), dtype=float)


class MacroSimulation(TransportSim):
    """Effective-model integrator with a constant symmetric tensor."""

    def __init__(self, grid: MaskedGrid, tensor: np.ndarray, species,
                 source: MacroSourceSpec, eta: float, p: float,
                 mode: str = "coupled", poisson_tol: float = 1e-11,
                 explicit_time: bool = False, poisson_every_step: bool = False):
        if mode not in ("coupled", "decoupled"):
            raise ValueError(f"mode must be 'coupled' or 'decoupled', got {mode!r}")
        if not grid.is_unperforated:
            raise GeometryError("the homogenized model lives on the unperforated domain")
        tensor = np.asarray(tensor, dtype=float)
        if tensor.shape != (grid.dim, grid.dim):
            raise ValueError(f"tensor shape {tensor.shape} does not match dimension {grid.dim}")
        if np.max(np.abs(tensor - tensor.T)) > 1e-8:
            raise ValueError("effective tensor must be symmetric")
        super().__init__(
            grid, species, eta, p,
            drift_scale=1.0 if mode == "coupled" else 0.0,
            poisson_tol=poisson_tol, explicit_time=explicit_time,
            lazy_poisson=(mode == "decoupled" and not poisson_every_step),
        )
        self.tensor = tensor
        self.mode = mode
        self.source = source
        self._face_diag = tensor[grid.face_axis, grid.face_axis]

        offdiag = tensor - np.diag(np.diag(tensor))
        cross_magnitude = float(np.max(np.abs(offdiag)))
        self._cross_terms = None
        if cross_magnitude > 1e-14:
            self._cross_magnitude = cross_magnitude
            grads = gradient_matrices(grid)
            n_faces = grid.face_lo.size
            ones = np.ones(n_faces)
            rows = np.arange(n_faces)
            s_lo = sparse.coo_matrix((ones, (rows, grid.face_lo)),
                                     shape=(n_faces, grid.n_fluid)).tocsr()
            s_hi = sparse.coo_matrix((ones, (rows, grid.face_hi)),
                                     shape=(n_faces, grid.n_fluid)).tocsr()
            avg = 0.5 * (s_lo + s_hi)
            terms = []
            for t_axis in range(grid.dim):
                coef = tensor[grid.face_axis, t_axis] * (grid.face_axis != t_axis)
                if np.any(coef != 0.0):
                    terms.append((coef, (avg @ grads[t_axis]).tocsr()))
            self._cross_terms = terms
            self._scatter = (s_hi - s_lo).T.tocsr()

        boundary = np.zeros(grid.n_fluid)
        np.add.at(boundary, grid.outer_cell, source.boundary * grid.facet_area)
        self._boundary_rhs = boundary

    def _charge_rhs(self, conc):
        rho = self._charges @ conc + self.source.volumetric
        return rho * self.grid.cell_volume + self._boundary_rhs

    def _axis_diag(self):
        return self._face_diag

    def _cross_flux(self, values):
        if not self._cross_terms:
            return None
        total = np.zeros(self.grid.face_lo.size)
        for coef, mat in self._cross_terms:
            total += coef * (mat @ values)
        return total

    def _poisson_matrix(self):
        grid = self.grid
        matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi,
                                self._face_diag * grid.facet_area / grid.h)
        if self._cross_terms:
            t_cross = None
            for coef, mat in self._cross_terms:
                term = sparse.diags(coef) @ mat
                t_cross = term if t_cross is None else t_cross + term
            matrix = matrix + grid.facet_area * (self._scatter @ t_cross)
        return matrix.tocsr()


def run_macro(grid: MaskedGrid, tensor: np.ndarray, species, source: MacroSourceSpec,
              eta: float, p: float, final_time: float, dt_init: float,
              mode: str = "coupled", cfl_fraction: float = 0.5, output_interval=None,
              snapshot_times=(), poisson_tol: float = 1e-11, explicit_time: bool = False,
              poisson_every_step: bool = False, source_term=None) -> RunResult:
    """Integrate the homogenized model to ``final_time``."""
    sim = MacroSimulation(grid, tensor, species, source, eta, p, mode=mode,
                          poisson_tol=poisson_tol, explicit_time=explicit_time,
                          poisson_every_step=poisson_every_step)
    return sim.run(final_time, dt_init, cfl_fraction=cfl_fraction,
                   output_interval=output_interval, snapshot_times=snapshot_times,
                   source=source_term)


def reconstruct_corrector_potential(macro_grid: MaskedGrid, phi0: np.ndarray,
                                    correctors, micro_grid: MaskedGrid) -> np.ndarray:
    """First-order two-scale reconstruction sampled on the micro fluid cells.

    Returns phi0(x) + eps * sum_k d_k phi0(x) w_k(x/eps mod 1); the micro grid
    tiles the corrector's unit cell, so the fast variable needs no
    interpolation.
    """
    points = micro_grid.centers
    reconstruction = sample_macro_field(macro_grid, phi0, points)
    grads = cell_centered_gradients(macro_grid, phi0)
    ids = micro_grid.unit_cell_ids()
    eps = micro_grid.eps
    for k, corrector in enumerate(correctors):
        w_vals = corrector.values[ids]
        slope = sample_macro_field(macro_grid, grads[k], points)
        reconstruction += eps * slope * w_vals
    return reconstruction
