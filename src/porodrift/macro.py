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
both sides of a convergence comparison share one geometry model.  The
sources are a ``geometry.FacetCharges`` with no interface facets: s is its
``volumetric`` part and g its ``outer_values``, and the micro model's
compatibility check and balancing apply to it unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError
from .geometry import FacetCharges, MaskedGrid
from .transport import RunResult, TransportSim, gradient_matrices

__all__ = [
    "MacroSimulation", "build_macro_source", "limit_mode", "run_macro",
    "reconstruct_corrector_potential", "sample_macro_field",
]


def limit_mode(alpha: float, beta: float) -> str:
    """Regime of the homogenized limit: "coupled" when alpha == beta, else "decoupled"."""
    return "coupled" if alpha == beta else "decoupled"


def build_macro_source(cell: MaskedGrid, grid: MaskedGrid, xi1, xi2) -> FacetCharges:
    """Average the interface charge over the unit cell per macro cell center.

    s(x) = (1/|Y^f|) * sum over staircase interface facets of xi1(x, y) dS(y),
    g(x) = xi2(x) / |Y^f| on the outer boundary; returned as charges with no
    interface facets.  ``cell`` is the periodic unit cell, ``grid`` the macro grid.
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
    return FacetCharges(gamma_values=np.empty(0), outer_values=boundary, volumetric=volumetric)


def sample_macro_field(grid: MaskedGrid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a macro cell field at arbitrary points.

    The nodes are the cell centers (k + 1/2) h of the hole-free grid, whose
    cells are numbered in C order with n_side >= 2 per axis.  Per axis, a
    point takes the lower node index floor(x/h - 1/2) clipped to
    [0, n_side - 2] and the hat weights 1 - t and t of that node and the next;
    the value is the sum over the 2^dim corners of the node value times the
    product of its weights.  The clip lets t leave [0, 1] only on the
    half-cell rim outside the cell-center hull, where the sampler
    extrapolates linearly.
    """
    n_side = grid.n_cells_per_edge
    s = np.asarray(points, dtype=float) / grid.h - 0.5
    lower = np.clip(np.floor(s), 0, n_side - 2).astype(np.intp)
    hats = [(1.0 - t, t) for t in (s - lower).T]
    strides = n_side ** np.arange(grid.dim - 1, -1, -1)
    base = lower @ strides
    result = np.zeros(s.shape[0])
    for corner in np.ndindex(*(2,) * grid.dim):
        weight = math.prod(hat[c] for hat, c in zip(hats, corner))
        result += weight * values[base + np.dot(corner, strides)]
    return result


class MacroSimulation(TransportSim):
    """The homogenized model as engine data: the effective tensor for transport
    and potential, drift 1 (coupled) or 0 (decoupled), the cell-averaged source."""

    def __init__(self, grid: MaskedGrid, tensor: np.ndarray, species,
                 charges: FacetCharges, eta: float, p: float,
                 mode: str = "coupled"):
        if mode not in ("coupled", "decoupled"):
            raise ValueError(f"mode must be 'coupled' or 'decoupled', got {mode!r}")
        if not grid.is_unperforated:
            raise GeometryError("the homogenized model lives on the unperforated domain")
        super().__init__(
            grid, species, eta, p, transport_tensor=tensor, poisson_tensor=tensor, charges=charges,
            drift_scale=1.0 if mode == "coupled" else 0.0, grad_scale=1.0)


def run_macro(grid: MaskedGrid, tensor: np.ndarray, species, charges: FacetCharges,
              eta: float, p: float, final_time: float, dt_init: float,
              mode: str = "coupled", output_interval=None, snapshot_times=()) -> RunResult:
    """Integrate the homogenized model to ``final_time``."""
    sim = MacroSimulation(grid, tensor, species, charges, eta, p, mode=mode)
    return sim.run(final_time, dt_init, output_interval=output_interval,
                   snapshot_times=snapshot_times)


def reconstruct_corrector_potential(macro_grid: MaskedGrid, phi0: np.ndarray,
                                    correctors, micro_grid: MaskedGrid) -> np.ndarray:
    """First-order two-scale reconstruction sampled on the micro fluid cells.

    Returns phi0(x) + eps * sum_k d_k phi0(x) w_k(x/eps mod 1); the micro grid
    tiles the corrector's unit cell, so the fast variable needs no
    interpolation.
    """
    points = micro_grid.centers
    reconstruction = sample_macro_field(macro_grid, phi0, points)
    ids = micro_grid.unit_cell_ids()
    eps = micro_grid.eps
    for corrector, grad in zip(correctors, gradient_matrices(macro_grid)):
        w_vals = corrector.values[ids]
        slope = sample_macro_field(macro_grid, grad @ phi0, points)
        reconstruction += eps * slope * w_vals
    return reconstruction
