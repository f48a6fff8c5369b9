"""Periodic unit cell, perforated domain, and facet bookkeeping.

The solid obstacle inside the unit cell Y = (0,1)^n is represented by a
staircase mask: a cell of the uniform grid is solid iff its center lies
inside the inclusion.  The porous domain over Omega = (0,1)^n is the
m x ... x m tiling of that mask with period eps = 1/m, so every eps-cell
carries an identical copy of the pattern and facet areas are exact
multiples of h^(n-1).  Both are one grid type, ``MaskedGrid``: the unit
cell is its periodic m = 1 case.

Facets fall into four classes: interior fluid-fluid faces (where fluxes
live), fluid-solid faces (the interior hole boundary), solid-solid faces
(counted only), and outer-boundary faces adjacent to fluid cells;
``_classify_faces`` sorts them for both grids.  Because the inclusion must
keep a positive margin to the cell boundary, the outer boundary of the
domain is always adjacent to fluid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components

from .errors import ConfigError, GeometryError

_KINDS = ("none", "disk", "square", "super_ellipse")
MIN_RESOLUTION = 4  # cells per unit-cell edge


@dataclass(frozen=True)
class InclusionShape:
    """Solid inclusion Y^s in cell coordinates.

    kind:
        "none"          empty inclusion, porosity 1
        "disk"          ball of ``radius`` around ``center``
        "square"        axis-aligned cube of half width ``half_width``
        "super_ellipse" sum((|x_i - c_i| / a_i)^q) <= 1 with exponent q
    """

    kind: str
    center: tuple = (0.5, 0.5)
    radius: float = 0.25
    half_width: float = 0.25
    semi_axes: tuple = (0.25, 0.25)
    exponent: float = 4.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown inclusion kind {self.kind!r}; expected one of {_KINDS}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which points (shape (k, n)) lie inside Y^s."""
        if self.kind == "none":
            return np.zeros(points.shape[0], dtype=bool)
        center = np.asarray(self.center, dtype=float)
        delta = np.abs(points - center[None, :])
        if self.kind == "disk":
            return np.sum(delta ** 2, axis=1) < self.radius ** 2
        if self.kind == "square":
            return np.max(delta, axis=1) < self.half_width
        axes = np.asarray(self.semi_axes, dtype=float)
        return np.sum((delta / axes[None, :]) ** self.exponent, axis=1) < 1.0

    def margin(self, dim: int) -> float:
        """Distance from the inclusion's bounding box to the cell boundary."""
        if self.kind == "none":
            return 0.5
        center = np.asarray(self.center, dtype=float)
        if center.shape != (dim,):
            raise GeometryError(f"inclusion center has {center.shape[0]} coordinates, grid has {dim}")
        if self.kind == "disk":
            extent = np.full(dim, self.radius)
        elif self.kind == "square":
            extent = np.full(dim, self.half_width)
        else:
            axes = np.asarray(self.semi_axes, dtype=float)
            if axes.shape != (dim,):
                raise GeometryError("super_ellipse needs one semi-axis per dimension")
            extent = axes
        if np.any(extent <= 0):
            raise GeometryError("inclusion extent must be positive")
        lo = center - extent
        hi = center + extent
        return float(min(np.min(lo), np.min(1.0 - hi)))


@dataclass
class MaskedGrid:
    """Uniform staircase grid over (0,1)^n with per-cell fluid flags and facet lists.

    The periodic unit cell Y has ``cell`` None and m = 1: its faces wrap
    around and it has no outer facets.  A domain grid over Omega tiles
    ``cell`` m times per axis, so eps = 1/m and h = eps/r, and its outer
    facets line the boundary of Omega.

    Immutable once built; safe to share across concurrent solver runs.
    """

    cell: MaskedGrid | None       # the tiled unit cell; None on the unit cell itself
    dim: int
    m: int
    r: int                        # cells per unit-cell edge
    fluid_mask: np.ndarray
    n_fluid: int
    fluid_id: np.ndarray          # full-grid array, -1 on solid cells
    centers: np.ndarray           # (n_fluid, dim) cell centers
    face_lo: np.ndarray           # fluid-fluid faces, fluid ids
    face_hi: np.ndarray
    face_axis: np.ndarray
    gamma_cell: np.ndarray        # fluid id adjacent to each fluid-solid facet
    gamma_axis: np.ndarray
    gamma_sign: np.ndarray        # +1 if the solid neighbor sits on the high side
    gamma_center: np.ndarray      # (k, dim) facet midpoints
    outer_cell: np.ndarray        # fluid id behind each outer-boundary facet
    outer_axis: np.ndarray
    outer_sign: np.ndarray        # +1 on the x = 1 side, -1 on the x = 0 side
    outer_center: np.ndarray
    n_solid_solid_faces: int
    _unit_cell_ids: np.ndarray = field(default=None, repr=False)

    @property
    def eps(self) -> float:
        return 1.0 / self.m

    @property
    def n_cells_per_edge(self) -> int:
        return self.m * self.r

    @property
    def h(self) -> float:
        return 1.0 / (self.m * self.r)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def facet_area(self) -> float:
        return self.h ** (self.dim - 1)

    @property
    def porosity(self) -> float:
        """Fluid fraction of the grid: |Y^f| on the unit cell, and the same on its tiling."""
        return self.n_fluid / self.fluid_mask.size

    @property
    def gamma_area_total(self) -> float:
        """Staircase surface measure of the hole boundary."""
        return self.gamma_cell.size * self.facet_area

    @property
    def outer_area_total(self) -> float:
        return self.outer_cell.size * self.facet_area

    @property
    def is_unperforated(self) -> bool:
        return self.gamma_cell.size == 0 and self.n_fluid == self.fluid_mask.size

    def unit_cell_ids(self) -> np.ndarray:
        """For each fluid cell, the fluid id of its image in the unit cell.

        Exact lookup: the grid tiles the cell pattern, so micro cell centers
        land on unit-cell centers under y = (x / eps) mod 1.
        """
        if self._unit_cell_ids is None:
            shape = self.fluid_mask.shape
            multi = np.unravel_index(np.arange(self.fluid_mask.size), shape)
            within = tuple(ix % self.r for ix in multi)
            ids = self.cell.fluid_id[within]
            self._unit_cell_ids = ids[self.fluid_mask.ravel()]
            if np.any(self._unit_cell_ids < 0):
                raise GeometryError("tiling mismatch: fluid cell maps to solid unit-cell cell")
        return self._unit_cell_ids


def _adjacent_flat_indices(shape, axis, periodic):
    """Flat C-order indices of (lo, hi) cell pairs adjacent along ``axis``."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    if periodic:
        lo = idx
        hi = np.roll(idx, -1, axis=axis)
    else:
        sl_lo = [slice(None)] * len(shape)
        sl_hi = [slice(None)] * len(shape)
        sl_lo[axis] = slice(0, shape[axis] - 1)
        sl_hi[axis] = slice(1, shape[axis])
        lo = idx[tuple(sl_lo)]
        hi = idx[tuple(sl_hi)]
    return lo.ravel(), hi.ravel()


def _face_centers(flat_lo, shape, axis, h, wrap):
    """Facet midpoints for faces on the high side of the ``flat_lo`` cells."""
    multi = np.unravel_index(flat_lo, shape)
    centers = (np.stack(multi, axis=1) + 0.5) * h
    pos = (multi[axis] + 1).astype(float) * h
    centers[:, axis] = np.mod(pos, 1.0) if wrap else pos
    return centers


def _grid_points(n_side, dim):
    """Centers of all cells of the uniform n_side^dim grid over (0,1)^dim, C order."""
    axes_1d = (np.arange(n_side) + 0.5) * (1.0 / n_side)
    grids = np.meshgrid(*([axes_1d] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _classify_faces(fluid_mask, periodic):
    """Number the fluid cells and classify every face of the grid.

    Returns the ``MaskedGrid`` fields the mask determines: the fluid numbering
    and centers, the fluid-fluid faces, the fluid-solid facets, the number of
    solid-solid faces and the outer facets.  ``periodic`` adds the faces that
    wrap around the grid and leaves the outer facets empty.  Otherwise the
    outer facets come axis by axis, the x = 0 side before the x = 1 side, and
    a solid cell on the outer boundary is an error.
    """
    shape = fluid_mask.shape
    dim = len(shape)
    n_side = shape[0]
    h = 1.0 / n_side
    n_fluid = int(np.count_nonzero(fluid_mask))
    fluid_id = -np.ones(shape, dtype=np.int64)
    fluid_id[fluid_mask] = np.arange(n_fluid)
    mask_flat = fluid_mask.ravel()
    id_flat = fluid_id.ravel()
    idx = np.arange(fluid_mask.size).reshape(shape)

    faces = {key: [np.empty((0, dim)) if key.endswith("center") else np.empty(0, np.int64)]
             for key in ("face_lo", "face_hi", "face_axis", "gamma_cell", "gamma_axis",
                         "gamma_sign", "gamma_center", "outer_cell", "outer_axis",
                         "outer_sign", "outer_center")}
    n_ss = 0
    for axis in range(dim):
        lo, hi = _adjacent_flat_indices(shape, axis, periodic)
        both = mask_flat[lo] & mask_flat[hi]
        faces["face_lo"].append(id_flat[lo[both]])
        faces["face_hi"].append(id_flat[hi[both]])
        faces["face_axis"].append(np.full(int(both.sum()), axis, dtype=np.int64))
        n_ss += int(np.count_nonzero(~mask_flat[lo] & ~mask_flat[hi]))
        # the solid neighbour sits on the high side (+1), then on the low side (-1)
        for sign, only, fluid_side in ((1, mask_flat[lo] & ~mask_flat[hi], lo),
                                       (-1, ~mask_flat[lo] & mask_flat[hi], hi)):
            sel_lo = lo[only]
            faces["gamma_cell"].append(id_flat[fluid_side[only]])
            faces["gamma_axis"].append(np.full(sel_lo.size, axis, dtype=np.int64))
            faces["gamma_sign"].append(np.full(sel_lo.size, sign, dtype=np.int64))
            faces["gamma_center"].append(_face_centers(sel_lo, shape, axis, h, wrap=periodic))
        # outer boundary facets at x_axis = 0 and x_axis = 1
        for side, sign in () if periodic else ((0, -1), (n_side - 1, +1)):
            cells = np.take(idx, side, axis=axis).ravel()
            if np.any(~mask_flat[cells]):
                raise GeometryError(
                    "outer boundary adjacent to a solid cell; the inclusion must be interior"
                )
            faces["outer_cell"].append(id_flat[cells])
            faces["outer_axis"].append(np.full(cells.size, axis, dtype=np.int64))
            faces["outer_sign"].append(np.full(cells.size, sign, dtype=np.int64))
            ctr = (np.stack(np.unravel_index(cells, shape), axis=1) + 0.5) * h
            ctr[:, axis] = 0.0 if side == 0 else 1.0
            faces["outer_center"].append(ctr)
    fields = {key: np.concatenate(parts) for key, parts in faces.items()}
    fields.update(fluid_mask=fluid_mask, n_fluid=n_fluid, fluid_id=fluid_id,
                  centers=_grid_points(n_side, dim)[mask_flat], n_solid_solid_faces=n_ss)
    return fields


def _check_connected(n_fluid, face_lo, face_hi):
    if n_fluid == 0:
        raise GeometryError("no fluid cells: inclusion covers the whole cell")
    ones = np.ones(face_lo.size)
    adj = sparse.coo_matrix((ones, (face_lo, face_hi)), shape=(n_fluid, n_fluid))
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise GeometryError(f"fluid region is disconnected ({n_comp} components)")


def build_cell_geometry(shape: InclusionShape, r: int) -> MaskedGrid:
    """Rasterize the inclusion onto the periodic r^n unit-cell grid and classify faces.

    A grid cell is solid iff its center lies inside the inclusion.  Rejects
    inclusions whose bounding box leaves a margin below 2/r to the cell
    boundary, and disconnected fluid regions (both break the periodic cell
    problems downstream).
    """
    if r < MIN_RESOLUTION:
        raise GeometryError(f"unit-cell resolution r must be >= {MIN_RESOLUTION}, got {r}")
    dim = len(shape.center)
    if dim not in (2, 3):
        raise GeometryError(f"dimension must be 2 or 3, got {dim}")
    if shape.kind != "none":
        margin = shape.margin(dim)
        if margin < 2.0 / r:
            raise GeometryError(
                f"inclusion margin {margin:.6g} to the cell boundary is below 2/r = "
                f"{2.0 / r:.6g}; the solid part must stay strictly inside the cell"
            )
    fluid_mask = ~shape.contains(_grid_points(r, dim)).reshape((r,) * dim)
    fields = _classify_faces(fluid_mask, periodic=True)
    _check_connected(fields["n_fluid"], fields["face_lo"], fields["face_hi"])
    return MaskedGrid(cell=None, dim=dim, m=1, r=r, **fields)


def build_masked_grid(cell: MaskedGrid, m: int) -> MaskedGrid:
    """Tile the unit-cell mask m times per axis over Omega = (0,1)^n.

    The eps-cells align exactly with the grid: eps = 1/m and the spacing is
    h = eps/r with r = ``cell.r``.
    """
    if m < 1:
        raise GeometryError(f"m must be >= 1, got {m}")
    fluid_mask = np.tile(cell.fluid_mask, (m,) * cell.dim)
    return MaskedGrid(cell=cell, dim=cell.dim, m=m, r=cell.r,
                      **_classify_faces(fluid_mask, periodic=False))


@dataclass
class FacetCharges:
    """The fixed Poisson charge data of a masked grid, at either scale.

    ``gamma_values`` carry the charge density per interface facet: the
    eps-scaled eps*xi1(x, x/eps mod 1) on the micro grid, none on the macro
    grid.  ``outer_values`` carry the Neumann charge per outer facet: xi2(x)
    (micro) or g = xi2(x)/|Y^f| (macro).  ``volumetric`` is the charge
    density per fluid cell: 0 (micro) or the cell-averaged interface charge
    s(x) (macro).
    """

    gamma_values: np.ndarray
    outer_values: np.ndarray
    volumetric: np.ndarray | float = 0.0

    def cell_sums(self, grid: MaskedGrid) -> np.ndarray:
        """Facet charge times facet area, summed into the fluid cell behind each facet."""
        sums = np.zeros(grid.n_fluid)
        np.add.at(sums, grid.gamma_cell, self.gamma_values * grid.facet_area)
        np.add.at(sums, grid.outer_cell, self.outer_values * grid.facet_area)
        return sums


COMPAT_REL_TOL = 1e-12   # |R| allowed relative to the charge scale


def validate_compatibility(grid: MaskedGrid, species, charges: FacetCharges,
                           raise_on_fail: bool = True) -> float:
    """Discrete charge balance R = sum_i z_i int c_i^0 + int s + int_boundary xi dS.

    The pure-Neumann Poisson problem is solvable iff R = 0.  Returns R, which
    is inf or nan when the data's total overflows; when ``raise_on_fail`` and
    |R| exceeds COMPAT_REL_TOL times the charge scale, a ConfigError carrying
    R is raised.
    """
    bulk = 0.0
    scale = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for spec in species:
            c0 = np.asarray(spec.initial_profile(grid.centers), dtype=float)
            mass = float(np.sum(c0)) * grid.cell_volume
            bulk += spec.charge * mass
            scale += abs(spec.charge) * abs(mass)
        volumetric = np.broadcast_to(charges.volumetric, grid.n_fluid)
        bulk += float(np.sum(volumetric)) * grid.cell_volume
        scale += float(np.sum(np.abs(volumetric))) * grid.cell_volume
        boundary = float(np.sum(charges.gamma_values) * grid.facet_area
                         + np.sum(charges.outer_values) * grid.facet_area)
        scale += float(np.sum(np.abs(charges.gamma_values)) * grid.facet_area)
        scale += float(np.sum(np.abs(charges.outer_values)) * grid.facet_area)
    residual = bulk + boundary
    if raise_on_fail and abs(residual) > COMPAT_REL_TOL * max(1.0, scale):
        raise ConfigError(
            f"incompatible charge data: residual {residual:.6e} violates the "
            f"solvability condition (total bulk + boundary charge must vanish); "
            "enable auto_balance or adjust the data",
            residual=residual,
        )
    return residual


def balance_outer_charges(grid: MaskedGrid, species, charges: FacetCharges):
    """Shift the outer-boundary charge by a constant so the discrete balance is exact.

    Returns (balanced charges, shift).  The shift -R/|outer boundary| is the
    unique constant correction supported on the outer boundary.
    """
    residual = validate_compatibility(grid, species, charges, raise_on_fail=False)
    shift = -residual / grid.outer_area_total
    return replace(charges, outer_values=charges.outer_values + shift), float(shift)


def surface_charge_on_facets(grid: MaskedGrid, xi1, xi2) -> FacetCharges:
    """Sample the surface charge density at facet midpoints.

    ``xi1(x, y)`` takes (k, n) arrays of macro and cell coordinates; it is
    evaluated at y = (x / eps) mod 1, which makes the periodic extension
    exact on the aligned staircase grid.  ``xi2(x)`` takes the (k, n) outer
    facet midpoints.
    """
    x_gamma = grid.gamma_center
    y_gamma = np.mod(x_gamma / grid.eps, 1.0)
    gamma_values = grid.eps * np.asarray(xi1(x_gamma, y_gamma), dtype=float) \
        if x_gamma.shape[0] else np.empty(0)
    outer_values = np.asarray(xi2(grid.outer_center), dtype=float)
    return FacetCharges(gamma_values=gamma_values, outer_values=outer_values)
