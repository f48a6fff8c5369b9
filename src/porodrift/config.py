"""Run-configuration parsing and validation.

A run config is one JSON document.  Closed-form input data (initial
profiles, surface charge densities) are expression strings over the small
grammar in :mod:`porodrift.expressions`; they are compiled here and every
module-level precondition that is checkable at parse time is checked here,
with messages naming the violated assumption.

``SECTION_KEYS`` lists the sections and the keys each may hold (see README
for the full schema); any other key is an error, never a silent default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .cell_problem import CELL_TOL
from .errors import ConfigError, GeometryError
from .expressions import ExpressionError, compile_expression
from .geometry import (
    MIN_RESOLUTION,
    FacetCharges,
    InclusionShape,
    MaskedGrid,
    balance_outer_charges,  # noqa: F401  (unused; perfbench's tracer wraps it by this name)
    build_cell_geometry,
    build_masked_grid,
    surface_charge_on_facets,
    validate_compatibility,
)
from .linalg import POISSON_TOL
from .micro import ScalingSpec, SpeciesSpec
from .transport import DT_FLOOR, h_p_prime
from .verification import (
    MMS_SOLVERS,
    balanced_charges,
    check_eta_values,
    check_m_values,
    check_mms_request,
)


_KIND_NAMES = {str: "a string", dict: "an object", list: "a list"}
MAX_OUTPUT_TIMES = 10**5  # output.interval may not split T finer than this
MAX_INTEGER = 2**53       # integers are exact floats up to this magnitude
MAX_GRID_CELLS = 2**24    # cells of the largest grid a config may ask for, solid ones included
CSV_BREAKING = (",", '"', "\n", "\r")  # characters a species name may not hold

# the keys of each section, of each species entry and of geometry.inclusion
SECTION_KEYS = {
    "geometry": ("inclusion", "m", "r", "dim"),
    "scaling": ("alpha", "beta", "eta", "p", "T", "dt_init", "cfl_fraction"),
    "species": None,  # a list of objects of SPECIES_KEYS
    "surface_charge": ("xi1", "xi2", "auto_balance"),
    "solver": ("poisson_tol", "cell_tol"),
    "output": ("directory", "interval", "snapshot_times"),
    "macro": ("resolution",),
    "cell": ("resolution", "dump_correctors"),
    "convergence": ("m_values", "T", "dt_init", "macro_resolution"),
    "eta_sweep": ("values", "T", "dt_init"),
    "mms": ("solvers", "resolutions"),
}
SPECIES_KEYS = ("name", "D", "z", "c0")
# keys a config may state only at these values, which are engine constants: the tolerances
# linalg.POISSON_TOL and cell_problem.CELL_TOL, and the factor 0.5 of transport.CFL_SAFETY
FIXED_VALUES = {("scaling", "cfl_fraction"): 0.5, ("solver", "poisson_tol"): POISSON_TOL,
                ("solver", "cell_tol"): CELL_TOL}
INCLUSION_KEYS = ("kind", "center", "radius", "half_width", "semi_axes", "exponent")


def snapshot_file(t):
    """The name of the snapshot file of time ``t``."""
    return f"snapshot_{t:.6f}.csv"


def _known(obj, keys, where):
    """``obj`` itself, once every key it holds is one of ``keys``."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{where} has unknown key {key!r} (known: {', '.join(keys)})")
    return obj


def _section(raw, name):
    """Config section ``name``: an object of known keys, empty when absent."""
    return _known(_optional(raw, name, {}, dict), SECTION_KEYS[name], name)


def _require(section, key, kind, where):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where} section")
    return _typed(section[key], kind, f"{where}.{key}")


def _optional(section, key, default, kind=None, where="config"):
    if key not in section:
        return default
    return _typed(section[key], kind, f"{where}.{key}")


def _typed(value, kind, label):
    """``value`` checked against ``kind`` (float, int, str, bool, dict, list; None for any).

    Numbers must be finite, also inside lists: JSON parsing admits NaN and
    Infinity, and no input of a run means either.
    """
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{label} must be a number, got {value!r}")
        value = float(value)
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label} must be an integer, got {value!r}")
        if abs(value) > MAX_INTEGER:
            raise ConfigError(f"{label} must be at most {MAX_INTEGER} in magnitude, got {value}")
    elif kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{label} must be true or false, got {value!r}")
    elif kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{label} must be {_KIND_NAMES[kind]}, got {value!r}")
    for item in value if isinstance(value, list) else (value,):
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{label} must be finite, got {item!r}")
    return value


def _list(section, key, default, kind, where):
    """Optional list whose every element is checked against ``kind``."""
    label = f"{where}.{key}"
    return [_typed(v, kind, label) for v in _optional(section, key, default, list, where)]


def _at_least(value, low, label):
    if value < low:
        raise ConfigError(f"{label} must be >= {low}, got {value}")
    return value


def _positive(value, label):
    if value <= 0:
        raise ConfigError(f"{label} must be positive, got {value}")
    return value


def _time_step(value, label):
    """A ``dt_init``: positive, and not below the engine's step floor ``DT_FLOOR``.

    Every step is at most ``dt_init``, so a smaller one makes a run take
    ``T / dt_init`` steps or more, and at 1e-300 the implicit solve's
    ``c/dt`` overflows the CG's norms.
    """
    _positive(value, label)
    if value < DT_FLOOR:
        raise ConfigError(f"{label} must be at least the time-step floor {DT_FLOOR:g}, "
                          f"got {value}")
    return value


def _grid_bound(n_side, dim, label):
    """An ``n_side``^``dim`` grid is built from this config; refuse one past MAX_GRID_CELLS."""
    if n_side ** dim > MAX_GRID_CELLS:
        raise ConfigError(f"{label} grid has {n_side}^{dim} cells, more than {MAX_GRID_CELLS}")


def _compiled(text, dim, label, letters="x"):
    try:
        return compile_expression(text, dim, letters)
    except ExpressionError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _finite_samples(values, label):
    """Data sampled on the grid must be finite: overflow and 0/0 end here, not in a solve."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ConfigError(f"{label} must be finite on the grid, got {float(bad[0])}")


def _coordinates(inc, key, default, dim):
    """Per-axis inclusion vector, one number per dimension; required if ``default`` is None."""
    where = "geometry.inclusion"
    if default is None:
        _require(inc, key, list, where)
    values = tuple(_list(inc, key, default, float, where))
    if len(values) != dim:
        raise ConfigError(f"{where}.{key} has {len(values)} coordinates, "
                          f"geometry has dim {dim}")
    return values


def _inclusion_from_config(geo: dict, dim: int) -> InclusionShape:
    where = "geometry.inclusion"
    inc = geo.get("inclusion", {"kind": "none"})
    if not isinstance(inc, dict):
        raise ConfigError(f"{where} must be an object with a 'kind'")
    kind = _require(_known(inc, INCLUSION_KEYS, where), "kind", str, where)
    if kind == "none":
        return InclusionShape("none", center=tuple([0.5] * dim))
    center = _coordinates(inc, "center", [0.5] * dim, dim)
    if kind == "disk":
        return InclusionShape("disk", center=center, radius=_require(inc, "radius", float, where))
    if kind == "square":
        return InclusionShape("square", center=center,
                              half_width=_require(inc, "half_width", float, where))
    if kind == "super_ellipse":
        return InclusionShape("super_ellipse", center=center,
                              semi_axes=_coordinates(inc, "semi_axes", None, dim),
                              exponent=_optional(inc, "exponent", 4.0, float, where))
    raise ConfigError(f"unknown inclusion kind {kind!r}")


@dataclass
class RunConfig:
    """Typed, validated configuration; the data expressions are compiled callables."""

    raw: dict
    inclusion: InclusionShape
    m: int
    r: int
    alpha: float
    beta: float
    eta: float
    p: float
    final_time: float
    dt_init: float
    species: list
    xi1: object
    xi2: object
    auto_balance: bool
    output_dir: str
    output_interval: float
    snapshot_times: list
    macro_resolution: int
    cell_resolution: int
    dump_correctors: bool
    convergence_m_values: list
    convergence_final_time: float
    convergence_dt_init: float
    convergence_macro_resolution: int
    eta_values: list
    eta_final_time: float
    eta_dt_init: float
    mms_solvers: list
    mms_resolutions: list
    # built by parse_and_validate: the unit cell, the micro grid and its facet
    # charges (auto-balanced when enabled; balance_shift is the shift, else None)
    cell: MaskedGrid = None
    grid: MaskedGrid = None
    charges: FacetCharges = None
    compat_residual_raw: float = 0.0
    balance_shift: float | None = None

    def scaling(self) -> ScalingSpec:
        return ScalingSpec(epsilon=1.0 / self.m, alpha=self.alpha, beta=self.beta,
                           eta=self.eta, p=self.p, final_time=self.final_time)

    def content_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True, indent=2).encode()).hexdigest()


def parse_and_validate(source) -> RunConfig:
    """Parse a JSON config, given as JSON text or a dict, into a validated RunConfig.

    Any other ``source``, such as a path, is a ConfigError: the caller reads
    the file.  Builds the unit cell and micro grid, samples the surface
    charges, and computes the discrete compatibility residual.  With
    auto_balance the outer charge is shifted by the constant -R/|outer
    boundary| (recorded in the manifest); otherwise an incompatible balance
    is a ConfigError.
    """
    if isinstance(source, dict):
        raw = source
    elif isinstance(source, str):
        try:
            raw = json.loads(source)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raise ConfigError("the config reader takes JSON text or a dict, got "
                          f"{type(source).__name__}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known(raw, SECTION_KEYS, "config")

    for section in ("geometry", "scaling", "species"):
        if section not in raw:
            raise ConfigError(f"missing required config section {section!r}")

    geo = _section(raw, "geometry")
    m = _require(geo, "m", int, "geometry")
    r = _require(geo, "r", int, "geometry")
    _at_least(m, 1, "geometry.m")
    _at_least(r, MIN_RESOLUTION, "geometry.r")
    dim = _optional(geo, "dim", 0, int, "geometry")
    if dim == 0:
        inc_raw = geo.get("inclusion", {})
        center = inc_raw.get("center") if isinstance(inc_raw, dict) else None
        dim = len(_typed(center, list, "geometry.inclusion.center")) if center is not None else 2
    if dim not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {dim}")
    _grid_bound(m * r, dim, "geometry")
    try:
        inclusion = _inclusion_from_config(geo, dim)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc

    sca = _section(raw, "scaling")
    alpha = _require(sca, "alpha", float, "scaling")
    beta = _require(sca, "beta", float, "scaling")
    eta = _require(sca, "eta", float, "scaling")
    p = _require(sca, "p", float, "scaling")
    final_time = _require(sca, "T", float, "scaling")
    default_dt = max(final_time / 100, DT_FLOOR) if final_time > 0 else 1e-3
    dt_init = _time_step(_optional(sca, "dt_init", default_dt, float, "scaling"),
                         "scaling.dt_init")

    species_raw = raw["species"]
    if not isinstance(species_raw, list) or not species_raw:
        raise ConfigError("species must be a non-empty list")
    species = []
    seen = set()
    for idx, entry in enumerate(species_raw):
        where = f"species[{idx}]"
        entry = _known(_typed(entry, dict, where), SPECIES_KEYS, where)
        name = _optional(entry, "name", f"s{idx + 1}", str, where)
        if any(char in name for char in CSV_BREAKING):
            raise ConfigError(f"{where}.name {name!r} may not hold a comma, a double quote "
                              "or a line break (it names diagnostics.csv columns)")
        if name in seen:
            raise ConfigError(f"duplicate species name {name!r}")
        seen.add(name)
        diffusivity = _require(entry, "D", float, where)
        if diffusivity <= 0:
            raise ConfigError(f"{where}.D must be positive (diffusivities D_i > 0), "
                              f"got {diffusivity}")
        charge = _require(entry, "z", int, where)
        c0 = _compiled(_require(entry, "c0", str, where), dim, f"{where}.c0")
        species.append(SpeciesSpec(name, diffusivity, charge, c0))

    charge_sec = _section(raw, "surface_charge")
    xi1 = _compiled(_optional(charge_sec, "xi1", "0", str, "surface_charge"), dim,
                    "surface_charge.xi1", "xy")
    xi2 = _compiled(_optional(charge_sec, "xi2", "0", str, "surface_charge"), dim,
                    "surface_charge.xi2")
    auto_balance = _optional(charge_sec, "auto_balance", False, bool, "surface_charge")

    sections = {"scaling": sca, "solver": _section(raw, "solver")}
    for (name, key), fixed in FIXED_VALUES.items():
        value = _optional(sections[name], key, fixed, float, name)
        if value != fixed:
            raise ConfigError(f"{name}.{key} is fixed at {fixed:g}, got {value}")

    output = _section(raw, "output")
    output_dir = _optional(output, "directory", "out", str, "output")
    output_interval = _optional(output, "interval", final_time / 10 if final_time > 0 else 0.0,
                                float, "output")
    _at_least(output_interval, 0, "output.interval")
    if output_interval and final_time / output_interval > MAX_OUTPUT_TIMES:
        raise ConfigError(f"output.interval {output_interval} splits T = {final_time} into "
                          f"more than {MAX_OUTPUT_TIMES} output times")
    snapshot_times = _list(output, "snapshot_times", [final_time] if final_time > 0 else [],
                           float, "output")
    named = {}
    for t_snap in snapshot_times:
        if t_snap < 0 or t_snap > final_time + 1e-12:
            raise ConfigError(f"snapshot time {t_snap} outside [0, T = {final_time}]")
        other = named.setdefault(snapshot_file(t_snap), t_snap)
        if other != t_snap:
            raise ConfigError(f"snapshot times {other!r} and {t_snap!r} both name "
                              f"{snapshot_file(t_snap)}")

    macro_sec = _section(raw, "macro")
    macro_resolution = _at_least(_optional(macro_sec, "resolution", m * r, int, "macro"),
                                 MIN_RESOLUTION, "macro.resolution")
    _grid_bound(macro_resolution, dim, "macro")

    cell_sec = _section(raw, "cell")
    cell_resolution = _at_least(_optional(cell_sec, "resolution", r, int, "cell"),
                                MIN_RESOLUTION, "cell.resolution")
    _grid_bound(cell_resolution, dim, "cell")
    dump_correctors = _optional(cell_sec, "dump_correctors", False, bool, "cell")

    conv = _section(raw, "convergence")
    conv_m_values = _list(conv, "m_values", [4, 8, 16], int, "convergence")
    check_m_values(conv_m_values)
    conv_final_time = _at_least(_optional(conv, "T", 0.05, float, "convergence"), 0,
                                "convergence.T")
    conv_dt_init = _time_step(_optional(conv, "dt_init", 5e-4, float, "convergence"),
                              "convergence.dt_init")
    conv_macro_resolution = _at_least(
        _optional(conv, "macro_resolution", r * max(conv_m_values), int, "convergence"),
        MIN_RESOLUTION, "convergence.macro_resolution")
    _grid_bound(r * conv_m_values[-1], dim, "convergence")
    _grid_bound(conv_macro_resolution, dim, "convergence macro")

    eta_sec = _section(raw, "eta_sweep")
    eta_values = _list(eta_sec, "values", [0.5, 0.25, 0.125], float, "eta_sweep")
    check_eta_values(eta_values)
    eta_final_time = _at_least(_optional(eta_sec, "T", 0.05, float, "eta_sweep"), 0,
                               "eta_sweep.T")
    eta_dt_init = _time_step(_optional(eta_sec, "dt_init", dt_init, float, "eta_sweep"),
                             "eta_sweep.dt_init")

    mms_sec = _section(raw, "mms")
    mms_solvers = _list(mms_sec, "solvers", list(MMS_SOLVERS), str, "mms")
    mms_resolutions = _list(mms_sec, "resolutions", [32, 64, 128], int, "mms")
    check_mms_request(mms_solvers, mms_resolutions)
    for res in mms_resolutions:
        _grid_bound(res, 2, "mms")

    config = RunConfig(
        raw=raw, inclusion=inclusion, m=m, r=r,
        alpha=alpha, beta=beta, eta=eta, p=p, final_time=final_time,
        dt_init=dt_init, species=species,
        xi1=xi1, xi2=xi2, auto_balance=auto_balance,
        output_dir=output_dir, output_interval=output_interval,
        snapshot_times=snapshot_times,
        macro_resolution=macro_resolution,
        cell_resolution=cell_resolution, dump_correctors=dump_correctors,
        convergence_m_values=conv_m_values, convergence_final_time=conv_final_time,
        convergence_dt_init=conv_dt_init,
        convergence_macro_resolution=conv_macro_resolution,
        eta_values=eta_values, eta_final_time=eta_final_time, eta_dt_init=eta_dt_init,
        mms_solvers=mms_solvers, mms_resolutions=mms_resolutions,
    )

    # constraint checks that need the scaling object (alpha <= beta, p >= 4, eta > 0)
    config.scaling()

    # geometry build, sampled-data checks, compatibility residual
    try:
        config.cell = build_cell_geometry(inclusion, r)
        config.grid = grid = build_masked_grid(config.cell, m)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    # each micro grid's permittivity eps^alpha must be finite and its Poisson face coefficient
    # eps^alpha h^(n-2) a positive normal float; eps^beta <= eps^alpha (eps <= 1, alpha <= beta)
    # may underflow, which only drops the drift
    micro_grids = [("geometry.m", m)]
    micro_grids += [(f"convergence.m_values[{k}]", value) for k, value in enumerate(conv_m_values)]
    for key, m_value in micro_grids:
        with np.errstate(over="ignore", under="ignore"):
            permittivity = np.float64(1.0 / m_value) ** alpha
            coefficient = permittivity * (1.0 / (m_value * r)) ** (dim - 2)
        if not (math.isfinite(permittivity)
                and np.finfo(float).tiny <= coefficient < math.inf):
            raise ConfigError(f"scaling.alpha = {alpha:g} at {key} = {m_value} gives the "
                              f"permittivity eps^alpha = {permittivity:.3e} and the Poisson face "
                              f"coefficient eps^alpha h^(n-2) = {coefficient:.3e}; the first must "
                              "be finite and the second a positive normal float")
    # scaling.eta serves the micro, macro and convergence grids, the sweep values the macro one
    etas = [("scaling.eta", eta, 1.0 / max(m * r, macro_resolution, r * conv_m_values[-1],
                                             conv_macro_resolution))]
    etas += [(f"eta_sweep.values[{k}]", value, 1.0 / macro_resolution)
             for k, value in enumerate(eta_values)]
    for idx, spec in enumerate(species):
        values = spec.initial_profile(grid.centers)
        _finite_samples(values, f"species {spec.name!r}: initial concentration")
        if np.min(values) < 0:
            raise ConfigError(
                f"species {spec.name!r}: initial concentration must be nonnegative "
                f"(min {float(np.min(values)):.6g} at a cell center)"
            )
        with np.errstate(over="ignore"):  # the largest c0^p, as c0 >= 0 here
            _finite_samples(np.max(values, keepdims=True) ** p,
                            f"species {spec.name!r}: initial concentration to the power p = {p:g}")
        for key, value, h in etas:
            with np.errstate(over="ignore"):  # the largest initial implicit face coefficient
                coefficient = spec.diffusivity * h_p_prime(np.max(values), value, p) / h ** 2
            if not math.isfinite(coefficient * coefficient):  # the CG norm sums its square
                raise ConfigError(f"species[{idx}].D = {spec.diffusivity:g} with {key} = {value:g} "
                                  f"overflows the implicit face coefficient D h_p'(max c0) / h^2 = "
                                  f"{coefficient:.3e} of {spec.name!r} at h = {h:g}, or its square")
    charges = surface_charge_on_facets(grid, xi1, xi2)
    _finite_samples(charges.gamma_values, "surface_charge.xi1")
    _finite_samples(charges.outer_values, "surface_charge.xi2")
    residual = validate_compatibility(grid, species, charges, raise_on_fail=False)
    if not math.isfinite(residual):
        raise ConfigError(f"the total charge of the initial and surface data is {residual}")
    config.compat_residual_raw = float(residual)
    config.charges, config.balance_shift = balanced_charges(grid, species, charges, auto_balance)
    return config
