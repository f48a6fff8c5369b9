"""Verification harnesses: homogenization sweep, manufactured solutions, eta sweep.

This module also holds the set-up that config, cli and the sweep share: the
``auto_balance`` policy (``balanced_charges``) and the homogenized problem's
grid and charges (``homogenized_problem``).

The homogenization study integrates the microscopic system for a decreasing
sequence eps = 1/m (grids tile exactly, r cells per eps-cell) and compares
against one macro run with the effective tensor computed on the *same*
staircase unit cell at resolution r.  Keeping the discrete cell problem and
the discrete interface measure on both sides makes the comparison free of
geometry-model mismatch: the error is then dominated by the genuine
homogenization error and must shrink with eps.

Errors are discrete L2 over fluid cells at the final time, normalized by
|Omega_eps|^(1/2) (i.e. an RMS over fluid cells); the macro fields are
sampled at micro cell centers by multilinear interpolation.  Potentials are
compared after aligning means over the fluid cells (both are only defined up
to constants), plain and with the first-order corrector reconstruction.

The manufactured-solution battery grades the observed orders of fixed 2-D
problems against ``MMS_THRESHOLDS``.  Their data are the ``MMS_*`` constants:
callers choose only the resolutions and the Poisson tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .cell_problem import DEFAULT_TOL, compute_effective_tensor
from .errors import ConfigError
from .geometry import (
    MIN_RESOLUTION,
    FacetCharges,
    InclusionShape,
    MaskedGrid,
    balance_outer_charges,
    build_cell_geometry,
    build_masked_grid,
    surface_charge_on_facets,
    validate_compatibility,
)
from .macro import (
    build_macro_source,
    limit_mode,
    reconstruct_corrector_potential,
    run_macro,
    sample_macro_field,
)
from .micro import ScalingSpec, SpeciesSpec, run_micro
from .transport import poisson_solver


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(values ** 2)))


def _mean_aligned_rms(a: np.ndarray, b: np.ndarray) -> float:
    diff = (a - a.mean()) - (b - b.mean())
    return _rms(diff)


def balanced_charges(grid: MaskedGrid, species, charges: FacetCharges, auto_balance):
    """The charges of ``grid`` that the Poisson problem takes, and the shift they got.

    With ``auto_balance`` the outer charge is shifted by the constant that
    makes the discrete charge balance exact.  Otherwise the balance is
    checked, a ConfigError raised if it fails, and the shift is None.
    """
    if auto_balance:
        return balance_outer_charges(grid, species, charges)
    validate_compatibility(grid, species, charges)
    return charges, None


def _hole_free_grid(resolution, dim=2):
    shape = InclusionShape("none", center=(0.5,) * dim)
    return build_masked_grid(build_cell_geometry(shape, resolution), 1)


def homogenized_problem(cell: MaskedGrid, resolution, species, xi1, xi2, auto_balance):
    """The macro grid of the homogenized problem and its balanced or checked charges.

    The grid is the hole-free ``resolution``^n grid; its charges average the
    interface charge over the unit cell ``cell`` (``macro.build_macro_source``).
    """
    grid = _hole_free_grid(resolution, cell.dim)
    charges, _ = balanced_charges(grid, species, build_macro_source(cell, grid, xi1, xi2),
                                  auto_balance)
    return grid, charges


@dataclass
class ConvergenceReport:
    """Per-eps micro-vs-macro errors plus the structural traces the sweep yields."""

    m_values: list
    epsilons: list
    species_names: list
    conc_errors: dict
    phi_error_plain: list
    phi_error_corrector: list
    max_conc_per_eps: list
    energy_initial_per_eps: list
    energy_max_per_eps: list
    a_hom: np.ndarray
    porosity: float
    macro_resolution: int
    mode: str
    runtimes: dict = field(default_factory=dict)
    solves: dict = field(default_factory=dict)

    def monotone_decreasing(self, name: str) -> bool:
        errors = self.conc_errors[name]
        return all(b < a for a, b in zip(errors, errors[1:]))

    def to_dict(self) -> dict:
        """The report.json payload; runtimes and solver counts stay out so the bytes replay."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("runtimes", "solves")}
        payload.update(species=payload.pop("species_names"), a_hom=self.a_hom.tolist(),
                       monotone={name: self.monotone_decreasing(name)
                                 for name in self.species_names})
        return payload


def check_m_values(m_values) -> None:
    """Raise ConfigError unless ``m_values`` is a non-empty, strictly increasing list of m >= 1."""
    if not m_values:
        raise ConfigError("convergence.m_values must be a non-empty list")
    for m in m_values:
        if m < 1:
            raise ConfigError(f"convergence.m_values must be >= 1, got {m}")
    if any(m2 <= m1 for m1, m2 in zip(m_values, m_values[1:])):
        raise ConfigError("convergence.m_values must be strictly increasing "
                          "(eps strictly decreasing)")


def run_convergence_study(cell: MaskedGrid, species, xi1, xi2, alpha, beta, eta, p,
                          m_values, final_time, dt_init, cfl_fraction=0.5,
                          macro_resolution=None, auto_balance=True,
                          poisson_tol=1e-11, cell_tol=DEFAULT_TOL) -> ConvergenceReport:
    """Micro runs over eps = 1/m against one macro reference run.

    The macro mode follows the scaling split: coupled when alpha == beta,
    decoupled (drift-free transport) when alpha < beta.
    """
    m_values = [int(m) for m in m_values]
    check_m_values(m_values)
    mode = limit_mode(alpha, beta)
    if macro_resolution is None:
        macro_resolution = cell.r * max(m_values)

    timings = {}
    t0 = time.perf_counter()
    tensor = compute_effective_tensor(cell, tol=cell_tol)
    timings["cell_problem"] = time.perf_counter() - t0

    macro_grid, macro_charges = homogenized_problem(cell, macro_resolution, species, xi1, xi2,
                                                    auto_balance)

    t0 = time.perf_counter()
    macro_result = run_macro(
        macro_grid, tensor.a_hom, species, macro_charges, eta, p, final_time, dt_init,
        mode=mode, cfl_fraction=cfl_fraction, poisson_tol=poisson_tol,
    )
    timings["macro"] = time.perf_counter() - t0
    solves = {"macro": macro_result.solves}

    names = [s.name for s in species]
    conc_errors = {name: [] for name in names}
    phi_plain, phi_corr = [], []
    max_conc, e0_list, emax_list = [], [], []
    for m in m_values:
        grid = build_masked_grid(cell, m)
        charges, _ = balanced_charges(grid, species, surface_charge_on_facets(grid, xi1, xi2),
                                      auto_balance)
        scaling = ScalingSpec(epsilon=grid.eps, alpha=alpha, beta=beta, eta=eta, p=p,
                              final_time=final_time)
        t0 = time.perf_counter()
        result = run_micro(grid, scaling, species, charges, dt_init,
                           cfl_fraction=cfl_fraction, poisson_tol=poisson_tol)
        timings[f"micro_m{m}"] = time.perf_counter() - t0
        solves[f"micro_m{m}"] = result.solves

        for i, name in enumerate(names):
            macro_at_micro = sample_macro_field(macro_grid, macro_result.state.conc[i],
                                                grid.centers)
            conc_errors[name].append(_rms(result.state.conc[i] - macro_at_micro))
        eps_alpha = grid.eps ** alpha
        phi_micro = eps_alpha * result.state.phi
        phi_macro_at_micro = sample_macro_field(macro_grid, macro_result.state.phi,
                                                grid.centers)
        phi_plain.append(_mean_aligned_rms(phi_micro, phi_macro_at_micro))
        reconstruction = reconstruct_corrector_potential(
            macro_grid, macro_result.state.phi, tensor.correctors, grid)
        phi_corr.append(_mean_aligned_rms(phi_micro, reconstruction))
        max_conc.append(result.summary["max_c"])
        energies = result.record.column("energy")
        e0_list.append(energies[0])
        emax_list.append(float(np.max(energies)))

    return ConvergenceReport(
        m_values=m_values,
        epsilons=[1.0 / m for m in m_values],
        species_names=names,
        conc_errors=conc_errors,
        phi_error_plain=phi_plain,
        phi_error_corrector=phi_corr,
        max_conc_per_eps=max_conc,
        energy_initial_per_eps=e0_list,
        energy_max_per_eps=emax_list,
        a_hom=tensor.a_hom,
        porosity=tensor.porosity,
        macro_resolution=macro_resolution,
        mode=mode,
        runtimes=timings,
        solves=solves,
    )


# -- manufactured solutions ---------------------------------------------------

# The data of the fixed problems: the macro Poisson tensor; h(c) = c + MMS_ETA c^MMS_P
# and the diffusivity of both diffusion studies, their end times, and the temporal
# study's grid, its time steps and the step of its reference run.
MMS_TENSOR = np.array([[1.0, 0.15], [0.15, 0.8]])
MMS_ETA = 1.0
MMS_P = 4.0
MMS_DIFFUSIVITY = 0.5
MMS_SPATIAL_T = 0.01
MMS_TEMPORAL_T = 0.02
MMS_TEMPORAL_RESOLUTION = 64
MMS_DT_VALUES = (2e-3, 1e-3, 5e-4)
MMS_REFERENCE_DT = 6.25e-5

MMS_THRESHOLDS = {
    "poisson_micro": (1.8, 2.2),
    "poisson_macro": (1.8, 2.2),
    "diffusion_spatial": (1.8, None),
    "diffusion_temporal": (0.9, None),
}

MMS_SOLVERS = ("poisson_micro", "poisson_macro", "diffusion")


def _least_squares_order(h_values, errors) -> float:
    """The slope of the least-squares line through (log h, log error)."""
    return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])


def _order_report(solver, resolutions, errors) -> dict:
    """The report of a study over ``resolutions``: its errors and their order in h = 1/res."""
    return {"solver": solver, "resolutions": list(resolutions), "errors": errors,
            "order": _least_squares_order([1.0 / res for res in resolutions], errors)}


def mms_poisson_micro(resolutions, poisson_tol=1e-11) -> dict:
    """phi = cos(pi x1) cos(pi x2) with matching bulk source and zero Neumann data."""
    errors = []
    for res in resolutions:
        grid = _hole_free_grid(res)
        x = grid.centers
        exact = np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        rhs = 2.0 * np.pi ** 2 * exact * grid.cell_volume
        phi = poisson_solver(grid, np.eye(grid.dim)).solve(rhs, tol=poisson_tol)
        errors.append(_mean_aligned_rms(phi, exact))
    return _order_report("poisson_micro", resolutions, errors)


def mms_poisson_macro(resolutions, poisson_tol=1e-10) -> dict:
    """phi = cos(pi x1) cos(2 pi x2) against MMS_TENSOR with exact flux data."""
    tensor = MMS_TENSOR
    errors = []
    for res in resolutions:
        grid = _hole_free_grid(res)
        x = grid.centers
        exact = np.cos(np.pi * x[:, 0]) * np.cos(2.0 * np.pi * x[:, 1])
        cross = np.sin(np.pi * x[:, 0]) * np.sin(2.0 * np.pi * x[:, 1])
        rho = (tensor[0, 0] * np.pi ** 2 + tensor[1, 1] * 4.0 * np.pi ** 2) * exact \
            - 2.0 * tensor[0, 1] * 2.0 * np.pi ** 2 * cross
        xb = grid.outer_center
        grad = np.stack([
            -np.pi * np.sin(np.pi * xb[:, 0]) * np.cos(2.0 * np.pi * xb[:, 1]),
            -2.0 * np.pi * np.cos(np.pi * xb[:, 0]) * np.sin(2.0 * np.pi * xb[:, 1]),
        ])
        flux = tensor @ grad
        normal_flux = np.where(grid.outer_axis == 0, flux[0], flux[1]) * grid.outer_sign
        boundary = FacetCharges(gamma_values=np.empty(0), outer_values=normal_flux)
        rhs = rho * grid.cell_volume + boundary.cell_sums(grid)
        phi = poisson_solver(grid, tensor).solve(rhs, tol=poisson_tol)
        errors.append(_mean_aligned_rms(phi, exact))
    return _order_report("poisson_macro", resolutions, errors)


def _diffusion_exact(t, pts):
    """The manufactured concentration c(t, x) = exp(-t) (2 + cos(pi x1))."""
    return np.exp(-t) * (2.0 + np.cos(np.pi * pts[:, 0]))


def _diffusion_source(t, pts):
    """The source under which ``_diffusion_exact`` solves the nonlinear diffusion."""
    c = _diffusion_exact(t, pts)
    grad_sq = (np.pi * np.exp(-t) * np.sin(np.pi * pts[:, 0])) ** 2
    lap_c = -np.pi ** 2 * np.exp(-t) * np.cos(np.pi * pts[:, 0])
    hpp = MMS_ETA * MMS_P * (MMS_P - 1.0) * c ** (MMS_P - 2.0)
    hp1 = 1.0 + MMS_ETA * MMS_P * c ** (MMS_P - 1.0)
    return (-c - MMS_DIFFUSIVITY * (hpp * grad_sq + hp1 * lap_c))[None, :]


def _diffusion_run(grid, final_time, dt, poisson_tol, solves, key):
    """The final concentration of the manufactured diffusion run; its solves go to solves[key]."""
    scaling = ScalingSpec(epsilon=1.0, alpha=0.0, beta=0.0, eta=MMS_ETA, p=MMS_P,
                          final_time=final_time)
    charges = FacetCharges(gamma_values=np.empty(0), outer_values=np.zeros(grid.outer_cell.size))
    spec = SpeciesSpec("mms", MMS_DIFFUSIVITY, 0, lambda pts: _diffusion_exact(0.0, pts))
    result = run_micro(grid, scaling, [spec], charges, dt_init=dt, source=_diffusion_source,
                       poisson_tol=poisson_tol)
    if solves is not None:
        solves[key] = result.solves
    return result.state.conc[0]


def mms_diffusion_spatial(resolutions, poisson_tol=1e-11, solves=None) -> dict:
    """Spatial order of the IMEX nonlinear-diffusion step; dt scales with h^2.

    ``solves``, when given, receives each run's transport solve counts under
    ``diffusion_spatial_r<resolution>``.
    """
    errors = []
    for res in resolutions:
        grid = _hole_free_grid(res)
        conc = _diffusion_run(grid, MMS_SPATIAL_T, 0.5 * grid.h ** 2, poisson_tol, solves,
                              f"diffusion_spatial_r{res}")
        errors.append(_rms(conc - _diffusion_exact(MMS_SPATIAL_T, grid.centers)))
    return _order_report("diffusion_spatial", resolutions, errors)


def mms_diffusion_temporal(poisson_tol=1e-11, solves=None) -> dict:
    """Temporal order on a fixed grid against a small-dt reference run.

    Self-referencing cancels the common spatial error, exposing the O(dt)
    splitting error of the IMEX scheme.  ``solves``, when given, receives
    each run's transport solve counts under ``diffusion_temporal_dt<dt>``.
    """
    grid = _hole_free_grid(MMS_TEMPORAL_RESOLUTION)
    final = {dt: _diffusion_run(grid, MMS_TEMPORAL_T, dt, poisson_tol, solves,
                                f"diffusion_temporal_dt{dt}")
             for dt in (MMS_REFERENCE_DT, *MMS_DT_VALUES)}
    errors = [_rms(final[dt] - final[MMS_REFERENCE_DT]) for dt in MMS_DT_VALUES]
    return {"solver": "diffusion_temporal", "resolution": MMS_TEMPORAL_RESOLUTION,
            "dt_values": list(MMS_DT_VALUES), "errors": errors,
            "order": _least_squares_order(MMS_DT_VALUES, errors)}


def check_mms_request(solvers, resolutions) -> None:
    """Raise ConfigError unless ``solvers`` are known studies and ``resolutions`` fit an order."""
    if not solvers:
        raise ConfigError("mms.solvers must be a non-empty list")
    for name in solvers:
        if name not in MMS_SOLVERS:
            raise ConfigError(f"mms.solvers has unknown solver {name!r}; "
                              f"expected some of {list(MMS_SOLVERS)}")
    for res in resolutions:
        if res < MIN_RESOLUTION:
            raise ConfigError(f"mms.resolutions must be >= {MIN_RESOLUTION}, got {res}")
    if len(set(resolutions)) < 2:
        raise ConfigError("mms.resolutions must hold at least two distinct resolutions "
                          "(an order is fitted over them)")


def run_mms_verification(solvers=MMS_SOLVERS, resolutions=(32, 64, 128),
                         poisson_tol=1e-10, solves=None) -> dict:
    """Run the requested manufactured-solution studies and grade the orders.

    Every Poisson solve of the studies, the diffusion runs' included, meets
    ``poisson_tol``.  ``solves``, when given, receives the transport solve
    counts of every diffusion run, keyed by study and run.
    """
    check_mms_request(solvers, resolutions)
    reports = []
    chosen = set(solvers)
    if "poisson_micro" in chosen:
        reports.append(mms_poisson_micro(resolutions, poisson_tol=poisson_tol))
    if "poisson_macro" in chosen:
        reports.append(mms_poisson_macro(resolutions, poisson_tol=poisson_tol))
    if "diffusion" in chosen:
        reports += [mms_diffusion_spatial(resolutions, poisson_tol=poisson_tol, solves=solves),
                    mms_diffusion_temporal(poisson_tol=poisson_tol, solves=solves)]
    for report in reports:
        lo, hi = MMS_THRESHOLDS[report["solver"]]
        report["threshold"] = [lo, hi]
        report["passed"] = bool(report["order"] >= lo and (hi is None or report["order"] <= hi))
    return {"reports": reports, "passed": all(report["passed"] for report in reports)}


# -- eta sweep ------------------------------------------------------------------


def run_eta_sweep(grid, tensor, species, charges: FacetCharges, p, eta_values,
                  final_time, dt_init, cfl_fraction=0.5, poisson_tol=1e-11,
                  solves=None) -> dict:
    """Coupled macro runs for a decreasing list of eta; reports successive distances.

    Exploratory: distances are logged, monotonicity is reported but nothing is
    asserted (the vanishing-regularization limit is outside the verified scope).
    ``solves``, when given, receives each run's transport solve counts under
    ``eta_<value>``.
    """
    eta_values = [float(v) for v in eta_values]
    if not eta_values or any(v <= 0 for v in eta_values):
        raise ConfigError("eta values must be a non-empty list of positive numbers")
    finals = []
    for eta in eta_values:
        result = run_macro(grid, tensor, species, charges, eta, p, final_time, dt_init,
                           mode="coupled", cfl_fraction=cfl_fraction,
                           poisson_tol=poisson_tol)
        if solves is not None:
            solves[f"eta_{eta}"] = result.solves
        finals.append(result.state)
    distances = []
    for a, b in zip(finals, finals[1:]):
        conc_d = float(np.sqrt(np.mean((a.conc - b.conc) ** 2)))
        phi_d = _mean_aligned_rms(a.phi, b.phi)
        distances.append({"conc": conc_d, "phi": phi_d,
                          "total": float(np.sqrt(conc_d ** 2 + phi_d ** 2))})
    monotone = all(b["total"] <= a["total"] for a, b in zip(distances, distances[1:])) \
        if len(distances) > 1 else None
    return {
        "eta_values": eta_values,
        "distances": distances,
        "monotone_observed": monotone,
        "final_max_conc": [float(np.max(s.conc)) for s in finals],
    }
