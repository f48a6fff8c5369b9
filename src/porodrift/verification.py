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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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

    def monotone_decreasing(self, name: str) -> bool:
        errors = self.conc_errors[name]
        return all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))

    def to_dict(self) -> dict:
        """The report.json payload; runtimes stay out so the bytes replay."""
        return {
            "m_values": list(self.m_values),
            "epsilons": list(self.epsilons),
            "species": list(self.species_names),
            "conc_errors": {k: list(v) for k, v in self.conc_errors.items()},
            "phi_error_plain": list(self.phi_error_plain),
            "phi_error_corrector": list(self.phi_error_corrector),
            "max_conc_per_eps": list(self.max_conc_per_eps),
            "energy_initial_per_eps": list(self.energy_initial_per_eps),
            "energy_max_per_eps": list(self.energy_max_per_eps),
            "a_hom": self.a_hom.tolist(),
            "porosity": self.porosity,
            "macro_resolution": self.macro_resolution,
            "mode": self.mode,
            "monotone": {name: self.monotone_decreasing(name) for name in self.species_names},
        }


def run_convergence_study(cell: MaskedGrid, species, xi1, xi2, alpha, beta, eta, p,
                          m_values, final_time, dt_init, cfl_fraction=0.5,
                          macro_resolution=None, auto_balance=True,
                          poisson_tol=1e-11, cell_tol=DEFAULT_TOL) -> ConvergenceReport:
    """Micro runs over eps = 1/m against one macro reference run.

    The macro mode follows the scaling split: coupled when alpha == beta,
    decoupled (drift-free transport) when alpha < beta.
    """
    m_values = [int(m) for m in m_values]
    if any(m2 <= m1 for m1, m2 in zip(m_values, m_values[1:])):
        raise ConfigError("m_values must be strictly increasing (eps strictly decreasing)")
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
    )


# -- manufactured solutions ---------------------------------------------------


def _least_squares_order(h_values, errors) -> float:
    logs_h = np.log(np.asarray(h_values))
    logs_e = np.log(np.asarray(errors))
    slope = np.polyfit(logs_h, logs_e, 1)[0]
    return float(slope)




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
    h_values = [1.0 / res for res in resolutions]
    return {"solver": "poisson_micro", "resolutions": list(resolutions),
            "errors": errors, "order": _least_squares_order(h_values, errors)}


def mms_poisson_macro(resolutions, tensor=None, poisson_tol=1e-10) -> dict:
    """phi = cos(pi x1) cos(2 pi x2) against a full symmetric tensor with exact flux data."""
    if tensor is None:
        tensor = np.array([[1.0, 0.15], [0.15, 0.8]])
    tensor = np.asarray(tensor, dtype=float)
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
    h_values = [1.0 / res for res in resolutions]
    return {"solver": "poisson_macro", "resolutions": list(resolutions),
            "errors": errors, "order": _least_squares_order(h_values, errors)}


def _diffusion_mms_problem(eta, p, diffusivity):
    """Manufactured c(t, x) = exp(-t) (2 + cos(pi x1)) and its induced source."""

    def exact(t, pts):
        return np.exp(-t) * (2.0 + np.cos(np.pi * pts[:, 0]))

    def source(t, pts):
        c = exact(t, pts)
        sx = np.sin(np.pi * pts[:, 0])
        cx = np.cos(np.pi * pts[:, 0])
        grad_sq = (np.pi * np.exp(-t) * sx) ** 2
        lap_c = -np.pi ** 2 * np.exp(-t) * cx
        hpp = eta * p * (p - 1.0) * c ** (p - 2.0)
        hp1 = 1.0 + eta * p * c ** (p - 1.0)
        return (-c - diffusivity * (hpp * grad_sq + hp1 * lap_c))[None, :]

    return exact, source


def mms_diffusion_spatial(resolutions, eta=1.0, p=4.0, diffusivity=0.5,
                          final_time=0.01, poisson_tol=1e-11) -> dict:
    """Spatial order of the IMEX nonlinear-diffusion step; dt scales with h^2."""
    exact, source = _diffusion_mms_problem(eta, p, diffusivity)
    errors = []
    for res in resolutions:
        grid = _hole_free_grid(res)
        scaling = ScalingSpec(epsilon=1.0, alpha=0.0, beta=0.0, eta=eta, p=p,
                              final_time=final_time)
        charges = surface_charge_on_facets(
            grid, lambda x, y: np.zeros(x.shape[0]), lambda x: np.zeros(x.shape[0]))
        spec = SpeciesSpec("mms", diffusivity, 0, lambda pts: exact(0.0, pts))
        dt = 0.5 * grid.h ** 2
        result = run_micro(grid, scaling, [spec], charges, dt_init=dt, source=source,
                           poisson_tol=poisson_tol)
        errors.append(_rms(result.state.conc[0] - exact(final_time, grid.centers)))
    h_values = [1.0 / res for res in resolutions]
    return {"solver": "diffusion_spatial", "resolutions": list(resolutions),
            "errors": errors, "order": _least_squares_order(h_values, errors)}


def mms_diffusion_temporal(resolution=64, dt_values=(2e-3, 1e-3, 5e-4),
                           reference_dt=6.25e-5, eta=1.0, p=4.0, diffusivity=0.5,
                           final_time=0.02, poisson_tol=1e-11) -> dict:
    """Temporal order on a fixed grid against a small-dt reference run.

    Self-referencing cancels the common spatial error, exposing the O(dt)
    splitting error of the IMEX scheme.
    """
    exact, source = _diffusion_mms_problem(eta, p, diffusivity)
    grid = _hole_free_grid(resolution)
    scaling = ScalingSpec(epsilon=1.0, alpha=0.0, beta=0.0, eta=eta, p=p,
                          final_time=final_time)
    charges = surface_charge_on_facets(
        grid, lambda x, y: np.zeros(x.shape[0]), lambda x: np.zeros(x.shape[0]))
    spec = SpeciesSpec("mms", diffusivity, 0, lambda pts: exact(0.0, pts))

    def final_conc(dt):
        result = run_micro(grid, scaling, [spec], charges, dt_init=dt, source=source,
                           poisson_tol=poisson_tol)
        return result.state.conc[0]

    reference = final_conc(reference_dt)
    errors = [_rms(final_conc(dt) - reference) for dt in dt_values]
    return {"solver": "diffusion_temporal", "resolution": resolution,
            "dt_values": list(dt_values), "errors": errors,
            "order": _least_squares_order(list(dt_values), errors)}


MMS_THRESHOLDS = {
    "poisson_micro": (1.8, 2.2),
    "poisson_macro": (1.8, 2.2),
    "diffusion_spatial": (1.8, None),
    "diffusion_temporal": (0.9, None),
}


MMS_SOLVERS = ("poisson_micro", "poisson_macro", "diffusion")


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
                         poisson_tol=1e-10) -> dict:
    """Run the requested manufactured-solution studies and grade the orders.

    Every Poisson solve of the studies, the diffusion runs' included, meets
    ``poisson_tol``.
    """
    check_mms_request(solvers, resolutions)
    reports = []
    chosen = set(solvers)
    if "poisson_micro" in chosen:
        reports.append(mms_poisson_micro(resolutions, poisson_tol=poisson_tol))
    if "poisson_macro" in chosen:
        reports.append(mms_poisson_macro(resolutions, poisson_tol=poisson_tol))
    if "diffusion" in chosen:
        reports.append(mms_diffusion_spatial(resolutions, poisson_tol=poisson_tol))
        reports.append(mms_diffusion_temporal(poisson_tol=poisson_tol))
    passed = True
    for report in reports:
        lo, hi = MMS_THRESHOLDS[report["solver"]]
        ok = report["order"] >= lo and (hi is None or report["order"] <= hi)
        report["threshold"] = [lo, hi]
        report["passed"] = bool(ok)
        passed = passed and ok
    return {"reports": reports, "passed": passed}


# -- eta sweep ------------------------------------------------------------------


def run_eta_sweep(grid, tensor, species, charges: FacetCharges, p, eta_values,
                  final_time, dt_init, cfl_fraction=0.5, poisson_tol=1e-11) -> dict:
    """Coupled macro runs for a decreasing list of eta; reports successive distances.

    Exploratory: distances are logged, monotonicity is reported but nothing is
    asserted (the vanishing-regularization limit is outside the verified scope).
    """
    eta_values = [float(v) for v in eta_values]
    if any(v <= 0 for v in eta_values):
        raise ConfigError("eta values must be positive")
    finals = []
    for eta in eta_values:
        result = run_macro(grid, tensor, species, charges, eta, p, final_time, dt_init,
                           mode="coupled", cfl_fraction=cfl_fraction,
                           poisson_tol=poisson_tol)
        finals.append(result.state)
    distances = []
    for a, b in zip(finals, finals[1:]):
        conc_d = float(np.sqrt(np.mean((a.conc - b.conc) ** 2)))
        phi_d = _mean_aligned_rms(a.phi, b.phi)
        distances.append({"conc": conc_d, "phi": phi_d,
                          "total": float(np.sqrt(conc_d ** 2 + phi_d ** 2))})
    monotone = all(
        distances[i + 1]["total"] <= distances[i]["total"]
        for i in range(len(distances) - 1)
    ) if len(distances) > 1 else None
    return {
        "eta_values": eta_values,
        "distances": distances,
        "monotone_observed": monotone,
        "final_max_conc": [float(np.max(s.conc)) for s in finals],
    }
