"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy pipelines (the canonical run, the two homogenization sweeps, the MMS
battery) execute once in module-scoped fixtures and are shared by the
criteria that read them.  Stated tolerances appear literally in the asserts.
"""

import json
import time

import numpy as np
import pytest

from porodrift import (
    FacetCharges,
    InclusionShape,
    SpeciesSpec,
    build_cell_geometry,
    build_masked_grid,
    build_macro_source,
    compute_effective_tensor,
    run_macro,
)
from porodrift.cli import dispatch
from porodrift.config import parse_and_validate
from porodrift.verification import run_convergence_study, run_mms_verification

from conftest import smooth_c0

C0_EXPR = "1 + 0.5*cos(pi*x1)*cos(pi*x2)"


def _canonical_config(out_dir):
    """2D, m=8, r=8, P=2, z=+-1, eta=1, p=4, alpha=beta=0, T=0.1; dt at half CFL."""
    return {
        "geometry": {"inclusion": {"kind": "disk", "center": [0.5, 0.5],
                                   "radius": 0.25}, "m": 8, "r": 8},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": 0.1,
                    "dt_init": 1.0, "cfl_fraction": 0.5},
        "species": [
            {"name": "cation", "D": 1.0, "z": 1, "c0": C0_EXPR},
            {"name": "anion", "D": 0.5, "z": -1, "c0": C0_EXPR},
        ],
        "surface_charge": {"xi1": "0.2", "xi2": "0", "auto_balance": True},
        "solver": {"poisson_tol": 1e-10, "cell_tol": 1e-12},
        "output": {"directory": str(out_dir), "interval": 0.01,
                   "snapshot_times": [0.1]},
        "convergence": {"m_values": [4, 8, 16], "T": 0.05, "dt_init": 5e-4,
                        "macro_resolution": 128},
    }


def _report(number, label, checks):
    """Print the criterion verdict, then fail loudly on the first broken check."""
    ok = all(passed for passed, _ in checks)
    print(f"\n[ACCEPTANCE {number}] {label}: {'PASS' if ok else 'FAIL'}")
    for passed, message in checks:
        if not passed:
            print(f"    failed: {message}")
    assert ok, f"acceptance criterion {number} failed: " + "; ".join(
        message for passed, message in checks if not passed)


def _run_dispatch(subcommand, config_dict, out_dir):
    config = parse_and_validate(config_dict)
    start = time.perf_counter()
    status = dispatch(subcommand, config, out_dir=out_dir)
    elapsed = time.perf_counter() - start
    assert status == 0, f"{subcommand} dispatch exited with {status}"
    return out_dir, elapsed


@pytest.fixture(scope="module")
def canonical_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("canonical_a")
    return _run_dispatch("micro", _canonical_config(out), out)


@pytest.fixture(scope="module")
def canonical_repeat(tmp_path_factory):
    out = tmp_path_factory.mktemp("canonical_b")
    return _run_dispatch("micro", _canonical_config(out), out)


@pytest.fixture(scope="module")
def converge_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("converge_a")
    return _run_dispatch("converge", _canonical_config(out), out)


@pytest.fixture(scope="module")
def converge_repeat(tmp_path_factory):
    out = tmp_path_factory.mktemp("converge_b")
    return _run_dispatch("converge", _canonical_config(out), out)


@pytest.fixture(scope="module")
def canonical_summary(canonical_run):
    out_dir, _ = canonical_run
    return json.loads((out_dir / "report.json").read_text())["summary"]


def _diagnostics_column(out_dir, column):
    lines = (out_dir / "diagnostics.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    idx = header.index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


# -- criterion 1 -------------------------------------------------------------------


def test_acceptance_1_effective_tensor_suite():
    checks = []
    none_tensor = compute_effective_tensor(build_cell_geometry(InclusionShape("none"), 32))
    checks.append((np.max(np.abs(none_tensor.a_hom - np.eye(2))) <= 1e-10,
                   "no-inclusion tensor differs from identity beyond 1e-10"))

    start = time.perf_counter()
    disk = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5), radius=0.25), 128)
    tensor = compute_effective_tensor(disk)
    elapsed = time.perf_counter() - start
    a = tensor.a_hom
    checks.append((abs(a[0, 1] - a[1, 0]) <= 1e-10,
                   f"disk tensor asymmetry {abs(a[0,1]-a[1,0]):.2e} > 1e-10"))
    checks.append((max(abs(a[0, 1]), abs(a[1, 0])) <= 1e-6,
                   f"disk tensor off-diagonals {max(abs(a[0,1]), abs(a[1,0])):.2e} > 1e-6"))
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T))
    checks.append((np.min(eigenvalues) > 0, "disk tensor is not positive definite"))
    checks.append((0 < a[0, 0] < 1 and 0 < a[1, 1] < 1,
                   f"disk tensor diagonal {a[0,0]:.6f}, {a[1,1]:.6f} outside (0, 1)"))
    energy_gap = np.max(np.abs(a - tensor.energy_form)) / np.max(np.abs(a))
    checks.append((energy_gap <= 1e-8,
                   f"energy-form vs mean-flux relative gap {energy_gap:.2e} > 1e-8"))
    checks.append((elapsed < 10.0, f"resolution-128 tensor took {elapsed:.1f} s >= 10 s"))
    _report(1, "effective-tensor suite", checks)


# -- criteria 2-4 on the canonical run ------------------------------------------------


def test_acceptance_2_conservation(canonical_run, canonical_summary):
    out_dir, elapsed = canonical_run
    summary = canonical_summary
    checks = [
        (summary["max_mass_drift_rel"] <= 1e-9,
         f"mass drift {summary['max_mass_drift_rel']:.2e} > 1e-9"),
        (summary["max_compat_residual"] <= 1e-10,
         f"compatibility residual {summary['max_compat_residual']:.2e} > 1e-10"),
        (elapsed < 120.0, f"canonical run took {elapsed:.1f} s >= 2 min"),
    ]
    compat = np.abs(_diagnostics_column(out_dir, "compat_residual"))
    checks.append((np.max(compat) <= 1e-10,
                   f"output-time compatibility residual {np.max(compat):.2e} > 1e-10"))
    _report(2, "conservation suite (canonical run)", checks)


def test_acceptance_3_energy_decay(canonical_run, canonical_summary):
    out_dir, _ = canonical_run
    summary = canonical_summary
    energy = _diagnostics_column(out_dir, "energy")
    slack = 1e-8 * energy[0]
    checks = [
        (summary["max_energy_increase_rel"] <= 1e-8,
         f"per-step energy increase {summary['max_energy_increase_rel']:.2e} > 1e-8 of V(0)"),
        (bool(np.all(np.diff(energy) <= slack)),
         "recorded energy series is not non-increasing within slack"),
        (summary["max_entropy_pnorm"] <= energy[0] + slack,
         f"p-norm bound {summary['max_entropy_pnorm']:.6f} exceeds V(0) = {energy[0]:.6f}"),
    ]
    _report(3, "energy decay and p-norm bound", checks)


def test_acceptance_4_nonnegativity_boundedness(canonical_summary):
    summary = canonical_summary
    checks = [
        (summary["min_c"] >= -1e-12,
         f"min concentration {summary['min_c']:.2e} < -1e-12"),
        (summary["max_c"] <= 1.5 * summary["initial_max_c"],
         f"max concentration {summary['max_c']:.6f} exceeds 1.5x initial max"),
    ]
    _report(4, "nonnegativity and boundedness", checks)


# -- criterion 5 ---------------------------------------------------------------------


def test_acceptance_5_mms_verification():
    start = time.perf_counter()
    report = run_mms_verification(resolutions=(32, 64, 128))
    elapsed = time.perf_counter() - start
    orders = {entry["solver"]: entry["order"] for entry in report["reports"]}
    checks = [
        (1.8 <= orders["poisson_micro"] <= 2.2,
         f"micro Poisson order {orders['poisson_micro']:.3f} outside [1.8, 2.2]"),
        (1.8 <= orders["poisson_macro"] <= 2.2,
         f"macro Poisson order {orders['poisson_macro']:.3f} outside [1.8, 2.2]"),
        (orders["diffusion_spatial"] >= 1.8,
         f"diffusion spatial order {orders['diffusion_spatial']:.3f} < 1.8"),
        (orders["diffusion_temporal"] >= 0.9,
         f"diffusion temporal order {orders['diffusion_temporal']:.3f} < 0.9"),
        (elapsed < 120.0, f"MMS battery took {elapsed:.1f} s >= 2 min"),
    ]
    _report(5, "manufactured-solution orders", checks)


# -- criterion 6 ---------------------------------------------------------------------


def _energy_decay_per_eps(m_values, increases):
    """The eps-uniform estimate: the micro run of every level keeps the energy gate."""
    checks = [(len(increases) == len(m_values), f"{len(increases)} energy increases reported "
                                                f"for {len(m_values)} eps levels")]
    return checks + [(increase <= 1e-8, f"energy rose by {increase:.3e} of its initial value "
                                        f"at eps = 1/{m}")
                     for m, increase in zip(m_values, increases)]


def test_acceptance_6_homogenization_coupled(converge_run):
    out_dir, elapsed = converge_run
    report = json.loads((out_dir / "report.json").read_text())
    checks = [(elapsed < 1200.0, f"convergence study took {elapsed:.0f} s >= 20 min")]
    for name, errors in report["conc_errors"].items():
        strict = all(b < a for a, b in zip(errors, errors[1:]))
        checks.append((strict, f"errors for {name} not strictly decreasing: {errors}"))
    checks.append((report["phi_error_corrector"][-1] <= report["phi_error_plain"][-1],
                   "corrector-enhanced potential error exceeds plain error at eps = 1/16"))
    # empirical eps-uniform boundedness: max concentration varies <= 20% between levels
    max_c = report["max_conc_per_eps"]
    for a, b in zip(max_c, max_c[1:]):
        checks.append((abs(b - a) / a <= 0.2,
                       f"max concentration jumped {abs(b-a)/a:.1%} between eps levels"))
    # energy bound surrogate across the sweep (alpha = beta: V stays near V(0))
    bound = 2.0 * max(report["energy_initial_per_eps"])
    checks.append((max(report["energy_max_per_eps"]) <= bound,
                   "max energy over the sweep exceeds twice the largest initial energy"))
    checks += _energy_decay_per_eps(report["m_values"], report["max_energy_increase_rel_per_eps"])
    _report(6, "homogenization convergence (alpha = beta)", checks)


# -- criterion 7 ---------------------------------------------------------------------


def test_acceptance_7_decoupling(disk_cell_8, canonical_species):
    report = run_convergence_study(
        disk_cell_8, canonical_species,
        xi1=lambda x, y: np.full(x.shape[0], 0.2),
        xi2=lambda x: np.zeros(x.shape[0]),
        alpha=0.0, beta=1.0, eta=1.0, p=4.0,
        m_values=[4, 8, 16], final_time=0.05, dt_init=5e-4,
        macro_resolution=128,
    )
    checks = [(report.mode == "decoupled", "beta = alpha + 1 did not select decoupled mode")]
    for name in report.species_names:
        errors = report.conc_errors[name]
        strict = all(b < a for a, b in zip(errors, errors[1:]))
        checks.append((strict, f"decoupled errors for {name} not decreasing: {errors}"))

    checks += _energy_decay_per_eps(report.m_values, report.max_energy_increase_rel_per_eps)

    # bitwise invariance of the decoupled concentration path under z and xi changes
    grid = build_masked_grid(build_cell_geometry(InclusionShape("none"), 8), 4)
    tensor = np.eye(2)
    source_a = FacetCharges(np.empty(0), np.zeros(grid.outer_cell.size),
                            volumetric=np.zeros(grid.n_fluid))
    source_b = FacetCharges(np.empty(0), np.full(grid.outer_cell.size, -0.1),
                            volumetric=np.full(grid.n_fluid, 0.4))
    species_a = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    species_b = [SpeciesSpec("p", 1.0, 3, smooth_c0), SpeciesSpec("m", 0.5, -3, smooth_c0)]
    run_a = run_macro(grid, tensor, species_a, source_a, 1.0, 4.0, 0.02, 1e-3,
                      mode="decoupled")
    run_b = run_macro(grid, tensor, species_b, source_b, 1.0, 4.0, 0.02, 1e-3,
                      mode="decoupled")
    identical = np.array_equal(run_a.state.conc, run_b.state.conc)
    checks.append((identical, "decoupled trajectory changed under z/xi modification"))
    _report(7, "decoupled limit (alpha < beta)", checks)


# -- criterion 8 ---------------------------------------------------------------------


def test_acceptance_8_determinism(canonical_run, canonical_repeat, converge_run,
                                  converge_repeat):
    dir_a, _ = canonical_run
    dir_b, _ = canonical_repeat
    conv_a, _ = converge_run
    conv_b, _ = converge_repeat
    checks = []
    for name in ("diagnostics.csv", "report.json", "snapshot_0.100000.csv"):
        same = (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        checks.append((same, f"canonical {name} differs between replays"))
    same_report = (conv_a / "report.json").read_bytes() == (conv_b / "report.json").read_bytes()
    checks.append((same_report, "convergence report differs between replays"))
    _report(8, "replay determinism (criteria 2 and 6)", checks)
