import csv
import json

import numpy as np
import pytest
import scipy.sparse as sparse

from porodrift import (
    ConfigError,
    FacetCharges,
    SpeciesSpec,
    balance_outer_charges,
    build_masked_grid,
    surface_charge_on_facets,
    validate_compatibility,
)
from porodrift import verification
from porodrift.cli import dispatch
from porodrift.config import parse_and_validate
from porodrift.linalg import ReducedFaceSystem, ZeroMeanDirect
from porodrift.verification import (
    mms_poisson_macro,
    mms_poisson_micro,
    run_convergence_study,
    run_eta_sweep,
    run_mms_verification,
)

from conftest import constant_xi1, hole_free_grid, smooth_c0, zero_xi2


def test_balance_outer_charges(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    species = [SpeciesSpec("s", 1.0, 1, lambda x: np.ones(x.shape[0]))]
    charges = surface_charge_on_facets(grid, constant_xi1(0.0), zero_xi2)
    balanced, shift = balance_outer_charges(grid, species, charges)
    assert shift == pytest.approx(-grid.n_fluid * grid.cell_volume / grid.outer_area_total)
    assert abs(validate_compatibility(grid, species, balanced,
                                      raise_on_fail=False)) <= 1e-14


def test_poisson_mms_uses_the_solver_of_the_runs(monkeypatch):
    # identity tensor: the two-point factorization on the reduced system, as in every
    # micro run; full tensor: the pinned LU of the assembled matrix
    operators = []
    init = ZeroMeanDirect.__init__

    def recorded(self, operator, *args):
        operators.append(type(operator))
        init(self, operator, *args)

    monkeypatch.setattr(ZeroMeanDirect, "__init__", recorded)
    mms_poisson_micro((8, 16))
    assert operators == [ReducedFaceSystem, ReducedFaceSystem]
    operators.clear()
    mms_poisson_macro((8, 16))
    assert operators == [sparse.csr_matrix, sparse.csr_matrix]


def test_poisson_mms_orders_are_second():
    micro = mms_poisson_micro((16, 32, 64))
    assert 1.9 <= micro["order"] <= 2.1
    macro = mms_poisson_macro((16, 32, 64))
    assert 1.9 <= macro["order"] <= 2.1


def test_mms_report_structure():
    report = run_mms_verification(solvers=("poisson_micro",), resolutions=(16, 32))
    assert report["passed"] is True
    (entry,) = report["reports"]
    assert entry["solver"] == "poisson_micro"
    assert entry["threshold"] == [1.8, 2.2]
    assert len(entry["errors"]) == 2


@pytest.mark.parametrize("solvers,resolutions,message", [
    (("poisson_micro",), (16,), "at least two distinct resolutions"),
    (("poisson_micro",), (16, 16), "at least two distinct resolutions"),
    (("poisson_micro", "poisson"), (16, 32), "unknown solver 'poisson'"),
    ((), (16, 32), "must be a non-empty list"),
    (("diffusion",), (2, 16), "must be >= 4, got 2"),
], ids=["one-resolution", "repeated-resolution", "unknown-solver", "no-solver", "floor"])
def test_mms_request_checked_before_any_solve(monkeypatch, solvers, resolutions, message):
    # every study reaches run_micro or poisson_solver, however the studies are factored
    for study in ("mms_poisson_micro", "mms_poisson_macro", "mms_diffusion_spatial",
                  "mms_diffusion_temporal", "run_micro", "poisson_solver"):
        monkeypatch.setattr(verification, study,
                            lambda *args, **kwargs: pytest.fail("a study ran"))
    with pytest.raises(ConfigError, match=message):
        run_mms_verification(solvers=solvers, resolutions=resolutions)


def test_mini_convergence_study_runs_and_is_deterministic(disk_cell_8, canonical_species):
    kwargs = dict(
        cell=disk_cell_8, species=canonical_species,
        xi1=constant_xi1(0.2), xi2=zero_xi2,
        alpha=0.0, beta=0.0, eta=1.0, p=4.0,
        m_values=[2, 4], final_time=0.01, dt_init=1e-3,
        macro_resolution=32,
    )
    report_a = run_convergence_study(**kwargs)
    report_b = run_convergence_study(**kwargs)
    assert report_a.mode == "coupled"
    assert report_a.epsilons == [0.5, 0.25]
    for name in report_a.species_names:
        assert all(np.isfinite(report_a.conc_errors[name]))
        assert report_a.conc_errors[name] == report_b.conc_errors[name]
    assert report_a.phi_error_plain == report_b.phi_error_plain
    assert report_a.to_dict() == report_b.to_dict()


def test_convergence_study_without_microstructure_is_exact(canonical_species):
    # no inclusion and matching resolutions: micro and macro solve the same
    # discrete system, so the comparison error is at rounding level
    from porodrift import InclusionShape, build_cell_geometry

    cell = build_cell_geometry(InclusionShape("none"), 8)
    report = run_convergence_study(
        cell, canonical_species,
        xi1=lambda x, y: np.zeros(x.shape[0]), xi2=zero_xi2,
        alpha=0.0, beta=0.0, eta=1.0, p=4.0,
        m_values=[2], final_time=0.01, dt_init=1e-3, macro_resolution=16,
    )
    for name in report.species_names:
        assert report.conc_errors[name][0] <= 1e-8
    assert report.phi_error_plain[0] <= 1e-8


def test_convergence_study_rejects_non_increasing_m(disk_cell_8, canonical_species):
    from porodrift import ConfigError
    with pytest.raises(ConfigError, match="strictly increasing"):
        run_convergence_study(disk_cell_8, canonical_species, constant_xi1(0.1),
                              zero_xi2, 0.0, 0.0, 1.0, 4.0,
                              m_values=[4, 4], final_time=0.01, dt_init=1e-3)


@pytest.mark.parametrize("m_values, macro_resolution, message", [
    ([], 16, "must be a non-empty list"),
    ([], None, "must be a non-empty list"),
    ([0, 2], None, "must be >= 1, got 0"),
])
def test_convergence_study_checks_m_values_before_any_solve(monkeypatch, disk_cell_8,
                                                            canonical_species, m_values,
                                                            macro_resolution, message):
    monkeypatch.setattr(verification, "compute_effective_tensor",
                        lambda *args, **kwargs: pytest.fail("a cell problem was solved"))
    with pytest.raises(ConfigError, match=message):
        run_convergence_study(disk_cell_8, canonical_species, constant_xi1(0.1), zero_xi2,
                              0.0, 0.0, 1.0, 4.0, m_values=m_values, final_time=0.01,
                              dt_init=1e-3, macro_resolution=macro_resolution)


def _sweep_inputs():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    source = FacetCharges(np.empty(0), np.full(grid.outer_cell.size, -0.2 / 4.0),
                          volumetric=np.full(grid.n_fluid, 0.2))
    return grid, species, source


def test_eta_sweep_constant_list_gives_zero_distance():
    grid, species, source = _sweep_inputs()
    report = run_eta_sweep(grid, np.eye(2), species, source, 4.0, [0.1, 0.1],
                           final_time=0.01, dt_init=1e-3)
    assert report["distances"][0]["total"] == 0.0


def test_eta_sweep_single_entry_has_no_distances():
    grid, species, source = _sweep_inputs()
    report = run_eta_sweep(grid, np.eye(2), species, source, 4.0, [0.25],
                           final_time=0.01, dt_init=1e-3)
    assert report["distances"] == []
    assert report["monotone_observed"] is None


def test_eta_sweep_rejects_an_empty_list():
    grid, species, source = _sweep_inputs()
    with pytest.raises(ConfigError, match="non-empty list"):
        run_eta_sweep(grid, np.eye(2), species, source, 4.0, [], final_time=0.01, dt_init=1e-3)


def test_eta_sweep_decreasing_values_reports_distances():
    grid, species, source = _sweep_inputs()
    report = run_eta_sweep(grid, np.eye(2), species, source, 4.0,
                           [0.5, 0.25, 0.125], final_time=0.01, dt_init=1e-3)
    assert len(report["distances"]) == 2
    assert all(d["total"] > 0 for d in report["distances"])
    assert report["monotone_observed"] in (True, False)


SHIFT_M = 4   # m of the micro run of _shift_config: eps = 1/4 scales by powers of 2 exactly


def _shift_config(alpha, beta):
    c0 = "1 + 0.5*cos(pi*x1)*cos(pi*x2)"
    return {
        "geometry": {"inclusion": {"kind": "disk", "center": [0.5, 0.5], "radius": 0.25},
                     "m": SHIFT_M, "r": 8},
        "scaling": {"alpha": alpha, "beta": beta, "eta": 1.0, "p": 4.0, "T": 0.01,
                    "dt_init": 2e-3},
        "species": [{"name": "cation", "D": 1.0, "z": 1, "c0": c0},
                    {"name": "anion", "D": 0.5, "z": -1, "c0": c0}],
        "surface_charge": {"xi1": "0.2", "xi2": "0", "auto_balance": True},
        "output": {"interval": 0.005, "snapshot_times": [0.01]},
        "convergence": {"m_values": [2, 4], "T": 0.004, "dt_init": 1e-3,
                        "macro_resolution": 32},
    }


def _floats(value, path=()):
    """(path, float) for every number in a report.json payload but the alpha and beta echo."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in ("alpha", "beta"):
                yield from _floats(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _floats(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _shift_outputs(tmp_path, alpha, beta):
    """Every report float, diagnostics value and final snapshot column of micro and converge.

    The potential's values (``mean_phi`` and the snapshot's ``phi``) are
    multiplied by eps^alpha, which makes them independent of a shift.
    """
    values, columns = {}, {}
    for subcommand in ("micro", "converge"):
        out = tmp_path / f"{subcommand}-{alpha}-{beta}"
        assert dispatch(subcommand, parse_and_validate(_shift_config(alpha, beta)),
                        out_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        values.update({(subcommand,) + path: v for path, v in _floats(report)})
    out = tmp_path / f"micro-{alpha}-{beta}"
    phi_factor = (1.0 / SHIFT_M) ** alpha
    with open(out / "diagnostics.csv") as handle:
        for index, row in enumerate(csv.DictReader(handle)):
            values.update({("diagnostics", index, key): float(v) for key, v in row.items()})
            values["diagnostics", index, "mean_phi"] *= phi_factor
    with open(out / f"snapshot_{0.01:.6f}.csv") as handle:
        rows = list(csv.DictReader(handle))
    for key in rows[0]:
        columns[key] = np.array([float(row[key]) for row in rows])
    columns["phi"] *= phi_factor
    return values, columns


@pytest.mark.parametrize("shifted,base", [((1.0, 1.0), (0.0, 0.0)), ((1.0, 2.0), (0.0, 1.0))],
                         ids=["coupled", "decoupled"])
def test_alpha_beta_shift_leaves_every_output_unchanged(tmp_path, shifted, base):
    # the micro model depends on alpha and beta through beta - alpha only: a shift by s
    # scales phi by eps^-s, which the permittivity, the mobility, the energy prefactor,
    # the logged |grad phi| and the compared eps^alpha phi each undo
    values, columns = _shift_outputs(tmp_path, *shifted)
    reference, reference_columns = _shift_outputs(tmp_path, *base)
    assert values.keys() == reference.keys()
    moved = {key: (values[key], reference[key]) for key in reference
             if abs(values[key] - reference[key]) > 1e-12 * abs(reference[key])}
    assert not moved
    assert columns.keys() == reference_columns.keys()
    for name, column in reference_columns.items():
        np.testing.assert_allclose(columns[name], column, rtol=1e-12, atol=0.0)
