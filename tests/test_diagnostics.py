import numpy as np
import pytest

from porodrift import SpeciesSpec, build_masked_grid, psi_eval
from porodrift.diagnostics import (
    DiagnosticsRecord,
    energy_value,
    face_gradient_l2,
    lp_norm_pth_power,
)

from conftest import hole_free_grid


def test_psi_at_zero_is_one():
    assert psi_eval(0.0, 1.0, 4.0) == 1.0


def test_psi_at_one_is_eta_over_p_minus_one():
    assert psi_eval(1.0, 1.0, 4.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert psi_eval(1.0, 0.25, 5.0) == pytest.approx(0.0625, rel=1e-15)


def test_psi_arithmetic_value():
    # Psi(2) = 2 log 2 - 2 + 1 + (1/3) 2^4 for eta = 1, p = 4
    expected = 2.0 * np.log(2.0) - 1.0 + 16.0 / 3.0
    assert psi_eval(2.0, 1.0, 4.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(5.71963, abs=5e-6)


def test_psi_rejects_negative():
    with pytest.raises(ValueError):
        psi_eval(-0.5, 1.0, 4.0)


def test_psi_nonnegative_property():
    rng = np.random.default_rng(20240817)
    samples = np.concatenate([
        np.linspace(0.0, 5.0, 2001),
        rng.uniform(0.0, 100.0, 5000),
    ])
    for eta in (1e-3, 0.5, 1.0, 10.0):
        for p in (4.0, 5.5, 8.0):
            values = psi_eval(samples, eta, p)
            assert np.min(values) >= 0.0


def test_energy_constant_unit_concentration():
    grid = hole_free_grid(16)
    n_species = 3
    conc = np.ones((n_species, grid.n_fluid))
    phi = np.zeros(grid.n_fluid)
    eta, p = 1.0, 4.0
    value = energy_value(grid, conc, phi, eta, p, grad_prefactor=1.0)
    expected = n_species * (eta / (p - 1.0)) * grid.n_fluid * grid.cell_volume
    assert value == pytest.approx(expected, rel=1e-13)


def test_energy_zero_concentration():
    grid = hole_free_grid(16)
    conc = np.zeros((2, grid.n_fluid))
    phi = np.zeros(grid.n_fluid)
    value = energy_value(grid, conc, phi, 1.0, 4.0, grad_prefactor=1.0)
    assert value == pytest.approx(2.0 * grid.n_fluid * grid.cell_volume, rel=1e-13)


def test_energy_gradient_term_quadrature():
    grid = hole_free_grid(32)
    conc = np.zeros((1, grid.n_fluid))
    phi = grid.centers[:, 0].copy()
    # |grad phi| = 1 on interior x-faces; (n-1)/n of cells carry an x-face pair
    value = energy_value(grid, conc, phi, 1.0, 4.0, grad_prefactor=2.0)
    n = grid.n_cells_per_edge
    expected_field = 0.5 * 2.0 * (n - 1) * n * grid.cell_volume
    expected = expected_field + grid.n_fluid * grid.cell_volume  # Psi(0) = 1 per cell
    assert value == pytest.approx(expected, rel=1e-13)


def test_face_gradient_l2_linear_field():
    grid = hole_free_grid(16)
    values = 3.0 * grid.centers[:, 1]
    n = grid.n_cells_per_edge
    expected = np.sqrt(9.0 * n * (n - 1) * grid.cell_volume)
    assert face_gradient_l2(grid, values) == pytest.approx(expected, rel=1e-13)


def test_lp_norm_power():
    grid = hole_free_grid(8)
    values = np.full(grid.n_fluid, 2.0)
    assert lp_norm_pth_power(grid, values, 4.0) == pytest.approx(16.0, rel=1e-13)


def test_record_requires_increasing_times():
    record = DiagnosticsRecord(species_names=("a",))
    record.add_row(0.0, [1.0], 1.0, [0.0], [1.0], 0.0, 0.0, 0.0, [0.0], 0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        record.add_row(0.0, [1.0], 1.0, [0.0], [1.0], 0.0, 0.0, 0.0, [0.0], 0.0)


def test_record_csv_round_trip(tmp_path):
    record = DiagnosticsRecord(species_names=("a", "b"))
    record.add_row(0.0, [1.0, 2.0], 3.0, [0.1, 0.2], [1.1, 1.2], 0.0, 1e-16, 0.5,
                   [0.3, 0.4], 0.0)
    record.add_row(0.5, [1.0, 2.0], 2.5, [0.1, 0.2], [1.1, 1.2], 0.0, 1e-16, 0.5,
                   [0.3, 0.4], 1e-3)
    path = tmp_path / "diag.csv"
    record.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == record.header()
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first == record.rows[0]
