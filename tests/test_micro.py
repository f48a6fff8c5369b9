import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

import porodrift.transport as transport
from porodrift import (
    ConfigError,
    MicroSimulation,
    ScalingSpec,
    SpeciesSpec,
    TimeStepError,
    balance_outer_charges,
    build_masked_grid,
    h_p_eval,
    h_p_prime,
    run_micro,
    surface_charge_on_facets,
    validate_compatibility,
)
from porodrift.linalg import face_laplacian
from porodrift.transport import SimState, _StepRejected

from conftest import (
    constant_xi1,
    constant_xi2,
    hole_free_grid,
    make_scaling,
    smooth_c0,
    zero_charges,
    zero_xi1,
    zero_xi2,
)


# -- nonlinearity ---------------------------------------------------------------


def test_h_p_at_zero():
    assert h_p_eval(0.0, 1.0, 4.0) == 0.0
    assert h_p_prime(0.0, 1.0, 4.0) == 1.0


def test_h_p_arithmetic():
    assert h_p_eval(1.0, 1.0, 4.0) == 2.0
    assert h_p_eval(2.0, 1.0, 4.0) == 18.0
    assert h_p_prime(2.0, 1.0, 4.0) == 33.0


def test_h_p_prime_matches_finite_difference():
    # centered-difference oracle at r = 1.3 for eta = 0.5, p = 5
    eta, p, r = 0.5, 5.0, 1.3
    step = 1e-6
    fd = (h_p_eval(r + step, eta, p) - h_p_eval(r - step, eta, p)) / (2 * step)
    assert abs(h_p_prime(r, eta, p) - fd) < 1e-6
    assert h_p_prime(r, eta, p) - 1.0 == pytest.approx(2.5 * r ** 4, rel=1e-13)


def test_h_p_rejects_negative():
    with pytest.raises(ValueError):
        h_p_eval(-0.1, 1.0, 4.0)
    with pytest.raises(ValueError):
        h_p_prime(np.array([0.5, -1e-6]), 1.0, 4.0)


# -- scaling spec ------------------------------------------------------------------


def test_scaling_spec_rejects_alpha_above_beta():
    with pytest.raises(ConfigError, match="alpha <= beta"):
        ScalingSpec(epsilon=0.5, alpha=1.0, beta=0.0, eta=1.0, p=4.0, final_time=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(eta=0.0), dict(eta=-1.0), dict(p=3.0), dict(epsilon=0.0), dict(final_time=-1.0),
])
def test_scaling_spec_rejects_invalid(kwargs):
    base = dict(epsilon=0.5, alpha=0.0, beta=0.0, eta=1.0, p=4.0, final_time=1.0)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ScalingSpec(**base)


def test_species_requires_positive_diffusivity():
    with pytest.raises(ConfigError, match="diffusivity"):
        SpeciesSpec("bad", 0.0, 1, smooth_c0)


# -- compatibility ---------------------------------------------------------------


def test_compatibility_constant_balance(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    xi2_value = -grid.n_fluid * grid.cell_volume / grid.outer_area_total
    charges = surface_charge_on_facets(grid, zero_xi1, constant_xi2(xi2_value))
    species = [SpeciesSpec("s", 1.0, 1, lambda x: np.ones(x.shape[0]))]
    assert validate_compatibility(grid, species, charges) == 0.0


def test_compatibility_symmetric_species(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = zero_charges(grid)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 1.0, -1, smooth_c0)]
    assert validate_compatibility(grid, species, charges) == 0.0


def test_compatibility_rejects_unbalanced(disk_cell_8):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = zero_charges(grid)
    species = [SpeciesSpec("s", 1.0, 1, lambda x: np.ones(x.shape[0]))]
    with pytest.raises(ConfigError) as excinfo:
        validate_compatibility(grid, species, charges)
    assert excinfo.value.residual == pytest.approx(grid.n_fluid * grid.cell_volume)


# -- fluxes ------------------------------------------------------------------------


def _simple_sim(grid, species, charges=None, alpha=0.0, beta=0.0, T=0.1):
    charges = charges if charges is not None else zero_charges(grid)
    scaling = make_scaling(grid.eps, alpha=alpha, beta=beta, T=T)
    return MicroSimulation(grid, scaling, species, charges)


def test_fluxes_vanish_for_uniform_state():
    grid = hole_free_grid(8)
    species = [SpeciesSpec(name, 1.0, z, lambda x: np.ones(x.shape[0]))
               for name, z in (("p", 1), ("m", -1))]
    sim = _simple_sim(grid, species)
    state = SimState(0.0, np.ones((2, grid.n_fluid)), np.zeros(grid.n_fluid))
    new_state = sim.step(state, 1e-4)
    np.testing.assert_allclose(new_state.conc, 1.0, rtol=0.0, atol=1e-15)


def test_imex_step_solves_frozen_coefficient_system(monkeypatch):
    # with z = 0 and the identity tensor one step is the linear solve
    # (I/dt + L(D h_p'(c_face) / h^2)) c_new = c/dt, c_face the mean of the face's cells;
    # its CG at a tight tolerance, so that the bound is an LU's
    monkeypatch.setattr(transport, "CG_TOL", 1e-13)
    grid = hole_free_grid(8)
    diffusivity = 0.7
    sim = _simple_sim(grid, [SpeciesSpec("s", diffusivity, 0, lambda x: x[:, 0])])
    conc = grid.centers[:, 0].copy()
    state = SimState(0.0, conc[None, :], np.zeros(grid.n_fluid))
    dt = 1e-2
    new_state = sim.step(state, dt)
    face_h = h_p_prime(0.5 * (conc[grid.face_lo] + conc[grid.face_hi]), 1.0, 4.0)
    matrix = (sparse.identity(grid.n_fluid) / dt
              + face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi,
                               diffusivity * face_h / grid.h ** 2))
    expected = spsolve(matrix.tocsc(), conc / dt)
    np.testing.assert_allclose(new_state.conc[0], expected, rtol=1e-12)
    assert np.max(np.abs(expected - conc)) > 1e-2


def test_upwind_picks_donor_cell():
    grid = hole_free_grid(8)
    sim = _simple_sim(grid, [SpeciesSpec("s", 1.0, 1, lambda x: np.ones(x.shape[0]))])
    # phi decreasing in x1 -> drift velocity v = -D z dphi/dn > 0 on x1-faces,
    # so the upwind value is the low-side cell
    phi = -grid.centers[:, 0]
    phi = phi - phi.mean()
    conc = 1.0 + 0.25 * np.sin(2 * np.pi * grid.centers[:, 1])
    grad = sim._normal_gradient_faces(phi)
    drift = sim._drift_fluxes(conc[None, :], grad)[0]
    x_faces = grid.face_axis == 0
    velocity = -1.0 * 1.0 * grad[x_faces]
    assert np.all(velocity > 0)
    np.testing.assert_allclose(drift[x_faces], velocity * conc[grid.face_lo[x_faces]],
                               rtol=1e-13)


# -- stepping -------------------------------------------------------------------


def test_uniform_state_is_stationary():
    grid = hole_free_grid(8)
    sim = _simple_sim(grid, [SpeciesSpec("s", 1.0, 0, lambda x: np.ones(x.shape[0]))])
    state = sim.initial_state()
    new = sim.step(state, 1e-2)
    np.testing.assert_allclose(new.conc, 1.0, atol=1e-12)
    assert np.sum(new.conc) * grid.cell_volume == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("final_time,dt_init,message", [
    (-0.01, 1e-3, "final_time must be >= 0"),
    (0.01, 0.0, "dt_init must be positive"),
    (0.01, -1e-3, "dt_init must be positive"),
])
def test_run_rejects_negative_time_or_step(final_time, dt_init, message):
    sim = _simple_sim(hole_free_grid(8), [SpeciesSpec("s", 1.0, 0, smooth_c0)])
    with pytest.raises(ValueError, match=message):
        sim.run(final_time, dt_init)


def test_zero_species_is_fixed_point():
    grid = hole_free_grid(8)
    sim = _simple_sim(grid, [SpeciesSpec("s", 1.0, 0, lambda x: np.zeros(x.shape[0]))])
    result = sim.run(0.05, 1e-2)
    np.testing.assert_array_equal(result.state.conc, 0.0)


def test_mass_conserved_every_step(disk_cell_8, canonical_species):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = surface_charge_on_facets(grid, constant_xi1(0.2), zero_xi2)
    charges, _ = balance_outer_charges(grid, canonical_species, charges)
    scaling = make_scaling(grid.eps, T=0.02)
    result = run_micro(grid, scaling, canonical_species, charges, dt_init=1e-3)
    assert result.summary["max_step_mass_drift_rel"] <= 1e-12
    assert result.summary["max_mass_drift_rel"] <= 1e-9


@pytest.fixture(scope="module")
def symmetric_runs():
    # a +1/-1 pair with equal diffusivities and the neutral species they should reproduce
    grid = hole_free_grid(16)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 1.0, -1, smooth_c0)]
    neutral = [SpeciesSpec("n", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.02)
    pair = run_micro(grid, scaling, species, zero_charges(grid), dt_init=1e-3)
    reference = run_micro(grid, scaling, neutral, zero_charges(grid), dt_init=1e-3)
    return pair, reference


def test_symmetric_species_stay_identical_and_phi_zero(symmetric_runs):
    result, reference = symmetric_runs
    np.testing.assert_array_equal(result.state.conc[0], result.state.conc[1])
    np.testing.assert_array_equal(result.state.phi, 0.0)
    # the coupled symmetric pair reproduces the pure-diffusion trajectory bitwise
    np.testing.assert_array_equal(result.state.conc[0], reference.state.conc[0])


def test_symmetric_species_stay_identical_on_the_two_level_side(symmetric_runs):
    # every species starts its CG from its own extrapolated guess, computed the same way,
    # so each species of the pair repeats the neutral run's two-level solves exactly
    result, reference = symmetric_runs
    assert result.solves["solves"] > 0
    assert result.solves["coarse_size"] == reference.solves["coarse_size"] > 0
    for key in ("solves", "cg_iterations"):
        assert result.solves[key] == 2 * reference.solves[key]
    for key in ("max_cg_iterations", "max_cg_residual", "restarts", "rejections"):
        assert result.solves[key] == reference.solves[key]


# The tolerance rule (README, "Tolerances"): a solver moves an output by at most 1e-3 of
# the smallest error of the converge budget (the macro reference's, 0.5 % of the finest
# eps error) and a gated quantity by at most 1e-2 of its acceptance gate.
BUDGET_SHARE = 1e-3 * 5e-3
GATES = {"max_mass_drift_rel": 1e-9, "max_step_mass_drift_rel": 1e-9,
         "max_compat_residual": 1e-10, "max_energy_increase_rel": 1e-8}


def test_transport_cg_tolerance_meets_the_tolerance_rule(disk_cell_8, canonical_species,
                                                         monkeypatch):
    # 6,656 black cells
    grid = build_masked_grid(disk_cell_8, 16)
    charges, _ = balance_outer_charges(
        grid, canonical_species, surface_charge_on_facets(grid, constant_xi1(0.2), zero_xi2))
    scaling = make_scaling(grid.eps, T=2e-3)

    def run():
        return run_micro(grid, scaling, canonical_species, charges, dt_init=5e-4,
                         output_interval=5e-4)

    default = run()
    monkeypatch.setattr(transport, "CG_TOL", 1e-13)
    tight = run()
    assert default.solves["solves"] == 8
    for key, value in tight.summary.items():
        if key in GATES:
            assert abs(default.summary[key] - value) <= 1e-2 * GATES[key]
            assert default.summary[key] <= GATES[key]
        else:
            assert abs(default.summary[key] - value) <= BUDGET_SHARE * abs(value), key
    assert default.summary["min_c"] >= -1e-12
    # every output row; the mean potential and the residual are zero up to rounding
    header = tight.record.header()
    rows, reference = np.array(default.record.rows), np.array(tight.record.rows)
    for i, name in enumerate(header):
        bound = (1e-2 * GATES["max_compat_residual"] if name in ("mean_phi", "compat_residual")
                 else BUDGET_SHARE * np.abs(reference[:, i]))
        assert np.all(np.abs(rows[:, i] - reference[:, i]) <= bound), name
    # each step's energy change, which the energy gate reads
    energy = header.index("energy")
    moves = np.abs(np.diff(rows[:, energy]) - np.diff(reference[:, energy]))
    assert np.max(moves) <= 1e-2 * GATES["max_energy_increase_rel"] * reference[0, energy]


def test_zero_time_run_echoes_initial_state():
    grid = hole_free_grid(8)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.0)
    result = run_micro(grid, scaling, species, zero_charges(grid), dt_init=1e-3)
    assert len(result.record) == 1
    assert result.summary["steps"] == 0
    np.testing.assert_allclose(result.state.conc[0], smooth_c0(grid.centers))


def test_dt_halving_self_convergence():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.02)

    def final(dt):
        return run_micro(grid, scaling, species, zero_charges(grid),
                         dt_init=dt).state.conc[0]

    reference = final(2e-3 / 16)
    err_coarse = np.max(np.abs(final(2e-3) - reference))
    err_fine = np.max(np.abs(final(1e-3) - reference))
    assert err_fine < err_coarse
    assert err_coarse / err_fine == pytest.approx(2.0, rel=0.35)


def test_poisson_linearity_in_charges():
    grid = hole_free_grid(16)
    sim = _simple_sim(grid, [SpeciesSpec("s", 1.0, 1, smooth_c0),
                             SpeciesSpec("m", 1.0, -1, lambda x: 2.0 - smooth_c0(x))])
    conc = np.stack([smooth_c0(grid.centers), 2.0 - smooth_c0(grid.centers)])
    phi = sim.state(0.0, conc).phi
    # scale both species by 10: the net charge scales by 10, so must phi
    phi10 = sim.state(0.0, 10 * conc).phi
    np.testing.assert_allclose(phi10, 10 * phi, atol=1e-9)
    assert abs(np.mean(phi)) <= 1e-12


def test_zero_charge_gives_zero_potential():
    grid = hole_free_grid(8)
    sim = _simple_sim(grid, [SpeciesSpec("s", 1.0, 0, smooth_c0)])
    state = sim.initial_state()
    np.testing.assert_array_equal(state.phi, 0.0)


def test_run_loop_halves_dt_on_rejection():
    grid = hole_free_grid(8)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.01)

    class Flaky(MicroSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.failures = 3

        def step(self, state, dt, **kwargs):
            if self.failures > 0:
                self.failures -= 1
                raise _StepRejected
            return super().step(state, dt, **kwargs)

    sim = Flaky(grid, scaling, species, zero_charges(grid))
    result = sim.run(0.01, 4e-3)
    assert result.summary["rejections"] == 3
    assert result.summary["dt_min_used"] == pytest.approx(4e-3 / 8)
    assert result.state.t == pytest.approx(0.01)


def test_rejected_step_extrapolates_with_the_halved_dt():
    grid = hole_free_grid(16)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.005)

    class RejectsSecond(MicroSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.steps, self.guesses = [], []

        def step(self, state, dt, **kwargs):
            self.steps.append((state, dt, kwargs["previous"]))
            if len(self.steps) == 2:
                raise _StepRejected
            return super().step(state, dt, **kwargs)

        def _implicit_solve(self, *args):
            self.guesses.append(args[5])
            return super()._implicit_solve(*args)

    sim = RejectsSecond(grid, scaling, species, zero_charges(grid))
    result = sim.run(0.005, 1e-3)
    assert result.summary["rejections"] == 1
    (first, _, none), (state, rejected_dt, previous), (retry, dt, retry_previous) = sim.steps[:3]
    assert none is None and previous is first and retry is state and retry_previous is first
    assert dt == 0.5 * rejected_dt
    # the first step starts from c^n; the retry extrapolates over the halved dt
    np.testing.assert_array_equal(sim.guesses[0], first.conc[0])
    expected = state.conc + dt / (state.t - first.t) * (state.conc - first.conc)
    np.testing.assert_array_equal(sim.guesses[1], expected[0])
    assert result.solves["solves"] == len(sim.guesses) == result.summary["steps"]
    assert result.solves["rejections"] == result.summary["rejections"] > 0
    # the flux form keeps the mass whatever the guess
    assert result.summary["max_mass_drift_rel"] <= 1e-13


def test_run_loop_aborts_below_dt_floor():
    grid = hole_free_grid(8)
    species = [SpeciesSpec("s", 1.0, 0, smooth_c0)]
    scaling = make_scaling(grid.eps, T=0.01)

    class AlwaysRejects(MicroSimulation):
        def step(self, state, dt, **kwargs):
            raise _StepRejected

    sim = AlwaysRejects(grid, scaling, species, zero_charges(grid))
    with pytest.raises(TimeStepError):
        sim.run(0.01, 1e-3)


def test_energy_evaluated_once_per_accepted_state(monkeypatch):
    import porodrift.transport as transport

    calls = []
    real = transport.energy_value
    monkeypatch.setattr(transport, "energy_value",
                        lambda *args: calls.append(args) or real(*args))
    grid = hole_free_grid(8)
    species = [SpeciesSpec("p", 1.0, 1, smooth_c0), SpeciesSpec("m", 0.5, -1, smooth_c0)]
    result = _simple_sim(grid, species, T=0.01).run(0.01, 1e-3, output_interval=2e-3)
    assert result.summary["steps"] == 10 and len(result.record) == 6
    assert len(calls) == result.summary["steps"] + 1


def _reduced_summary(record, names, source_active):
    """The summary keys that reduce the output rows, computed from ``record``'s columns."""
    rows = range(len(record))
    mins = [min(record.column(f"min_{n}")[k] for n in names) for k in rows]
    maxs = [max(record.column(f"max_{n}")[k] for n in names) for k in rows]
    masses = [[record.column(f"mass_{n}")[k] for n in names] for k in rows]
    scale = [max(abs(m), 1e-300) for m in masses[0]]
    energy, dts = record.column("energy"), record.column("dt")[1:]
    drifts, step_drifts = [0.0], [0.0]
    if not source_active:
        drifts += [max(abs(a - b) / s for a, b, s in zip(m, masses[0], scale))
                   for m in masses[1:]]
        step_drifts += [max(abs(a - b) / s for a, b, s in zip(m, before, scale))
                        for before, m in zip(masses, masses[1:])]
    return {
        "min_c": min(mins),
        "max_c": max(maxs),
        "initial_max_c": maxs[0],
        "max_mass_drift_rel": max(drifts),
        "max_step_mass_drift_rel": max(step_drifts),
        "max_compat_residual": max(abs(r) for r in record.column("compat_residual")),
        "max_energy_increase_rel": max([0.0] + [(b - a) / energy[0]
                                                for a, b in zip(energy, energy[1:])]),
        "energy_initial": energy[0],
        "steps": len(dts),
        "dt_min_used": min(dts, default=0.0),
        "dt_max_used": max(dts, default=0.0),
    }


@pytest.mark.parametrize("case", ["uncharged", "source", "zero-time"])
def test_summary_is_a_reduction_of_the_accepted_states(case):
    # uncharged species step by dt_init, so with output_interval = dt_init every
    # accepted state is an output row
    grid = hole_free_grid(8)
    species = [SpeciesSpec("a", 1.0, 0, smooth_c0),
               SpeciesSpec("b", 0.5, 0, lambda x: 2.0 - smooth_c0(x))]
    final_time = 0.0 if case == "zero-time" else 0.01
    source = None
    if case == "source":
        def source(t, x):
            return np.stack([0.5 + np.cos(np.pi * x[:, 0]), np.full(x.shape[0], t)])
    sim = _simple_sim(grid, species, T=final_time)
    snapshot_times = (0.0,) if case == "zero-time" else (0.0, 4e-3, final_time)
    result = sim.run(final_time, 1e-3, output_interval=1e-3, snapshot_times=snapshot_times,
                     source=source)
    summary, record = result.summary, result.record
    assert len(record) == summary["steps"] + 1 == (1 if case == "zero-time" else 11)
    expected = _reduced_summary(record, [s.name for s in species], source is not None)
    assert {key: summary[key] for key in expected} == expected
    assert summary["source_active"] == (source is not None)
    if source is not None:
        assert summary["max_mass_drift_rel"] == summary["max_step_mass_drift_rel"] == 0.0
        assert record.column("mass_a")[-1] != record.column("mass_a")[0]
    times = record.column("t")
    assert sorted(result.snapshots) == list(snapshot_times)
    for t, state in result.snapshots.items():
        assert state.t == t
        row = times.index(t)
        masses = np.array([np.sum(c) for c in state.conc]) * grid.cell_volume
        assert masses.tolist() == [record.column(f"mass_{s.name}")[row] for s in species]
    assert result.snapshots[snapshot_times[-1]] is result.state


def test_three_dimensional_micro_run():
    from porodrift import InclusionShape, build_cell_geometry

    cell = build_cell_geometry(InclusionShape("disk", center=(0.5, 0.5, 0.5),
                                              radius=0.2), 8)
    grid = build_masked_grid(cell, 2)

    def c0(x):
        return 1.0 + 0.25 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 2])

    species = [SpeciesSpec("p", 1.0, 1, c0), SpeciesSpec("m", 1.0, -1, c0)]
    charges = surface_charge_on_facets(grid, constant_xi1(0.1), zero_xi2)
    charges, _ = balance_outer_charges(grid, species, charges)
    scaling = make_scaling(grid.eps, T=0.005)
    result = run_micro(grid, scaling, species, charges, dt_init=1e-3)
    assert result.summary["max_mass_drift_rel"] <= 1e-9
    assert result.summary["min_c"] >= -1e-12
    assert result.summary["max_energy_increase_rel"] <= 1e-8
    assert result.summary["max_compat_residual"] <= 1e-10


def test_oscillatory_interface_charge_run(disk_cell_8, canonical_species):
    # xi1 depending on both the slow and fast variable, auto-balanced
    def xi1(x, y):
        return 0.1 * (1.0 + 0.5 * x[:, 0]) * np.cos(2 * np.pi * y[:, 0])

    grid = build_masked_grid(disk_cell_8, 4)
    charges = surface_charge_on_facets(grid, xi1, zero_xi2)
    charges, _ = balance_outer_charges(grid, canonical_species, charges)
    scaling = make_scaling(grid.eps, T=0.01)
    result = run_micro(grid, scaling, canonical_species, charges, dt_init=1e-3)
    assert result.summary["max_compat_residual"] <= 1e-10
    assert result.summary["max_mass_drift_rel"] <= 1e-9
    # the oscillatory charge actually drives the potential
    assert np.max(np.abs(result.state.phi)) > 1e-6


def test_compatibility_persists_along_run(disk_cell_8, canonical_species):
    grid = build_masked_grid(disk_cell_8, 4)
    charges = surface_charge_on_facets(grid, constant_xi1(0.2), zero_xi2)
    charges, _ = balance_outer_charges(grid, canonical_species, charges)
    scaling = make_scaling(grid.eps, T=0.02)
    result = run_micro(grid, scaling, canonical_species, charges, dt_init=1e-3)
    assert result.summary["max_compat_residual"] <= 1e-10
    assert result.summary["min_c"] >= -1e-12
