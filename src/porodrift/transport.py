"""Finite-volume transport stepping shared by the micro and macro solvers.

One step treats the nonlinear diffusion implicitly through the frozen face
coefficient h_p'((c_lo + c_hi)/2) and the electromigration drift explicitly
with upwinding; the potential is re-solved from the updated concentrations
(first-order splitting).  The state update is applied in flux form -- every
face flux enters its two cells with opposite signs -- so each species' total
mass telescopes exactly regardless of linear-solver residuals.

A constant symmetric tensor enters through its diagonal as a per-face
two-point coefficient (implicit) and through its off-diagonal entries as
four-point averaged tangential differences (explicit).

The implicit matrix of each species and step is a fresh SuperLU
factorization, but its pattern is fixed and every face joins cells of
opposite grid-index parity.  The simulation builds one
``linalg.ReducedFaceSystem`` when it is constructed: the cells of one
parity are eliminated exactly, and the Schur complement on the others is
refilled in place in its symmetric fill-reducing order and factorized with
the ``NATURAL`` column order, in symmetric mode and with the supernode
settings ``linalg.SUPERNODES``; the eliminated cells follow by
back-substitution.

The potential is factored once per simulation (``poisson_solver``).  A
Poisson tensor without cross terms gives a two-point operator, factored on
the same reduced system with its own coefficients; a full tensor keeps the
pinned partial-pivot LU of ``poisson_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .diagnostics import DiagnosticsRecord, energy_value, face_gradient_l2, lp_norm_pth_power
from .errors import ConfigError, GeometryError, SolverError, TimeStepError
from .linalg import (
    SUPERLU_NATURAL,
    ReducedFaceSystem,
    ZeroMeanDirect,
    face_divergence,
    face_laplacian,
)

NEG_TOLERANCE = 1e-12     # accepted round-off undershoot of concentrations
DT_FLOOR = 1e-10          # abort threshold for the step-halving loop
CFL_SAFETY = 0.4          # dt <= CFL_SAFETY * h / max face drift speed
CROSS_TOL = 1e-14         # off-diagonal tensor entries up to this count as zero


def h_p_eval(r, eta: float, p: float):
    """Nonlinear diffusion primitive h_p(r) = r + eta r^p for r >= 0."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("h_p is only defined for r >= 0")
    value = arr + eta * arr ** p
    return float(value) if np.isscalar(r) else value


def h_p_prime(r, eta: float, p: float):
    """Derivative h_p'(r) = 1 + eta p r^(p-1) >= 1 for r >= 0."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("h_p' is only defined for r >= 0")
    value = 1.0 + eta * p * arr ** (p - 1.0)
    return float(value) if np.isscalar(r) else value


def _derivative_matrix_1d(n: int, h: float):
    """Cell-centered first derivative: central interior, quadratic one-sided ends."""
    mat = sparse.diags([-0.5 / h, 0.5 / h], [-1, 1], shape=(n, n), format="lil")
    mat[0, :3] = [-1.5 / h, 2.0 / h, -0.5 / h]
    mat[n - 1, n - 3:] = [0.5 / h, -2.0 / h, 1.5 / h]
    return mat.tocsr()


def gradient_matrices(grid):
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


def _face_incidence(grid):
    """Face-by-cell selection matrices of the lo and hi cell of every face."""
    n_faces = grid.face_lo.size
    ones = np.ones(n_faces)
    rows = np.arange(n_faces)
    s_lo = sparse.coo_matrix((ones, (rows, grid.face_lo)),
                             shape=(n_faces, grid.n_fluid)).tocsr()
    s_hi = sparse.coo_matrix((ones, (rows, grid.face_hi)),
                             shape=(n_faces, grid.n_fluid)).tocsr()
    return s_lo, s_hi


def _off_diagonal_max(tensor) -> float:
    """The largest off-diagonal entry of ``tensor`` in magnitude."""
    return float(np.max(np.abs(tensor - np.diag(np.diag(tensor)))))


def cross_operator(grid, tensor):
    """Tangential part of (tensor grad u) . n per face as one faces-by-cells CSR matrix.

    Row f sums, over the axes t other than the face's normal axis, the
    off-diagonal entry tensor[axis_f, t] times the cell-centered t-derivative
    averaged over the face's two cells.  None when every off-diagonal entry
    is at most CROSS_TOL in magnitude.
    """
    tensor = np.asarray(tensor, dtype=float)
    if _off_diagonal_max(tensor) <= CROSS_TOL:
        return None
    s_lo, s_hi = _face_incidence(grid)
    avg = 0.5 * (s_lo + s_hi)
    coef = tensor[grid.face_axis] * (grid.face_axis[:, None] != np.arange(grid.dim))
    return sum(sparse.diags(coef[:, t]) @ (avg @ grad)
               for t, grad in enumerate(gradient_matrices(grid))).tocsr()


def poisson_matrix(grid, tensor):
    """Singular finite-volume operator of -div(tensor grad phi) with no-flux faces.

    Rows are cell integrals: the two-point diagonal flux plus the tangential
    cross terms, each times the facet area.  The constant is its nullspace.
    """
    tensor = np.asarray(tensor, dtype=float)
    face_diag = tensor[grid.face_axis, grid.face_axis]
    matrix = face_laplacian(grid.n_fluid, grid.face_lo, grid.face_hi,
                            face_diag * grid.facet_area / grid.h)
    cross = cross_operator(grid, tensor)
    if cross is not None:
        s_lo, s_hi = _face_incidence(grid)
        matrix = matrix + grid.facet_area * ((s_hi - s_lo).T.tocsr() @ cross)
    return matrix.tocsr()


def reduced_face_system(grid):
    """The grid's ``ReducedFaceSystem``, its cells coloured by grid-index parity."""
    parity = np.indices(grid.fluid_mask.shape).sum(axis=0)[grid.fluid_mask]
    return ReducedFaceSystem(parity, grid.face_lo, grid.face_hi)


def poisson_solver(grid, tensor, reduced=None):
    """The factored zero-mean solver of ``poisson_matrix(grid, tensor)``.

    Without cross terms the operator is two-point and is factored on
    ``reduced``, the grid's reduced system (built here when not given).  A
    tensor with off-diagonal entries gets the pinned partial-pivot LU of the
    assembled matrix.
    """
    tensor = np.asarray(tensor, dtype=float)
    if _off_diagonal_max(tensor) > CROSS_TOL:
        return ZeroMeanDirect(poisson_matrix(grid, tensor))
    kappa = tensor[grid.face_axis, grid.face_axis] * grid.facet_area / grid.h
    return ZeroMeanDirect(reduced_face_system(grid) if reduced is None else reduced, kappa)


def _checked_tensor(tensor, dim):
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (dim, dim):
        raise ValueError(f"tensor shape {tensor.shape} does not match dimension {dim}")
    if np.max(np.abs(tensor - tensor.T)) > 1e-8:
        raise ValueError("tensor must be symmetric")
    return tensor


class _StepRejected(Exception):
    """Internal: nonnegativity violated, the caller halves dt and retries."""


@dataclass
class SimState:
    """Concentrations (one row per species) and zero-mean potential at time t."""

    t: float
    conc: np.ndarray
    phi: np.ndarray

    def copy(self):
        return SimState(t=self.t, conc=self.conc.copy(), phi=self.phi.copy())


@dataclass
class RunResult:
    """Trajectory handle: final state, per-output diagnostics, step summary."""

    state: SimState
    record: DiagnosticsRecord
    summary: dict
    snapshots: dict


class TransportSim:
    """Drift-diffusion engine of both scales; the model is its constructor data.

    Species flux -D_i [A grad h_p(c_i) + drift_scale z_i c_i A grad phi] with
    no-flux faces, potential from -div(B grad phi) = sum_i z_i c_i + s with the
    facet charges as Neumann data, zero mean.

      transport_tensor   A, constant symmetric (dim, dim)
      poisson_tensor     B, constant symmetric (dim, dim)
      drift_scale        mobility factor; 0.0 drops the drift from transport
      charges            FacetCharges: charge density per interface and outer
                         facet, and s, the fixed charge density per cell
      energy_prefactor   weight of (1/2)|grad phi|^2 in the energy
      grad_scale         factor on the logged |grad phi|
    """

    def __init__(self, grid, species, eta, p, *, transport_tensor, poisson_tensor,
                 drift_scale, charges, energy_prefactor, grad_scale,
                 poisson_tol=1e-11):
        self.grid = grid
        self.species = list(species)
        self.eta = float(eta)
        self.p = float(p)
        transport_tensor = _checked_tensor(transport_tensor, grid.dim)
        self._poisson_tensor = _checked_tensor(poisson_tensor, grid.dim)
        self.drift_scale = float(drift_scale)
        self.poisson_tol = float(poisson_tol)
        self.energy_prefactor = float(energy_prefactor)
        self.grad_scale = float(grad_scale)
        self._face_diag = transport_tensor[grid.face_axis, grid.face_axis]
        self._cross = cross_operator(grid, transport_tensor)
        self._cross_magnitude = 0.0 if self._cross is None else _off_diagonal_max(transport_tensor)
        self._volumetric = np.asarray(charges.volumetric, dtype=float)
        self._boundary_rhs = charges.cell_sums(grid)
        self._reduced = reduced_face_system(grid)
        self._poisson = None
        self._charges = np.array([s.charge for s in self.species], dtype=float)
        self._diffusivities = np.array([s.diffusivity for s in self.species], dtype=float)

    # -- potential -----------------------------------------------------------

    def _charge_rhs(self, conc):
        """Finite-volume Poisson right-hand side: cell charges plus facet charges."""
        rho = self._charges @ conc + self._volumetric
        return rho * self.grid.cell_volume + self._boundary_rhs

    def compat_residual(self, conc) -> float:
        """Discrete compatibility: total bulk charge plus total boundary charge."""
        return float(np.sum(self._charge_rhs(conc)))

    def solve_poisson(self, conc) -> np.ndarray:
        rhs = self._charge_rhs(conc)
        residual = float(np.sum(rhs))
        scale = max(1.0, float(np.sum(np.abs(rhs))))
        if abs(residual) > 1e-10 * scale:
            raise SolverError(
                f"state corruption: compatibility residual {residual:.3e} exceeds "
                f"1e-10 relative to charge scale {scale:.3e}",
                residual=residual,
            )
        if self._poisson is None:
            self._poisson = poisson_solver(self.grid, self._poisson_tensor, self._reduced)
        return self._poisson.solve(rhs, tol=self.poisson_tol)

    # -- face kernels ----------------------------------------------------------

    def _rate(self, face_flux, source_row):
        """Divergence of the face fluxes (positive flows lo -> hi) plus the source row, if any."""
        grid = self.grid
        rate = (face_divergence(grid.n_fluid, grid.face_lo, grid.face_hi, face_flux)
                * (grid.facet_area / grid.cell_volume))
        return rate if source_row is None else rate + source_row

    def _normal_gradient_faces(self, values):
        """(A grad u) . n per face: two-point normal part plus tangential terms."""
        grid = self.grid
        g = self._face_diag * (values[grid.face_hi] - values[grid.face_lo]) / grid.h
        if self._cross is not None:
            g = g + self._cross @ values
        return g

    def _drift_fluxes(self, conc, grad_phi_faces):
        """Upwinded drift flux per species, or None when drift is inactive."""
        if self.drift_scale == 0.0 or not np.any(self._charges):
            return None
        grid = self.grid
        c_lo = conc[:, grid.face_lo]
        c_hi = conc[:, grid.face_hi]
        factors = -self.drift_scale * self._diffusivities * self._charges
        velocity = factors[:, None] * grad_phi_faces[None, :]
        upwind = np.where(velocity >= 0.0, c_lo, c_hi)
        return velocity * upwind

    # -- time-step control -----------------------------------------------------

    def dt_limit(self, state: SimState) -> float:
        """Largest admissible dt at this state (drift CFL, explicit cross-term bound)."""
        grid = self.grid
        limit = np.inf
        factors = np.abs(self.drift_scale * self._diffusivities * self._charges)
        if np.any(factors > 0):
            grad = np.abs(self._normal_gradient_faces(state.phi))
            vmax = float(np.max(factors)) * (float(np.max(grad)) if grad.size else 0.0)
            if vmax > 0:
                limit = CFL_SAFETY * grid.h / vmax
        if self._cross_magnitude > 0.0:
            h_max = h_p_prime(max(float(np.max(state.conc)), 0.0), self.eta, self.p)
            d_max = float(np.max(self._diffusivities))
            limit = min(limit, 0.25 * grid.h ** 2
                        / (grid.dim * d_max * self._cross_magnitude * h_max))
        return limit

    # -- stepping ----------------------------------------------------------------

    def _implicit_solve(self, c, diffusivity, face_h, dt, rhs_extra):
        """Solve (face_laplacian(kappa) + I/dt) c* = c/dt + rhs_extra.

        A symmetric, strictly diagonally dominant M-matrix.  One parity of
        cells is eliminated exactly and the reduced system is factorized in
        the symmetric fill-reducing order the simulation computes once.
        """
        system = self._reduced
        kappa = diffusivity * self._face_diag * face_h / self.grid.h ** 2
        elimination = system.assemble(kappa, 1.0 / dt)
        try:
            lu = splu(system.matrix, **SUPERLU_NATURAL)
        except RuntimeError as exc:
            raise SolverError(f"implicit transport solve failed: {exc}") from exc
        rhs = (c / dt + rhs_extra)[system.cells]
        solution = np.empty_like(c)
        solution[system.cells] = system.back_substitute(
            lu.solve(system.reduce(rhs, elimination)), rhs, elimination)
        return solution

    def step(self, state: SimState, dt: float, source=None) -> SimState:
        """One IMEX step of size dt; raises on dt rejection.

        Nonnegativity guard: a result dipping below -1e-12 raises an internal
        rejection that the run loop converts into dt halving.
        """
        grid = self.grid
        conc = state.conc
        n_species = conc.shape[0]
        t_new = state.t + dt

        grad_phi = self._normal_gradient_faces(state.phi)
        drift = self._drift_fluxes(conc, grad_phi)
        src = None
        if source is not None:
            src = np.asarray(source(t_new, grid.centers), dtype=float)

        new_conc = np.empty_like(conc)
        c_safe = np.maximum(conc, 0.0)
        for i in range(n_species):
            d_i = self._diffusivities[i]
            src_i = None if src is None else src[i]
            flux = np.zeros(grid.face_lo.size)
            if drift is not None:
                flux += drift[i]
            # explicit tangential part, then the implicit normal diffusive flux
            if self._cross is not None:
                flux += -d_i * (self._cross @ h_p_eval(c_safe[i], self.eta, self.p))
            face_h = h_p_prime(0.5 * (c_safe[i][grid.face_lo] + c_safe[i][grid.face_hi]),
                               self.eta, self.p)
            c_star = self._implicit_solve(conc[i], d_i, face_h, dt, self._rate(flux, src_i))
            flux += (-d_i * self._face_diag * face_h
                     * (c_star[grid.face_hi] - c_star[grid.face_lo]) / grid.h)
            new_conc[i] = conc[i] + dt * self._rate(flux, src_i)

        if float(np.min(new_conc)) < -NEG_TOLERANCE:
            raise _StepRejected

        return SimState(t=t_new, conc=new_conc, phi=self.solve_poisson(new_conc))

    # -- initialization and the run loop -------------------------------------------

    def initial_state(self) -> SimState:
        conc = np.stack([
            np.asarray(s.initial_profile(self.grid.centers), dtype=float)
            for s in self.species
        ])
        if float(np.min(conc)) < 0.0:
            raise ConfigError(f"initial concentrations must be nonnegative "
                              f"(min {float(np.min(conc)):.3e})")
        phi = self.solve_poisson(conc)
        return SimState(t=0.0, conc=conc, phi=phi)

    def _energy(self, state) -> float:
        return energy_value(self.grid, state.conc, state.phi, self.eta, self.p,
                            self.energy_prefactor)

    def _record_row(self, record, state, dt, energy):
        """One diagnostics row of ``state``; ``energy`` is its energy, computed once."""
        grid = self.grid
        masses = [float(np.sum(c)) * grid.cell_volume for c in state.conc]
        mins = [float(np.min(c)) for c in state.conc]
        maxs = [float(np.max(c)) for c in state.conc]
        grad_phi = self.grad_scale * face_gradient_l2(grid, state.phi)
        grad_c = [face_gradient_l2(grid, c) for c in state.conc]
        record.add_row(state.t, masses, energy, mins, maxs,
                       float(np.mean(state.phi)), self.compat_residual(state.conc),
                       grad_phi, grad_c, dt)

    def run(self, final_time, dt_init, cfl_fraction=0.5, output_interval=None,
            snapshot_times=(), source=None) -> RunResult:
        """Integrate to ``final_time`` recording diagnostics at output times.

        dt policy per step: min(dt_init, cfl_fraction * CFL limit, distance to
        the next output/snapshot boundary), with automatic halving on
        nonnegativity rejection down to a floor of 1e-10.
        """
        if final_time < 0:
            raise ValueError("final_time must be >= 0")
        if dt_init <= 0:
            raise ValueError("dt_init must be positive")
        events = {float(final_time)}
        if output_interval:
            count = int(np.floor(final_time / output_interval + 1e-9))
            events.update(float((k + 1) * output_interval) for k in range(count))
        snap_set = []
        for t_snap in snapshot_times:
            t_snap = float(t_snap)
            if t_snap < -1e-12 or t_snap > final_time + 1e-12:
                raise ValueError(f"snapshot time {t_snap} outside [0, T]")
            events.add(t_snap)
            snap_set.append(t_snap)
        merge_tol = 1e-9 * max(1.0, final_time)
        event_list = []
        for event in sorted(events):
            if event <= merge_tol:
                continue
            if not event_list or event - event_list[-1] > merge_tol:
                event_list.append(event)

        state = self.initial_state()
        energy = energy_0 = self._energy(state)
        record = DiagnosticsRecord(species_names=tuple(s.name for s in self.species))
        self._record_row(record, state, 0.0, energy)
        snapshots = {}
        if any(abs(t_snap) <= merge_tol for t_snap in snap_set):
            snapshots[0.0] = state.copy()

        initial_masses = np.array([np.sum(c) for c in state.conc]) * self.grid.cell_volume
        mass_scale = np.maximum(np.abs(initial_masses), 1e-300)

        def entropy_pnorm(conc):
            # eta/(p-1) max_i ||c_i||_p^p, the p-norm term bounded by the initial energy
            return (max(lp_norm_pth_power(self.grid, c, self.p) for c in conc)
                    * self.eta / (self.p - 1.0))

        summary = {
            "min_c": float(np.min(state.conc)),
            "max_c": float(np.max(state.conc)),
            "initial_max_c": float(np.max(state.conc)),
            "max_mass_drift_rel": 0.0,
            "max_step_mass_drift_rel": 0.0,
            "max_compat_residual": abs(record.column("compat_residual")[0]),
            "max_energy_increase_rel": 0.0,
            "energy_initial": energy_0,
            "max_entropy_pnorm": entropy_pnorm(state.conc),
            "steps": 0,
            "rejections": 0,
            "dt_min_used": np.inf,
            "dt_max_used": 0.0,
            "source_active": source is not None,
        }

        prev_masses = initial_masses.copy()
        last_dt = 0.0
        time_tol = 1e-12 * max(1.0, final_time)
        for t_event in event_list:
            while state.t < t_event - time_tol:
                dt_policy = min(dt_init, cfl_fraction * self.dt_limit(state))
                dt = min(dt_policy, t_event - state.t)
                while True:
                    try:
                        new_state = self.step(state, dt, source=source)
                        break
                    except _StepRejected:
                        dt *= 0.5
                        summary["rejections"] += 1
                        if dt < DT_FLOOR:
                            raise TimeStepError(
                                f"time step fell below {DT_FLOOR:g} at t = {state.t:.6g} "
                                "without restoring nonnegativity"
                            )
                state = new_state
                if abs(state.t - t_event) <= time_tol:
                    state.t = t_event
                last_dt = dt
                summary["steps"] += 1
                summary["dt_min_used"] = min(summary["dt_min_used"], dt)
                summary["dt_max_used"] = max(summary["dt_max_used"], dt)
                summary["min_c"] = min(summary["min_c"], float(np.min(state.conc)))
                summary["max_c"] = max(summary["max_c"], float(np.max(state.conc)))
                summary["max_entropy_pnorm"] = max(summary["max_entropy_pnorm"],
                                                   entropy_pnorm(state.conc))
                masses = np.array([np.sum(c) for c in state.conc]) * self.grid.cell_volume
                if source is None:
                    drift = float(np.max(np.abs(masses - initial_masses) / mass_scale))
                    step_drift = float(np.max(np.abs(masses - prev_masses) / mass_scale))
                    summary["max_mass_drift_rel"] = max(summary["max_mass_drift_rel"], drift)
                    summary["max_step_mass_drift_rel"] = max(
                        summary["max_step_mass_drift_rel"], step_drift)
                prev_masses = masses
                summary["max_compat_residual"] = max(
                    summary["max_compat_residual"], abs(self.compat_residual(state.conc)))
                energy_prev, energy = energy, self._energy(state)
                if energy_0 > 0:
                    summary["max_energy_increase_rel"] = max(
                        summary["max_energy_increase_rel"], (energy - energy_prev) / energy_0)
            self._record_row(record, state, last_dt, energy)
            if any(abs(t_event - ts) <= merge_tol for ts in snap_set):
                snapshots[t_event] = state.copy()

        if summary["steps"] == 0:
            summary["dt_min_used"] = 0.0
        return RunResult(state=state, record=record, summary=summary, snapshots=snapshots)
