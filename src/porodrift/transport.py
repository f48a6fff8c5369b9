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

The implicit matrix of each species and step changes its values but not
its pattern, and every face joins cells of opposite grid-index parity.  The
simulation builds one ``linalg.ReducedFaceSystem`` when it is constructed:
the cells of one parity are eliminated exactly, the Schur complement S on
the others is refilled in place, a CSR matrix in ascending cell order, and
the eliminated cells follow by back-substitution.
S is solved by CG to the true relative residual ``CG_TOL`` with a
``linalg.TwoLevel`` preconditioner, whose aggregates are blocks of
``AGGREGATE_WIDTH`` grid cells per axis (the fastest of 2, 3, 4, 6 and 8),
and the solve's one SuperLU factorization is that of its coarse operator:
``NATURAL`` column order, symmetric mode, ``linalg.SUPERNODES``.  The CG
starts from each species' concentration extrapolated linearly from the last
two accepted states, which ``step`` builds for every solve; on the 128^2
macro grid of the convergence study this cuts the iterations per solve from
11.1 to 7.4.  A restart, when the true residual misses ``CG_TOL``, reuses
the solve's coarse LU.  ``SolveCounts`` records what the solves of one
simulation did.

``CG_TOL`` follows the tolerance rule (README, "Tolerances"): a solver moves
an output by at most 1e-3 of the smallest error of the convergence study's
budget, and a gated quantity by at most 1e-2 of its acceptance gate.  A
solve to the true residual tau moves the new concentrations by a few tau
relative: S is a Schur complement of ``face_laplacian + I/dt``, so its
inverse is at most dt in norm, and the flux form adds dt times the residual.
The flux form keeps the masses, and with them the compatibility residual,
whatever tau is, and the step rejects an undershoot below ``NEG_TOLERANCE``
itself.  Of the gates, the CG reaches only the energy increase (1e-8 of the
initial energy; share 1e-10), which is smaller than the budget's share (5e-6
relative), so at unit sensitivity it sets tau = 1e-10.  Measured on the
convergence study against tau = 1e-13: the largest relative move in its
report is 2.9e-9, and each step's energy change moves by 1e-13 of the
initial energy.

The potential is factored once per simulation, when it is built
(``poisson_solver``).  A Poisson tensor without cross terms gives a
two-point operator, factored on the same reduced system with its own
coefficients; a full tensor gets the LU of ``poisson_matrix``.  Both LUs
pin unknown 0 and let SuperLU order the pinned block (``MMD_AT_PLUS_A``,
partial pivoting).

The run loop measures each accepted state once (``_Stats``); the output rows
read those measurements, the summary reduces all of them, and snapshots are
the accepted states themselves.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .diagnostics import DiagnosticsRecord, energy_value, face_gradient_l2, lp_norm_pth_power
from .errors import ConfigError, GeometryError, SolverError, TimeStepError
from .linalg import (
    POISSON_TOL,
    SUPERLU_NATURAL,
    ReducedFaceSystem,
    TwoLevel,
    ZeroMeanDirect,
    cg_solve,
    face_divergence,
    face_laplacian,
)

NEG_TOLERANCE = 1e-12     # accepted round-off undershoot of concentrations
DT_FLOOR = 1e-10          # abort threshold for the step-halving loop
CFL_SAFETY = 0.4          # dt <= CFL_SAFETY * h / max face drift speed
CROSS_TOL = 1e-14         # off-diagonal tensor entries up to this count as zero
AGGREGATE_WIDTH = 3       # grid cells per axis of one aggregate of the two-level CG
CG_TOL = 1e-10            # true relative residual of the two-level CG solves
COMPAT_TOL = 1e-10        # compatibility residual, relative to the charge scale, of a state


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


def aggregated_two_level(grid, system):
    """``system``'s ``TwoLevel`` preconditioner, aggregating by grid index // AGGREGATE_WIDTH."""
    index = np.indices(grid.fluid_mask.shape)[:, grid.fluid_mask] // AGGREGATE_WIDTH
    black = index[:, system.cells[:system.matrix.shape[0]]]
    shape = tuple(n // AGGREGATE_WIDTH + 1 for n in grid.fluid_mask.shape)
    return TwoLevel(system, np.ravel_multi_index(tuple(black), shape))


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
    """Concentrations (one row per species) and zero-mean potential at time t.

    ``compat`` is the compatibility residual of ``conc``, which the Poisson
    solve checked (None for a state built without it).
    """

    t: float
    conc: np.ndarray
    phi: np.ndarray
    compat: float | None = None


class _Stats(NamedTuple):
    """What the run loop measures of one accepted state, once."""

    masses: np.ndarray    # per species, sum c_i times the cell volume
    mins: list            # per species
    maxs: list            # per species
    compat: float         # compatibility residual
    energy: float
    pnorm: float          # eta/(p-1) max_i ||c_i||_p^p, bounded by the initial energy
    dt: float             # the step that reached the state; 0.0 for the initial state


@dataclass
class SolveCounts:
    """What the implicit transport solves of one simulation did, rejected steps included."""

    solves: int = 0
    cg_iterations: int = 0
    max_cg_iterations: int = 0
    max_cg_residual: float = 0.0
    restarts: int = 0         # CG restarts after a true residual above CG_TOL
    coarse_size: int = 0      # unknowns of the coarse operator
    rejections: int = 0       # steps the nonnegativity guard rejected


@dataclass
class RunResult:
    """Trajectory handle: final state, per-output diagnostics, step summary.

    ``snapshots`` maps times to the accepted states themselves; ``solves``,
    the simulation's ``SolveCounts`` as a dict, and ``poisson_solves``, its
    ``linalg.PoissonCounts``, go to the manifest.
    """

    state: SimState
    record: DiagnosticsRecord
    summary: dict
    snapshots: dict
    solves: dict
    poisson_solves: dict

    @property
    def counts(self) -> dict:
        """The simulation's solve records: ``transport`` and ``poisson``."""
        return {"transport": self.solves, "poisson": self.poisson_solves}


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
                 poisson_tol=POISSON_TOL):
        self.grid = grid
        self.species = list(species)
        self.eta = float(eta)
        self.p = float(p)
        transport_tensor = _checked_tensor(transport_tensor, grid.dim)
        poisson_tensor = _checked_tensor(poisson_tensor, grid.dim)
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
        self._two_level = aggregated_two_level(grid, self._reduced)
        self.solves = SolveCounts(coarse_size=self._two_level.coarse.shape[0])
        self._poisson = poisson_solver(grid, poisson_tensor, self._reduced)
        self._charges = np.array([s.charge for s in self.species], dtype=float)
        self._diffusivities = np.array([s.diffusivity for s in self.species], dtype=float)

    # -- potential -----------------------------------------------------------

    def _charge_rhs(self, conc):
        """Finite-volume Poisson right-hand side: cell charges plus facet charges."""
        rho = self._charges @ conc + self._volumetric
        return rho * self.grid.cell_volume + self._boundary_rhs

    def state(self, t, conc) -> SimState:
        """The state of ``conc`` at ``t``: its potential and its guarded compatibility residual."""
        rhs = self._charge_rhs(conc)
        residual = float(np.sum(rhs))
        scale = max(1.0, float(np.sum(np.abs(rhs))))
        if abs(residual) > COMPAT_TOL * scale:
            raise SolverError(
                f"state corruption: compatibility residual {residual:.3e} exceeds "
                f"{COMPAT_TOL:g} relative to charge scale {scale:.3e}",
                residual=residual,
            )
        return SimState(t=t, conc=conc, phi=self._poisson.solve(rhs, tol=self.poisson_tol),
                        compat=residual)

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

    def _implicit_solve(self, c, diffusivity, face_h, dt, rhs_extra, guess=None):
        """Solve (face_laplacian(kappa) + I/dt) c* = c/dt + rhs_extra.

        A symmetric, strictly diagonally dominant M-matrix.  One parity of
        cells is eliminated exactly, which leaves the Schur complement S on
        the others.  Each solve factorizes the coarse operator of the
        two-level preconditioner, its one SuperLU factorization, and solves
        S by CG to the true relative residual CG_TOL, started from the black
        cells of ``guess`` (None: from 0).
        """
        system, two_level = self._reduced, self._two_level
        kappa = diffusivity * self._face_diag * face_h / self.grid.h ** 2
        elimination = system.assemble(kappa, 1.0 / dt)
        try:
            lu = splu(two_level.assemble(), **SUPERLU_NATURAL)
        except RuntimeError as exc:
            raise SolverError(f"implicit transport solve failed: {exc}") from exc
        rhs = (c / dt + rhs_extra)[system.cells]
        reduced = system.reduce(rhs, elimination)
        try:
            black, residual, iterations, restarts = cg_solve(
                system.matrix, reduced, CG_TOL, preconditioner=two_level.preconditioner(lu),
                x0=None if guess is None else guess[system.cells[:reduced.size]])
        except SolverError as exc:
            raise SolverError(f"implicit transport solve: {exc}", residual=exc.residual,
                              iterations=exc.iterations) from exc
        counts = self.solves
        counts.solves += 1
        counts.cg_iterations += iterations
        counts.max_cg_iterations = max(counts.max_cg_iterations, iterations)
        counts.max_cg_residual = max(counts.max_cg_residual, residual)
        counts.restarts += restarts
        solution = np.empty_like(c)
        solution[system.cells] = system.back_substitute(black, rhs, elimination)
        return solution

    def step(self, state: SimState, dt: float, source=None, previous=None) -> SimState:
        """One IMEX step of size dt; raises on dt rejection.

        ``previous`` is the accepted state before ``state`` (None on the first
        step).  Each species' solve gets the linear extrapolation
        ``c^n + (dt / dt_prev)(c^n - c^{n-1})`` of the two, or ``c^n`` without
        ``previous``, as the start of its CG.

        Nonnegativity guard: a result dipping below -1e-12 raises an internal
        rejection that the run loop converts into dt halving.
        """
        grid = self.grid
        conc = state.conc
        t_new = state.t + dt

        drift = self._drift_fluxes(conc, self._normal_gradient_faces(state.phi))
        src = None if source is None else np.asarray(source(t_new, grid.centers), dtype=float)

        new_conc = np.empty_like(conc)
        c_safe = np.maximum(conc, 0.0)
        for i in range(conc.shape[0]):
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
            # built per species, so that one guess at a time is held
            guess = (conc[i] if previous is None else
                     conc[i] + dt / (state.t - previous.t) * (conc[i] - previous.conc[i]))
            c_star = self._implicit_solve(conc[i], d_i, face_h, dt, self._rate(flux, src_i),
                                          guess)
            flux += (-d_i * self._face_diag * face_h
                     * (c_star[grid.face_hi] - c_star[grid.face_lo]) / grid.h)
            new_conc[i] = conc[i] + dt * self._rate(flux, src_i)

        if float(np.min(new_conc)) < -NEG_TOLERANCE:
            raise _StepRejected

        return self.state(t_new, new_conc)

    # -- initialization and the run loop -------------------------------------------

    def initial_state(self) -> SimState:
        conc = np.stack([np.asarray(s.initial_profile(self.grid.centers), dtype=float)
                         for s in self.species])
        if float(np.min(conc)) < 0.0:
            raise ConfigError(f"initial concentrations must be nonnegative "
                              f"(min {float(np.min(conc)):.3e})")
        return self.state(0.0, conc)

    def _statistics(self, state, dt) -> _Stats:
        """``state``'s masses, extrema, residual, energy and p-norm term; ``dt`` reached it."""
        grid, conc = self.grid, state.conc
        return _Stats(
            masses=np.array([np.sum(c) for c in conc]) * grid.cell_volume,
            mins=[float(np.min(c)) for c in conc], maxs=[float(np.max(c)) for c in conc],
            compat=state.compat,
            energy=energy_value(grid, conc, state.phi, self.eta, self.p, self.energy_prefactor),
            pnorm=(max(lp_norm_pth_power(grid, c, self.p) for c in conc)
                   * self.eta / (self.p - 1.0)),
            dt=dt)

    def _record_row(self, record, state, stats):
        """One diagnostics row of ``state``, read from its measurements ``stats``."""
        grid = self.grid
        grad_phi = self.grad_scale * face_gradient_l2(grid, state.phi)
        grad_c = [face_gradient_l2(grid, c) for c in state.conc]
        record.add_row(state.t, stats.masses, stats.energy, stats.mins, stats.maxs,
                       float(np.mean(state.phi)), stats.compat, grad_phi, grad_c, stats.dt)

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
        times = [(float(final_time), False)]
        if output_interval:
            count = int(np.floor(final_time / output_interval + 1e-9))
            times += [(float((k + 1) * output_interval), False) for k in range(count)]
        for t_snap in map(float, snapshot_times):
            if t_snap < -1e-12 or t_snap > final_time + 1e-12:
                raise ValueError(f"snapshot time {t_snap} outside [0, T]")
            times.append((t_snap, True))
        # [t, snapshot?] of t = 0 and each output time; a time near the last event joins it
        merge_tol = 1e-9 * max(1.0, final_time)
        events = [[0.0, False]]
        for t, snapshot in sorted(times):
            if t - events[-1][0] <= merge_tol:
                events[-1][1] |= snapshot
            else:
                events.append([t, snapshot])

        state = self.initial_state()
        stats = [self._statistics(state, 0.0)]
        record = DiagnosticsRecord(species_names=tuple(s.name for s in self.species))
        self._record_row(record, state, stats[0])
        snapshots = {0.0: state} if events[0][1] else {}
        rejections = 0
        previous = None
        time_tol = 1e-12 * max(1.0, final_time)
        for t_event, snapshot in events[1:]:
            while state.t < t_event - time_tol:
                dt = min(dt_init, cfl_fraction * self.dt_limit(state), t_event - state.t)
                while True:
                    try:
                        new_state = self.step(state, dt, source=source, previous=previous)
                        break
                    except _StepRejected:
                        dt *= 0.5
                        rejections += 1
                        if dt < DT_FLOOR:
                            raise TimeStepError(f"time step fell below {DT_FLOOR:g} at t = "
                                                f"{state.t:.6g} without restoring nonnegativity")
                if abs(new_state.t - t_event) <= time_tol:
                    new_state.t = t_event
                previous, state = state, new_state
                stats.append(self._statistics(state, dt))
            self._record_row(record, state, stats[-1])
            if snapshot:
                snapshots[t_event] = state
        self.solves.rejections += rejections

        return RunResult(state=state, record=record,
                         summary=_summary(stats, rejections, source is not None),
                         snapshots=snapshots, solves=asdict(self.solves),
                         poisson_solves=asdict(self._poisson.counts))


def _summary(stats, rejections, source_active) -> dict:
    """The run's summary: a reduction of every accepted state's ``_Stats``, initial first."""
    first, steps = stats[0], stats[1:]
    mass_scale = np.maximum(np.abs(first.masses), 1e-300)
    drifted = [] if source_active else list(zip(stats, steps))
    drifts = [float(np.max(np.abs(b.masses - first.masses) / mass_scale)) for _, b in drifted]
    step_drifts = [float(np.max(np.abs(b.masses - a.masses) / mass_scale)) for a, b in drifted]
    increases = ([(b.energy - a.energy) / first.energy for a, b in zip(stats, steps)]
                 if first.energy > 0 else [])
    return {
        "min_c": min(min(s.mins) for s in stats),
        "max_c": max(max(s.maxs) for s in stats),
        "initial_max_c": max(first.maxs),
        "max_mass_drift_rel": max([0.0] + drifts),
        "max_step_mass_drift_rel": max([0.0] + step_drifts),
        "max_compat_residual": max(abs(s.compat) for s in stats),
        "max_energy_increase_rel": max([0.0] + increases),
        "energy_initial": first.energy,
        "max_entropy_pnorm": max(s.pnorm for s in stats),
        "steps": len(steps),
        "rejections": rejections,
        "dt_min_used": min((s.dt for s in steps), default=0.0),
        "dt_max_used": max((s.dt for s in steps), default=0.0),
        "source_active": source_active,
    }
