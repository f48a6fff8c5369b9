"""Structural diagnostics: entropy density, energy functional, time-series record.

The energy functional combines the scaled field energy of the potential with
the entropy density of each species,

    V = (1/2) s |grad phi|^2 + sum_i int Psi(c_i),
    Psi(r) = r log r - r + 1 + eta/(p-1) r^p,

where the prefactor s is eps^(alpha+beta) for microscopic runs.  Along exact
solutions V is non-increasing; the run loop tracks the discrete analogue
every accepted step.

The verification harnesses (homogenization sweep, manufactured solutions,
eta sweep) live in :mod:`porodrift.verification`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def psi_eval(r, eta: float, p: float):
    """Entropy density Psi(r) = r log r - r + 1 + eta/(p-1) r^p, with 0 log 0 = 0.

    Vectorized; raises ValueError on negative input.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("Psi is only defined for r >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        rlogr = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)
    value = rlogr - arr + 1.0 + (eta / (p - 1.0)) * arr ** p
    if np.isscalar(r):
        return float(value)
    return value


def face_gradient_l2(grid, values: np.ndarray) -> float:
    """Discrete L2 norm of the face-normal gradient, sqrt(sum (du/dn)^2 h^n)."""
    diffs = (values[grid.face_hi] - values[grid.face_lo]) / grid.h
    return float(np.sqrt(np.sum(diffs ** 2) * grid.cell_volume))


def energy_value(grid, conc: np.ndarray, phi: np.ndarray, eta: float, p: float,
                 grad_prefactor: float) -> float:
    """Discrete energy functional; ``grad_prefactor`` is eps^(alpha+beta) for micro runs."""
    diffs = (phi[grid.face_hi] - phi[grid.face_lo]) / grid.h
    field_energy = 0.5 * grad_prefactor * float(np.sum(diffs ** 2)) * grid.cell_volume
    entropy = 0.0
    for c in conc:
        entropy += float(np.sum(psi_eval(np.maximum(c, 0.0), eta, p))) * grid.cell_volume
    return field_energy + entropy


def lp_norm_pth_power(grid, values: np.ndarray, p: float) -> float:
    """Discrete ||c||_p^p = sum c^p h^n over fluid cells (c clipped at 0)."""
    return float(np.sum(np.maximum(values, 0.0) ** p) * grid.cell_volume)


@dataclass
class DiagnosticsRecord:
    """Per-output-time series written to diagnostics.csv.

    Columns: t, per-species mass, energy, per-species min/max, mean potential,
    compatibility residual, scaled potential-gradient norm, per-species
    concentration-gradient norms, dt.
    """

    species_names: tuple
    times: list = field(default_factory=list)
    masses: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    mins: list = field(default_factory=list)
    maxs: list = field(default_factory=list)
    mean_phi: list = field(default_factory=list)
    compat_residuals: list = field(default_factory=list)
    grad_phi: list = field(default_factory=list)
    grad_c: list = field(default_factory=list)
    dts: list = field(default_factory=list)

    def add_row(self, t, masses, energy, mins, maxs, mean_phi, compat, grad_phi,
                grad_c, dt):
        if self.times and t <= self.times[-1]:
            raise ValueError("diagnostics timestamps must be strictly increasing")
        self.times.append(float(t))
        self.masses.append([float(v) for v in masses])
        self.energies.append(float(energy))
        self.mins.append([float(v) for v in mins])
        self.maxs.append([float(v) for v in maxs])
        self.mean_phi.append(float(mean_phi))
        self.compat_residuals.append(float(compat))
        self.grad_phi.append(float(grad_phi))
        self.grad_c.append([float(v) for v in grad_c])
        self.dts.append(float(dt))

    def __len__(self):
        return len(self.times)

    def header(self):
        names = self.species_names
        cols = ["t"]
        cols += [f"mass_{n}" for n in names]
        cols += ["energy"]
        cols += [f"min_{n}" for n in names]
        cols += [f"max_{n}" for n in names]
        cols += ["mean_phi", "compat_residual", "grad_phi_scaled"]
        cols += [f"gradL2_{n}" for n in names]
        cols += ["dt"]
        return cols

    def row_values(self, i):
        return (
            [self.times[i]]
            + self.masses[i]
            + [self.energies[i]]
            + self.mins[i]
            + self.maxs[i]
            + [self.mean_phi[i], self.compat_residuals[i], self.grad_phi[i]]
            + self.grad_c[i]
            + [self.dts[i]]
        )

    def to_csv(self, path):
        lines = [",".join(self.header())]
        for i in range(len(self.times)):
            lines.append(",".join(repr(float(v)) for v in self.row_values(i)))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
