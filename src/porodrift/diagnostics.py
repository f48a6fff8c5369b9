"""Structural diagnostics: entropy density, energy functional, time-series record.

The energy functional combines the field energy of the potential with the
entropy density of each species,

    V = (w/2) phi . P phi + sum_i int Psi(c_i),
    Psi(r) = r log r - r + 1 + eta/(p-1) r^p,

with P the simulation's Poisson operator and w its drift scale: micro runs
have P = eps^alpha times the two-point Laplacian and w = eps^beta (the field
term (1/2) eps^(alpha+beta) |grad phi|^2), coupled macro runs P = P_A of the
effective tensor and w = 1, and decoupled macro runs w = 0, as their
transport never sees phi.  Along exact solutions V is non-increasing; the
run loop tracks the discrete analogue every accepted step.

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


def energy_value(grid, conc: np.ndarray, eta: float, p: float, field_energy: float) -> float:
    """Discrete energy functional: ``field_energy`` plus the entropy sum of ``conc``."""
    return field_energy + sum(float(np.sum(psi_eval(np.maximum(c, 0.0), eta, p)))
                              * grid.cell_volume for c in conc)


def lp_norm_pth_power(grid, values: np.ndarray, p: float) -> float:
    """Discrete ||c||_p^p = sum c^p h^n over fluid cells (c clipped at 0)."""
    return float(np.sum(np.maximum(values, 0.0) ** p) * grid.cell_volume)


@dataclass
class DiagnosticsRecord:
    """Per-output-time series written to diagnostics.csv, one list of floats per row.

    Columns: t, per-species mass, energy, per-species min/max, mean potential,
    compatibility residual, scaled potential-gradient norm, per-species
    concentration-gradient norms, dt.
    """

    species_names: tuple
    rows: list = field(default_factory=list)

    def add_row(self, t, masses, energy, mins, maxs, mean_phi, compat, grad_phi,
                grad_c, dt):
        if self.rows and t <= self.rows[-1][0]:
            raise ValueError("diagnostics timestamps must be strictly increasing")
        row = [t, *masses, energy, *mins, *maxs, mean_phi, compat, grad_phi, *grad_c, dt]
        self.rows.append([float(v) for v in row])

    def __len__(self):
        return len(self.rows)

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

    def column(self, name):
        """The values of column ``name`` (a ``header`` entry), one per row."""
        index = self.header().index(name)
        return [row[index] for row in self.rows]

    def to_csv(self, path):
        lines = [",".join(self.header())]
        lines += [",".join(map(repr, row)) for row in self.rows]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
