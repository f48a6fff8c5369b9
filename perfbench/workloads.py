"""The benchmark's fixed workloads, their seeded inputs and their output gate.

Every workload starts from the canonical 2-D run of the acceptance suite
(disk inclusion of radius 0.25, cation D=1 z=+1, anion D=0.5 z=-1,
c0 = 1 + 0.5 cos(pi x1) cos(pi x2), xi1 = 0.2, auto_balance) and changes
only the fields listed in ``overrides``.

The seed perturbs data expressions only: the c0 amplitude and the xi1
constant.  It never changes grid sizes, T or dt, so the work a run does
(steps, factorizations) is the same for every seed; ``expected`` pins those
counts and the gate checks them.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

AMPLITUDE = 0.5       # canonical c0 amplitude
AMPLITUDE_SPREAD = 0.05
XI1 = 0.2             # canonical interior surface charge
XI1_SPREAD = 0.02

# Thresholds of the acceptance suite (tests/test_acceptance.py, criteria 2-4).
MICRO_LIMITS = {
    "max_mass_drift_rel": 1e-9,
    "max_compat_residual": 1e-10,
    "max_energy_increase_rel": 1e-8,
}
MIN_C_FLOOR = -1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    overrides: dict
    # work every seed must reproduce: transport step attempts, transport LU
    # factorizations, Poisson factorizations
    expected: dict


# Why each workload is chosen: the "why" of each entry in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "micro_canonical", "micro", {},
            {"steps": 10, "transport_lus": 20, "poisson_factors": 1},
        ),
        Workload(
            "micro_large", "micro",
            {"geometry": {"m": 16, "r": 16},
             "scaling": {"T": 2e-4, "dt_init": 1e-4},
             "output": {"interval": 2e-4, "snapshot_times": [2e-4]}},
            {"steps": 2, "transport_lus": 4, "poisson_factors": 1},
        ),
        Workload(
            "converge", "converge", {"convergence": {"T": 0.02}},
            {"steps": 160, "transport_lus": 320, "poisson_factors": 4},
        ),
    )
}


def _canonical(amplitude: str, xi1: str) -> dict:
    c0 = f"1 + {amplitude}*cos(pi*x1)*cos(pi*x2)"
    return {
        "geometry": {"inclusion": {"kind": "disk", "center": [0.5, 0.5],
                                   "radius": 0.25}, "m": 8, "r": 8},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": 0.1,
                    "dt_init": 1.0, "cfl_fraction": 0.5},
        "species": [
            {"name": "cation", "D": 1.0, "z": 1, "c0": c0},
            {"name": "anion", "D": 0.5, "z": -1, "c0": c0},
        ],
        "surface_charge": {"xi1": xi1, "xi2": "0", "auto_balance": True},
        "solver": {"poisson_tol": 1e-10, "cell_tol": 1e-12},
        "output": {"directory": "out", "interval": 0.01, "snapshot_times": [0.1]},
        "convergence": {"m_values": [4, 8, 16], "T": 0.05, "dt_init": 5e-4,
                        "macro_resolution": 128},
    }


def config_for(name: str, seed: int) -> dict:
    """The run config of workload ``name`` with the data expressions drawn from ``seed``."""
    rng = random.Random(seed)
    amplitude = AMPLITUDE + AMPLITUDE_SPREAD * (2.0 * rng.random() - 1.0)
    xi1 = XI1 + XI1_SPREAD * (2.0 * rng.random() - 1.0)
    config = _canonical(f"{amplitude:.6f}", f"{xi1:.6f}")
    for section, fields in copy.deepcopy(WORKLOADS[name].overrides).items():
        config[section].update(fields)
    return config


def _finite(value) -> bool:
    # report.json stores non-finite floats as strings ('nan', 'inf')
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_outputs(name: str, out_dir: Path, status: int) -> list:
    """The paper's structural properties on one run's outputs; returns the failures."""
    failures = []
    if status != 0:
        failures.append(f"exit status {status}")
    report_path = Path(out_dir) / "report.json"
    if not report_path.is_file():
        return failures + ["report.json missing"]
    report = json.loads(report_path.read_text())
    if WORKLOADS[name].subcommand == "micro":
        summary = report["summary"]
        for key, limit in MICRO_LIMITS.items():
            if not (_finite(summary[key]) and summary[key] <= limit):
                failures.append(f"{key} {summary[key]} > {limit}")
        if not (_finite(summary["min_c"]) and summary["min_c"] >= MIN_C_FLOOR):
            failures.append(f"min_c {summary['min_c']} < {MIN_C_FLOOR}")
        failures += check_counts(name, {"steps": summary["steps"] + summary["rejections"]})
    else:
        for species, errors in report["conc_errors"].items():
            if not all(_finite(e) for e in errors):
                failures.append(f"non-finite conc_errors for {species}: {errors}")
    return failures


def check_counts(name: str, counts: dict) -> list:
    """Counted work against the seed-independent work size of the workload."""
    expected = WORKLOADS[name].expected
    return [f"{key} {value} != expected {expected[key]}"
            for key, value in counts.items() if value != expected[key]]
