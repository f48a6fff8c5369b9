"""Command-line interface: subcommand dispatch, run directories, output writing.

Subcommands: cell, micro, macro, converge, mms, eta-sweep.  Every run writes
a ``manifest.json`` listing each produced file with its SHA-256; numerical
outputs (diagnostics.csv, snapshot_*.csv, report.json) are bit-reproducible
for identical configs.  Wall-clock timings live only in the manifest, which
is the one file exempt from byte-for-byte replay comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cell_problem import compute_effective_tensor
from .config import parse_and_validate
from .errors import ConfigError, GeometryError, PorodriftError
from .geometry import (
    build_cell_geometry,
    build_masked_grid,  # noqa: F401  (unused; perfbench's tracer wraps it by this name)
)
from .macro import limit_mode, run_macro
from .micro import run_micro
from .verification import (
    homogenized_problem,
    run_convergence_study,
    run_eta_sweep,
    run_mms_verification,
)

SUBCOMMANDS = ("cell", "micro", "macro", "converge", "mms", "eta-sweep")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _write_snapshot(path: Path, coord: str, centers, columns: dict) -> None:
    """Per-cell CSV: the cell index, its center ``<coord>1..n`` and one column per field.

    Every value is written as its ``repr``.  A grid's centers take only
    ``n_side`` values per axis, so each distinct coordinate is formatted once
    and looked up per cell; distinct means distinct bits, so 0.0 and -0.0
    keep their own text.
    """
    header = ["cell"] + [f"{coord}{i + 1}" for i in range(centers.shape[1])] + list(columns)
    coordinates = []
    for axis in centers.T:
        distinct, index = np.unique(axis.view(np.int64), return_inverse=True)
        text = list(map(repr, distinct.view(np.float64).tolist()))
        coordinates.append(map(text.__getitem__, index.tolist()))
    fields = [map(repr, values.tolist()) for values in columns.values()]
    rows = map(",".join, zip(map(str, range(centers.shape[0])), *coordinates, *fields))
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dispatch(subcommand: str, config, out_dir=None) -> int:
    """Run one pipeline as ``config`` sets it, write its artifacts and manifest.

    Returns the exit status: 2 for a ConfigError only the run detects, 1 for
    any other failure, else 0.
    """
    if subcommand not in SUBCOMMANDS:
        raise PorodriftError(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}")
    run_dir = Path(out_dir if out_dir is not None else config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    written = []
    timings = {"write": 0.0}
    status = 0
    error_message = None

    def emit(name, writer, *args):
        """Write the listed output file ``name`` and add its time to ``timings["write"]``."""
        t_write = time.perf_counter()
        writer(run_dir / name, *args)
        timings["write"] += time.perf_counter() - t_write
        written.append(name)

    t_start = time.perf_counter()
    try:
        if subcommand == "cell":
            try:
                cell = (config.cell if config.cell_resolution == config.r
                        else build_cell_geometry(config.inclusion, config.cell_resolution))
            except GeometryError as exc:
                raise ConfigError(f"cell.resolution {config.cell_resolution}: {exc}") from exc
            tensor = compute_effective_tensor(cell, tol=config.cell_tol)
            report = {
                "kind": "cell",
                "resolution": cell.r,
                "porosity": tensor.porosity,
                "a_hom": tensor.a_hom,
                "energy_form": tensor.energy_form,
                "residuals": [c.rel_residual for c in tensor.correctors],
                "iterations": [c.iterations for c in tensor.correctors],
                "gamma_area": cell.gamma_area_total,
            }
            emit("report.json", _write_json, report)
            if config.dump_correctors:
                emit("correctors.csv", _write_snapshot, "y", cell.centers,
                     {f"w_{c.k + 1}": c.values for c in tensor.correctors})

        elif subcommand == "micro":
            grid, conc_name, phi_name, extra = config.grid, "c", "phi", {}
            result = run_micro(
                grid, config.scaling(), config.species, config.charges,
                dt_init=config.dt_init, cfl_fraction=config.cfl_fraction,
                output_interval=config.output_interval or None,
                snapshot_times=config.snapshot_times,
                poisson_tol=config.poisson_tol,
            )

        elif subcommand == "macro":
            mode = limit_mode(config.alpha, config.beta)
            grid, charges = homogenized_problem(config.cell, config.macro_resolution,
                                                config.species, config.xi1, config.xi2,
                                                config.auto_balance)
            tensor = compute_effective_tensor(config.cell, tol=config.cell_tol)
            conc_name, phi_name = "c0", "phi0"
            extra = {"mode": mode, "a_hom": tensor.a_hom, "porosity": tensor.porosity,
                     "macro_resolution": config.macro_resolution}
            result = run_macro(
                grid, tensor.a_hom, config.species, charges, config.eta, config.p,
                config.final_time, config.dt_init, mode=mode,
                cfl_fraction=config.cfl_fraction,
                output_interval=config.output_interval or None,
                snapshot_times=config.snapshot_times, poisson_tol=config.poisson_tol,
            )

        elif subcommand == "converge":
            report = run_convergence_study(
                config.cell, config.species, config.xi1, config.xi2,
                config.alpha, config.beta, config.eta, config.p,
                config.convergence_m_values, config.convergence_final_time,
                config.convergence_dt_init, cfl_fraction=config.cfl_fraction,
                macro_resolution=config.convergence_macro_resolution,
                auto_balance=config.auto_balance, poisson_tol=config.poisson_tol,
                cell_tol=config.cell_tol,
            )
            emit("report.json", _write_json, report.to_dict())
            timings.update(report.runtimes)
            if not all(report.monotone_decreasing(n) for n in report.species_names):
                status = 1
                error_message = "convergence study: errors are not strictly decreasing"

        elif subcommand == "mms":
            report = run_mms_verification(config.mms_solvers,
                                          resolutions=config.mms_resolutions,
                                          poisson_tol=config.poisson_tol)
            emit("report.json", _write_json, report)
            if not report["passed"]:
                status = 1
                error_message = "mms verification: observed order outside threshold"

        elif subcommand == "eta-sweep":
            if limit_mode(config.alpha, config.beta) != "coupled":
                raise PorodriftError("eta-sweep requires the coupled regime (alpha = beta)")
            grid, charges = homogenized_problem(config.cell, config.macro_resolution,
                                                config.species, config.xi1, config.xi2,
                                                config.auto_balance)
            tensor = compute_effective_tensor(config.cell, tol=config.cell_tol)
            report = run_eta_sweep(grid, tensor.a_hom, config.species, charges, config.p,
                                   config.eta_values, config.eta_final_time,
                                   config.eta_dt_init, cfl_fraction=config.cfl_fraction,
                                   poisson_tol=config.poisson_tol)
            emit("report.json", _write_json, report)

        if subcommand in ("micro", "macro"):
            emit("diagnostics.csv", result.record.to_csv)
            for t_snap, state in sorted(result.snapshots.items()):
                columns = {f"{conc_name}_{i + 1}": c for i, c in enumerate(state.conc)}
                emit(f"snapshot_{t_snap:.6f}.csv", _write_snapshot, "x", grid.centers,
                     {**columns, phi_name: state.phi})
            emit("report.json", _write_json, {
                "kind": subcommand,
                "species": [s.name for s in config.species],
                "final_time": config.final_time,
                "summary": dict(result.summary),
                "diagnostics_rows": len(result.record),
                "epsilon": 1.0 / config.m,
                "alpha": config.alpha,
                "beta": config.beta,
                "eta": config.eta,
                "p": config.p,
                **extra,
            })

    except ConfigError as exc:
        status = 2
        error_message = str(exc)
    except PorodriftError as exc:
        status = 1
        error_message = str(exc)

    timings["total"] = time.perf_counter() - t_start
    manifest = {
        "command": subcommand,
        "package_version": __version__,
        "config_echo": config.raw,
        "config_sha256": config.content_hash(),
        "balance_shift": config.balance_shift,
        "compat_residual_raw": config.compat_residual_raw,
        "exit_status": status,
        "error": error_message,
        "files": [
            {"path": name,
             "sha256": _sha256(run_dir / name),
             "bytes": (run_dir / name).stat().st_size}
            for name in written
        ],
        "timings_seconds": timings,
    }
    _write_json(run_dir / "manifest.json", manifest)
    if error_message:
        print(f"porodrift {subcommand}: FAILED: {error_message}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="porodrift",
        description="Drift-diffusion in perforated domains: micro/macro solvers, "
                    "cell problems, and verification harnesses.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--dump-correctors", action="store_true",
                        help="write corrector fields as CSV (cell subcommand; "
                             "sets cell.dump_correctors)")
    args = parser.parse_args(argv)

    try:
        config = parse_and_validate(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"porodrift: config file not found: {args.config}", file=sys.stderr)
        return 2
    except PorodriftError as exc:
        print(f"porodrift: invalid config: {exc}", file=sys.stderr)
        return 2
    if args.dump_correctors:
        # recorded in the echoed config, so that replaying it writes the same files
        config.raw.setdefault("cell", {})["dump_correctors"] = True
        config.dump_correctors = True
    return dispatch(args.subcommand, config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
