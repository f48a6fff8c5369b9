import contextlib
import dataclasses
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import porodrift.config as config_module
import porodrift.linalg as linalg
import porodrift.transport as transport
import porodrift.verification as verification
from porodrift import (
    ConfigError,
    InclusionShape,
    MicroSimulation,
    SolverError,
    TimeStepError,
    build_cell_geometry,
    build_masked_grid,
    run_micro,
)
from porodrift.cli import _write_json, dispatch, main
from porodrift.config import RunConfig, parse_and_validate
from porodrift.linalg import ZeroMeanDirect


def minimal_config(**overrides):
    base = {
        "geometry": {"inclusion": {"kind": "none"}, "m": 2, "r": 8},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": 0.01,
                    "dt_init": 1e-3},
        "species": [{"name": "s", "D": 1.0, "z": 0, "c0": "1"}],
    }
    base.update(overrides)
    return base


def canonical_config(out_dir, T=0.02):
    return {
        "geometry": {"inclusion": {"kind": "disk", "center": [0.5, 0.5],
                                   "radius": 0.25}, "m": 4, "r": 8},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": T,
                    "dt_init": 2e-3},
        "species": [
            {"name": "cation", "D": 1.0, "z": 1, "c0": "1 + 0.5*cos(pi*x1)*cos(pi*x2)"},
            {"name": "anion", "D": 0.5, "z": -1, "c0": "1 + 0.5*cos(pi*x1)*cos(pi*x2)"},
        ],
        "surface_charge": {"xi1": "0.2", "xi2": "0", "auto_balance": True},
        "output": {"directory": str(out_dir), "interval": 0.01,
                   "snapshot_times": [T]},
    }


# -- parsing ---------------------------------------------------------------------


def test_minimal_config_accepted():
    config = parse_and_validate(minimal_config())
    assert config.grid.dim == 2
    assert config.m == 2 and config.r == 8
    assert config.scaling().epsilon == 0.5


def test_alpha_above_beta_rejected():
    cfg = minimal_config()
    cfg["scaling"] = dict(cfg["scaling"], alpha=1.0, beta=0.0)
    with pytest.raises(ConfigError, match="alpha <= beta"):
        parse_and_validate(cfg)


@pytest.mark.parametrize("patch,match", [
    ({"scaling": {"alpha": 0.0, "beta": 0.0, "eta": 0.0, "p": 4.0, "T": 0.01}}, "eta"),
    ({"scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 3.0, "T": 0.01}}, "p >= 4"),
    ({"species": [{"name": "s", "D": -1.0, "z": 0, "c0": "1"}]}, "D must be positive"),
    ({"species": [{"name": "s", "D": 1.0, "z": 0, "c0": "1 +"}]}, "c0"),
    ({"species": [{"name": "s", "D": 1.0, "z": 0, "c0": "cos(pi*x1)"}]}, "nonnegative"),
    ({"species": []}, "non-empty"),
    ({"geometry": {"inclusion": {"kind": "blob"}, "m": 2, "r": 8}}, "kind"),
    ({"geometry": {"inclusion": {"kind": "none"}, "m": 0, "r": 8}}, "m must be >= 1"),
    ({"geometry": {"inclusion": {"kind": "none"}, "m": 2, "r": 3}}, "geometry.r must be >= 4"),
    ({"species": ["s"]}, r"species\[0\] must be an object"),
    # parse-only: a run would build about 1e7 output events
    ({"output": {"interval": 1e-9}}, "more than 100000 output times"),
    ({"output": {"interval": -0.001}}, "output.interval must be >= 0, got -0.001"),
], ids=["eta", "p", "D", "expr", "c0-sign", "species", "kind", "m", "r", "species-entry",
        "interval-fine", "interval-negative"])
def test_invalid_configs_rejected(patch, match):
    cfg = minimal_config(**patch)
    with pytest.raises(ConfigError, match=match):
        parse_and_validate(cfg)


def test_snapshot_beyond_final_time_rejected():
    cfg = minimal_config(output={"directory": "x", "snapshot_times": [1.0]})
    with pytest.raises(ConfigError, match="snapshot"):
        parse_and_validate(cfg)


def test_snapshot_times_naming_one_file_rejected(tmp_path, capsys):
    # both times are written as snapshot_0.001000.csv, so the second snapshot would overwrite
    # the first, and the manifest would list that file twice
    cfg = canonical_config(tmp_path / "out", T=0.002)
    cfg["geometry"]["m"] = 2
    cfg["output"]["snapshot_times"] = [0.001, 0.0010004, 0.002]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert ("porodrift: invalid config: snapshot times 0.001 and 0.0010004 both name "
            "snapshot_0.001000.csv") in err
    assert not (tmp_path / "out").exists()
    # equal times name one snapshot
    cfg["output"]["snapshot_times"] = [0.001, 0.001, 0.002]
    assert parse_and_validate(cfg).snapshot_times == [0.001, 0.001, 0.002]


def test_not_json_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_and_validate("{broken")


def test_config_reader_takes_text_or_a_dict_not_a_path(tmp_path):
    # the CLI reads the file itself and hands on its text
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_config()))
    assert isinstance(parse_and_validate(path.read_text()), RunConfig)
    for source, kind in [(path, type(path).__name__), (path.read_bytes(), "bytes")]:
        with pytest.raises(ConfigError, match=f"takes JSON text or a dict, got {kind}$"):
            parse_and_validate(source)


DEEP_LIST = "[" * 100000 + "]" * 100000  # deeper than json.loads can recurse


@pytest.mark.parametrize("text", [DEEP_LIST, '{"geometry": ' + DEEP_LIST + "}"],
                         ids=["root", "geometry"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("porodrift: invalid config: config is not valid JSON: ")
    assert "Traceback" not in err


def test_auto_balance_shift_recorded():
    cfg = minimal_config(
        species=[{"name": "s", "D": 1.0, "z": 1, "c0": "1"}],
        surface_charge={"xi1": "0", "xi2": "0", "auto_balance": True},
    )
    config = parse_and_validate(cfg)
    grid = config.grid
    assert config.balance_shift == pytest.approx(-grid.n_fluid * grid.cell_volume / 4.0)
    assert config.compat_residual_raw == pytest.approx(grid.n_fluid * grid.cell_volume)
    # balanced charges satisfy the constraint exactly
    from porodrift import validate_compatibility
    assert abs(validate_compatibility(grid, config.species, config.charges,
                                      raise_on_fail=False)) <= 1e-13


def test_incompatible_without_auto_balance_rejected():
    cfg = minimal_config(species=[{"name": "s", "D": 1.0, "z": 1, "c0": "1"}])
    with pytest.raises(ConfigError, match="incompatible charge data") as excinfo:
        parse_and_validate(cfg)
    assert excinfo.value.residual is not None


def test_content_hash_stable():
    a = parse_and_validate(minimal_config())
    b = parse_and_validate(minimal_config())
    assert a.content_hash() == b.content_hash()


# -- dispatch -------------------------------------------------------------------


def _manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())


def test_unknown_subcommand_raises():
    from porodrift.errors import PorodriftError
    config = parse_and_validate(minimal_config())
    with pytest.raises(PorodriftError, match="unknown subcommand"):
        dispatch("fly", config)


def test_micro_zero_time_run(tmp_path):
    cfg = minimal_config(scaling={"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0,
                                  "T": 0.0})
    config = parse_and_validate(cfg)
    status = dispatch("micro", config, out_dir=tmp_path)
    assert status == 0
    diag = (tmp_path / "diagnostics.csv").read_text().strip().split("\n")
    assert len(diag) == 2  # header + single t=0 row


def test_manifest_lists_every_written_file(tmp_path):
    config = parse_and_validate(canonical_config(tmp_path))
    assert dispatch("micro", config, out_dir=tmp_path) == 0
    manifest = _manifest(tmp_path)
    assert manifest["exit_status"] == 0
    listed = {entry["path"] for entry in manifest["files"]}
    on_disk = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    import hashlib
    for entry in manifest["files"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    # the share of the run spent writing the listed files
    timings = manifest["timings_seconds"]
    assert 0.0 < timings["write"] < timings["total"]
    assert manifest["peak_rss_mb"] > 0.0


def test_replay_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for run_dir in (run_a, run_b):
        config = parse_and_validate(canonical_config(run_dir))
        assert dispatch("micro", config, out_dir=run_dir) == 0
    for name in ("diagnostics.csv", "report.json", f"snapshot_{0.02:.6f}.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_factorization_counts_follow_the_benchmark_gate(tmp_path, monkeypatch):
    # the benchmark gates a run's transport LUs (species x step attempts) and its
    # Poisson factorizations (one per simulation) through these two names
    calls = {"transport": 0, "poisson": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(transport, "splu", counted("transport", transport.splu))
    monkeypatch.setattr(ZeroMeanDirect, "__init__", counted("poisson", ZeroMeanDirect.__init__))
    config = parse_and_validate(canonical_config(tmp_path))
    assert dispatch("micro", config, out_dir=tmp_path) == 0
    summary = json.loads((tmp_path / "report.json").read_text())["summary"]
    attempts = summary["steps"] + summary["rejections"]
    assert attempts >= 10
    assert calls == {"transport": 2 * attempts, "poisson": 1}


def test_two_level_side_keeps_one_transport_lu_per_solve(tmp_path, monkeypatch):
    # the one transport LU of a solve is the coarse operator's
    lus = []
    real_splu = transport.splu
    monkeypatch.setattr(transport, "splu", lambda *args, **kwargs: lus.append(args[0].shape)
                        or real_splu(*args, **kwargs))
    config = parse_and_validate(canonical_config(tmp_path))
    assert dispatch("micro", config, out_dir=tmp_path) == 0
    summary = json.loads((tmp_path / "report.json").read_text())["summary"]
    attempts = summary["steps"] + summary["rejections"]
    assert attempts >= 10
    solves = _manifest(tmp_path)["transport_solves"]["micro"]
    assert len(lus) == solves["solves"] == 2 * attempts
    assert set(lus) == {(solves["coarse_size"],) * 2}
    assert 0 < solves["max_cg_iterations"] <= solves["cg_iterations"]
    assert 0.0 < solves["max_cg_residual"] <= transport.CG_TOL


def test_manifest_records_the_transport_solves(tmp_path):
    config = parse_and_validate(canonical_config(tmp_path / "micro"))
    assert dispatch("micro", config, out_dir=tmp_path / "micro") == 0
    summary = json.loads((tmp_path / "micro" / "report.json").read_text())["summary"]
    attempts = summary["steps"] + summary["rejections"]
    solves = _manifest(tmp_path / "micro")["transport_solves"]
    assert list(solves) == ["micro"]
    assert sorted(solves["micro"]) == ["cg_iterations", "coarse_size", "max_cg_iterations",
                                       "max_cg_residual", "rejections", "restarts", "solves"]
    assert solves["micro"]["solves"] == 2 * attempts
    assert solves["micro"]["rejections"] == summary["rejections"]

    cfg = canonical_config(tmp_path / "converge")
    cfg["convergence"] = {"m_values": [2, 4], "T": 0.004, "dt_init": 1e-3,
                          "macro_resolution": 32}
    assert dispatch("converge", parse_and_validate(cfg), out_dir=tmp_path / "converge") == 0
    solves = _manifest(tmp_path / "converge")["transport_solves"]
    assert sorted(solves) == ["macro", "micro_m2", "micro_m4"]
    # two species, four steps, no rejection at this dt
    assert all(counts["solves"] == 8 for counts in solves.values())
    # the counts stay out of the replayed report
    assert "solves" not in (tmp_path / "converge" / "report.json").read_text()


def test_manifest_records_the_poisson_solves(tmp_path):
    config = parse_and_validate(canonical_config(tmp_path / "micro"))
    assert dispatch("micro", config, out_dir=tmp_path / "micro") == 0
    summary = json.loads((tmp_path / "micro" / "report.json").read_text())["summary"]
    poisson = _manifest(tmp_path / "micro")["poisson_solves"]
    assert list(poisson) == ["micro"]
    # one solve for the initial state and one per accepted step, none refined
    assert poisson["micro"]["solves"] == summary["steps"] + 1
    assert poisson["micro"]["refinements"] == 0
    assert 0.0 < poisson["micro"]["max_residual"] <= linalg.POISSON_TOL

    cfg = canonical_config(tmp_path / "converge")
    cfg["convergence"] = {"m_values": [2, 4], "T": 0.004, "dt_init": 1e-3,
                          "macro_resolution": 32}
    assert dispatch("converge", parse_and_validate(cfg), out_dir=tmp_path / "converge") == 0
    manifest = _manifest(tmp_path / "converge")
    assert sorted(manifest["poisson_solves"]) == sorted(manifest["transport_solves"])
    # four steps, no rejection at this dt
    assert all(counts["solves"] == 5 for counts in manifest["poisson_solves"].values())


def test_manifest_records_the_solves_of_eta_sweep_and_mms(tmp_path):
    cfg = canonical_config(tmp_path / "eta", T=0.01)
    cfg["eta_sweep"] = {"values": [0.5, 0.25], "T": 0.004, "dt_init": 1e-3}
    cfg["macro"] = {"resolution": 16}
    assert dispatch("eta-sweep", parse_and_validate(cfg), out_dir=tmp_path / "eta") == 0
    solves = _manifest(tmp_path / "eta")["transport_solves"]
    assert sorted(solves) == ["eta_0.25", "eta_0.5"]
    # two species, four steps, no rejection at this dt
    assert all(counts["solves"] == 8 for counts in solves.values())
    assert "solves" not in (tmp_path / "eta" / "report.json").read_text()

    cfg = minimal_config(mms={"solvers": ["poisson_micro", "diffusion"], "resolutions": [8, 16]})
    dispatch("mms", parse_and_validate(cfg), out_dir=tmp_path / "mms")
    solves = _manifest(tmp_path / "mms")["transport_solves"]
    # the Poisson studies make no transport solve; each diffusion run has its entry
    assert sorted(solves) == ["diffusion_spatial_r16", "diffusion_spatial_r8",
                              "diffusion_temporal_dt0.0005", "diffusion_temporal_dt0.001",
                              "diffusion_temporal_dt0.002", "diffusion_temporal_dt6.25e-05"]
    assert solves["diffusion_temporal_dt0.002"]["solves"] == 10
    assert "solves" not in (tmp_path / "mms" / "report.json").read_text()


def test_cell_dispatch_writes_tensor_report(tmp_path):
    cfg = canonical_config(tmp_path)
    cfg["cell"] = {"resolution": 32, "dump_correctors": True}
    config = parse_and_validate(cfg)
    assert dispatch("cell", config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    a_hom = np.asarray(report["a_hom"])
    assert a_hom.shape == (2, 2)
    assert 0 < a_hom[0, 0] < 1
    assert 0 < report["porosity"] <= 1
    correctors = (tmp_path / "correctors.csv").read_text().strip().split("\n")
    assert correctors[0].startswith("cell,y1,y2,w_1,w_2")


def test_macro_dispatch(tmp_path):
    config = parse_and_validate(canonical_config(tmp_path, T=0.01))
    assert dispatch("macro", config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "coupled"
    assert report["summary"]["max_mass_drift_rel"] <= 1e-12
    snap = (tmp_path / f"snapshot_{0.01:.6f}.csv").read_text().split("\n")[0]
    assert snap == "cell,x1,x2,c0_1,c0_2,phi0"


def test_mms_dispatch(tmp_path):
    cfg = minimal_config(mms={"solvers": ["poisson_micro"], "resolutions": [16, 32]})
    config = parse_and_validate(cfg)
    assert dispatch("mms", config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True


def test_mms_config_with_another_poisson_tol_exits_2(tmp_path, capsys):
    # the Poisson tolerance is the constant linalg.POISSON_TOL: a config may state only its value
    cfg = minimal_config(mms={"solvers": ["poisson_micro"], "resolutions": [8, 16]},
                         solver={"poisson_tol": 1e-300},
                         output={"directory": str(tmp_path / "out")})
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["mms", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "solver.poisson_tol is fixed at 1e-10, got 1e-300" in err
    assert not (tmp_path / "out").exists()


def test_eta_sweep_dispatch(tmp_path):
    cfg = canonical_config(tmp_path, T=0.01)
    cfg["eta_sweep"] = {"values": [0.5, 0.25], "T": 0.005}
    cfg["macro"] = {"resolution": 16}
    config = parse_and_validate(cfg)
    assert dispatch("eta-sweep", config, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["distances"]) == 1


def test_failed_dispatch_writes_manifest_with_status(tmp_path):
    # eta-sweep demands the coupled regime; alpha < beta is a config error only the run sees
    cfg = minimal_config()
    cfg["scaling"] = dict(cfg["scaling"], beta=1.0)
    config = parse_and_validate(cfg)
    status = dispatch("eta-sweep", config, out_dir=tmp_path)
    assert status == 2
    manifest = _manifest(tmp_path)
    assert manifest["exit_status"] == 2
    assert "coupled" in manifest["error"]


def test_mms_order_outside_threshold_exits_1_with_manifest(tmp_path, monkeypatch):
    # a genuine run failure: the study runs, its order misses the bound
    monkeypatch.setitem(verification.MMS_THRESHOLDS, "poisson_micro", (3.0, None))
    cfg = minimal_config(mms={"solvers": ["poisson_micro"], "resolutions": [8, 16]})
    assert dispatch("mms", parse_and_validate(cfg), out_dir=tmp_path) == 1
    manifest = _manifest(tmp_path)
    assert manifest["exit_status"] == 1
    assert manifest["error"] == "mms verification: observed order outside threshold"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False


def _micro_compatible_config(out_dir):
    # the outer charge balances the micro data exactly; on the macro grid the
    # anion's x1-dependent c0 integrates to a different total, so the macro
    # charge balance fails
    cfg = canonical_config(out_dir, T=0.01)
    cfg["species"][1]["c0"] = "0.8 + 0.3*x1^2"
    shift = parse_and_validate(cfg).balance_shift
    cfg["surface_charge"] = {"xi1": "0.2", "xi2": repr(shift), "auto_balance": False}
    cfg["macro"] = {"resolution": 64}
    cfg["convergence"] = {"m_values": [2, 4], "macro_resolution": 64}
    return cfg


@pytest.mark.parametrize("subcommand", ["macro", "converge", "eta-sweep"],
                         ids=["macro-balance", "converge-balance", "eta-sweep-balance"])
def test_dispatch_config_error_exits_2(tmp_path, capsys, subcommand):
    message = "incompatible charge data"
    cfg = _micro_compatible_config(tmp_path / "out")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err
    manifest = _manifest(tmp_path / "out")
    assert manifest["exit_status"] == 2
    assert message in manifest["error"]


def test_dump_correctors_flag_writes_listed_correctors(tmp_path):
    cfg = canonical_config(tmp_path / "out")
    cfg["cell"] = {"resolution": 16}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cell", "--config", str(cfg_path), "--dump-correctors"]) == 0
    header = (tmp_path / "out" / "correctors.csv").read_text().split("\n")[0]
    assert header == "cell,y1,y2,w_1,w_2"
    listed = {entry["path"] for entry in _manifest(tmp_path / "out")["files"]}
    assert listed == {"report.json", "correctors.csv"}


def test_dump_correctors_flag_is_recorded_in_the_manifest(tmp_path):
    cfg = canonical_config(tmp_path / "out")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cell", "--config", str(cfg_path), "--dump-correctors"]) == 0
    manifest = _manifest(tmp_path / "out")
    assert manifest["config_echo"]["cell"] == {"dump_correctors": True}
    # the echoed config alone writes the same files
    replay_path = tmp_path / "replay.json"
    replay_path.write_text(json.dumps(manifest["config_echo"]))
    assert main(["cell", "--config", str(replay_path), "--out", str(tmp_path / "replay")]) == 0
    replay = _manifest(tmp_path / "replay")
    assert replay["files"] == manifest["files"]
    assert replay["config_sha256"] == manifest["config_sha256"]


def test_cell_resolution_too_coarse_for_the_inclusion_exits_2(tmp_path, capsys):
    # margin 0.25 of the canonical disk is below 2 / 5
    cfg = canonical_config(tmp_path / "out")
    cfg["cell"] = {"resolution": 5}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cell", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "cell.resolution 5" in err
    assert "Traceback" not in err
    manifest = _manifest(tmp_path / "out")
    assert manifest["exit_status"] == 2
    assert manifest["files"] == []


@pytest.mark.parametrize("patch,message", [
    ({"solver": {"poisson_tl": 1e-3}}, "solver has unknown key 'poisson_tl'"),
    ({"solver": {"explicit_time": True}}, "solver has unknown key 'explicit_time'"),
    ({"solvers": {}}, "config has unknown key 'solvers'"),
    ({"species": [{"name": "s", "D": 1.0, "z": 0, "c0": "1", "charge": 1}]},
     "species[0] has unknown key 'charge'"),
    ({"geometry": {"inclusion": {"kind": "disk", "radius": 0.25, "raduis": 0.2},
                   "m": 4, "r": 8}},
     "geometry.inclusion has unknown key 'raduis'"),
], ids=["typo", "explicit-time", "section", "species", "inclusion"])
def test_main_rejects_unknown_keys(tmp_path, capsys, patch, message):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg.update(patch)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"],
                         ids=["comma", "quote", "newline", "carriage-return"])
def test_species_name_that_breaks_the_csv_exits_2(tmp_path, capsys, name):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg["species"][0]["name"] = name
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"species[0].name {name!r} may not hold a comma" in err
    assert not (tmp_path / "out").exists()


def test_main_requires_existing_config(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["micro", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"porodrift: config file not found: {path}\n"


@pytest.mark.parametrize("kind", ["directory", "invalid-utf-8"])
def test_main_reports_an_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "run.json"
    if kind == "directory":
        path.mkdir()
        reason = "Is a directory"
    else:
        path.write_bytes(b"\xff\xfe")
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert main(["micro", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"porodrift: cannot read config {path}: {reason}\n"


@pytest.mark.parametrize("section,key,text,message", [
    ("surface_charge", "auto_balance", '"false"', "must be true or false"),
    ("scaling", "T", "NaN", "must be finite"),
    ("scaling", "eta", "Infinity", "must be finite"),
    ("macro", "resolution", '"abc"', "must be an integer"),
    ("cell", "resolution", "3.7", "must be an integer"),
    ("convergence", "m_values", '[4, "abc"]', "must be an integer"),
    ("convergence", "macro_resolution", "3.7", "must be an integer"),
    ("mms", "resolutions", "[32, 64.5]", "must be an integer"),
    ("geometry", "dim", '"abc"', "must be an integer"),
    ("output", "snapshot_times", '["a"]', "must be a number"),
    ("eta_sweep", "values", '"abc"', "must be a list"),
    ("eta_sweep", "values", '[0.5, "a"]', "must be a number"),
    ("eta_sweep", "values", "[0.5, -1]", "must be positive, got -1.0"),
    ("eta_sweep", "values", "[0]", "must be positive, got 0.0"),
    ("eta_sweep", "values", "[]", "must be a non-empty list"),
    ("convergence", "m_values", "[]", "must be a non-empty list"),
    ("convergence", "m_values", "[0, 4]", "must be >= 1, got 0"),
    ("convergence", "m_values", "[8, 4]", "must be strictly increasing"),
    ("mms", "solvers", "[]", "must be a non-empty list"),
    ("mms", "solvers", '["poisson_micro", "poisson"]', "has unknown solver 'poisson'"),
    ("mms", "solvers", "[1]", "must be a string"),
    ("mms", "solvers", '"diffusion"', "must be a list"),
    ("mms", "resolutions", "[]", "must hold at least two distinct resolutions"),
    ("mms", "resolutions", "[32, 32]", "must hold at least two distinct resolutions"),
    ("mms", "resolutions", "[2, 32]", "must be >= 4, got 2"),
    ("macro", "resolution", "2", "must be >= 4, got 2"),
    ("cell", "resolution", "3", "must be >= 4, got 3"),
    ("convergence", "macro_resolution", "3", "must be >= 4, got 3"),
    ("convergence", "dt_init", "0", "must be positive, got 0.0"),
    ("convergence", "dt_init", "-1e-3", "must be positive, got -0.001"),
    ("convergence", "T", "-0.01", "must be >= 0, got -0.01"),
    ("eta_sweep", "dt_init", "0", "must be positive, got 0.0"),
    ("eta_sweep", "dt_init", "-1e-3", "must be positive, got -0.001"),
    ("eta_sweep", "T", "-0.01", "must be >= 0, got -0.01"),
    # without geometry.dim the dimension is read off the center
    ("geometry.inclusion", "center", "0.5", "must be a list, got 0.5"),
], ids=["string-bool", "nan", "infinity", "macro-resolution", "cell-resolution",
        "m-values", "convergence-macro-resolution", "mms-resolutions", "dim",
        "snapshot-times", "eta-values", "eta-value", "eta-value-negative", "eta-value-zero",
        "eta-values-empty",
        "m-values-empty", "m-values-zero",
        "m-values-order", "mms-solvers-empty", "mms-solvers-unknown", "mms-solvers-type",
        "mms-solvers-string", "mms-resolutions-empty", "mms-resolutions-single",
        "mms-resolutions-range", "macro-resolution-range", "cell-resolution-range",
        "convergence-macro-resolution-range", "convergence-dt-zero",
        "convergence-dt-negative", "convergence-t-negative", "eta-sweep-dt-zero",
        "eta-sweep-dt-negative", "eta-sweep-t-negative", "center-number"])
def test_main_rejects_malformed_values(tmp_path, capsys, section, key, text, message):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    entry = cfg
    for part in section.split("."):
        entry = entry.setdefault(part, {})
    entry[key] = "@"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg).replace('"@"', text))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key} {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch,message", [
    ({"surface_charge": {"xi1": "q"}}, "surface_charge.xi1: unknown name 'q'"),
    ({"surface_charge": {"xi2": "y1"}}, "surface_charge.xi2: unknown name 'y1'"),
    ({"geometry": {"dim": 3}}, "geometry.inclusion.center has 2 coordinates, geometry has dim 3"),
    ({"geometry": {"inclusion": {"kind": "disk", "center": ["a", 0.5], "radius": 0.25}}},
     "geometry.inclusion.center must be a number"),
    ({"geometry": {"inclusion": {"kind": "super_ellipse", "semi_axes": "abc"}}},
     "geometry.inclusion.semi_axes must be a list"),
    ({"geometry": {"dim": 3, "inclusion": {"kind": "super_ellipse",
                                           "center": [0.5, 0.5, 0.5],
                                           "semi_axes": [0.2, 0.2]}}},
     "geometry.inclusion.semi_axes has 2 coordinates, geometry has dim 3"),
], ids=["xi1-name", "xi2-name", "dim-center", "center-string", "semi-axes-string",
        "dim-semi-axes"])
def test_main_rejects_malformed_data(tmp_path, capsys, patch, message):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    for section, fields in patch.items():
        cfg[section].update(fields)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,text,message", [
    ("species", "c0", "1/0", "species 'cation': initial concentration must be finite"),
    ("species", "c0", "0^-1", "species 'cation': initial concentration must be finite"),
    ("species", "c0", "(-1)^0.5", "species 'cation': initial concentration must be finite"),
    ("species", "c0", "(0-1)^0.5 + x1",
     "species 'cation': initial concentration must be finite"),
    ("species", "c0", "exp(1000)", "species 'cation': initial concentration must be finite"),
    ("surface_charge", "xi1", "exp(1000)", "surface_charge.xi1 must be finite"),
    ("surface_charge", "xi2", "exp(1000)", "surface_charge.xi2 must be finite"),
    # every sample is finite; only the total charge overflows
    ("surface_charge", "xi1", "1e308",
     "the total charge of the initial and surface data is inf"),
    ("species", "c0", "-" * 2000 + "1", "species[0].c0: "),
    ("species", "c0", "x1**2", "species[0].c0: '**' in expression"),
    # every sample is finite; c0^p, which the energy sums, overflows
    ("species", "c0", "1e100",
     "species 'cation': initial concentration to the power p = 4 must be finite"),
], ids=["divide-by-zero", "zero-power", "constant-root", "root-plus-x1", "c0-overflow",
        "xi1-overflow", "xi2-overflow", "xi1-total-overflow", "deep-nesting", "double-star",
        "c0-power-overflow"])
def test_main_rejects_non_finite_or_unparsable_data(tmp_path, capsys, section, key, text,
                                                      message):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    entry = cfg["species"][0] if section == "species" else cfg[section]
    entry[key] = text
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,text", [
    ("solver", '"fast"'), ("output", '"x"'), ("convergence", "[4, 8]"),
    ("geometry", '"g"'), ("scaling", "[1]"),
])
def test_main_rejects_non_object_section(tmp_path, monkeypatch, capsys, section, text):
    # `key in "fast"` is a substring test, so a string section read as an
    # object would be silently ignored; a run that fell back to the default
    # output directory would write ./out, which the chdir keeps in tmp_path
    monkeypatch.chdir(tmp_path)
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg[section] = "@"
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg).replace('"@"', text))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"config.{section} must be an object" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _without(section, key=None):
    def patch(cfg):
        if key is None:
            del cfg[section]
        else:
            del cfg[section][key]
        return cfg
    return patch


def _with(section, key, value):
    def patch(cfg):
        cfg[section][key] = value
        return cfg
    return patch


def _duplicate_species(cfg):
    cfg["species"][1]["name"] = cfg["species"][0]["name"]
    return cfg


def _first_species_named(name):
    def patch(cfg):
        cfg["species"][0]["name"] = name
        return cfg
    return patch


@pytest.mark.parametrize("patch,message", [
    (_without("scaling"), "missing required config section 'scaling'"),
    (_without("scaling", "alpha"), "missing required key 'alpha' in scaling section"),
    (lambda cfg: [cfg], "config must be a JSON object"),
    (_with("geometry", "m", 2**53 + 1),
     "geometry.m must be at most 9007199254740992 in magnitude, got 9007199254740993"),
    (_with("scaling", "cfl_fraction", 0.0), "scaling.cfl_fraction is fixed at 0.5, got 0.0"),
    (_with("scaling", "cfl_fraction", 1.5), "scaling.cfl_fraction is fixed at 0.5, got 1.5"),
    (lambda cfg: {**cfg, "solver": {"cell_tol": 1e-10}},
     "solver.cell_tol is fixed at 1e-12, got 1e-10"),
    (_duplicate_species, "duplicate species name 'cation'"),
    # a string value is never converted: a list name would become a CSV column "['a']"
    (_first_species_named(["a"]), "species[0].name must be a string, got ['a']"),
    (_with("output", "directory", 5), "output.directory must be a string, got 5"),
    (_with("surface_charge", "xi1", 0.2), "surface_charge.xi1 must be a string, got 0.2"),
    (_with("surface_charge", "xi2", 0), "surface_charge.xi2 must be a string, got 0"),
    # the geometry build's GeometryError ends as a ConfigError
    (_with("geometry", "inclusion", {"kind": "disk", "radius": 0.45}),
     "inclusion margin 0.05 to the cell boundary is below 2/r = 0.25"),
], ids=["missing-section", "missing-key", "non-object-root", "integer-beyond-2^53",
        "cfl-fraction-zero", "cfl-fraction-above-one", "cell-tol-other", "duplicate-species",
        "list-species-name", "number-directory", "number-xi1", "number-xi2",
        "inclusion-margin"])
def test_config_reader_error_branches_exit_2(tmp_path, capsys, patch, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(patch(canonical_config(tmp_path / "out", T=0.01))))
    assert main(["micro", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "porodrift: invalid config" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_square_inclusion_parses():
    cfg = canonical_config("out")
    cfg["geometry"]["inclusion"] = {"kind": "square", "center": [0.5, 0.5], "half_width": 0.2}
    config = parse_and_validate(cfg)
    assert config.inclusion == InclusionShape("square", center=(0.5, 0.5), half_width=0.2)
    # the cells whose centers lie within 0.2 of the middle, 4 x 4 of the 8 x 8, are solid
    assert config.cell.n_fluid == 48


def test_write_json_keeps_non_finite_floats_as_strings_and_numpy_scalars_as_numbers(tmp_path):
    # perfbench reads a non-finite report value as a string (workloads._finite)
    path = tmp_path / "report.json"
    _write_json(path, {"nan": float("nan"), "inf": float("inf"), "minus_inf": -np.inf,
                       "np_nan": np.float64("nan"), "np_inf": np.float32("inf"),
                       "np_float": np.float64(0.1), "np_int": np.int64(2**40),
                       "array": np.array([1.5, np.nan]), 3: [np.int32(-1)]})
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    assert report == {"nan": "nan", "inf": "inf", "minus_inf": "-inf", "np_nan": "nan",
                      "np_inf": "inf", "np_float": 0.1, "np_int": 2**40,
                      "array": [1.5, "nan"], "3": [-1]}
    assert type(report["np_float"]) is float and type(report["np_int"]) is int


def _full_canonical_config(out_dir):
    """The canonical config with every optional section spelled out."""
    cfg = canonical_config(out_dir, T=0.01)
    cfg.update({
        "solver": {"poisson_tol": 1e-10, "cell_tol": 1e-12},
        "macro": {"resolution": 32},
        "cell": {"resolution": 8, "dump_correctors": False},
        "convergence": {"m_values": [2, 4], "T": 0.01, "dt_init": 1e-3,
                        "macro_resolution": 32},
        "eta_sweep": {"values": [0.5, 0.25], "T": 0.01, "dt_init": 1e-3},
        "mms": {"solvers": ["poisson_micro"], "resolutions": [8, 16]},
    })
    cfg["geometry"]["dim"] = 2
    return cfg


def _field_paths(value, path=()):
    """Every section, key and list entry of a JSON document, as key paths."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


_CANONICAL_PATHS = list(_field_paths(_full_canonical_config("out")))

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8)
# numbers of the canonical fields' size pass the type checks and reach the model's checks
_FIELD_VALUES = st.integers(-3, 40) | st.floats(-1.0, 2.0) | _JSON_VALUES


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_CANONICAL_PATHS), value=_FIELD_VALUES)
def test_any_json_field_is_a_run_config_or_a_config_error(monkeypatch, path, value):
    # a grid this size builds in milliseconds; the bound is checked before any grid is built
    monkeypatch.setattr(config_module, "MAX_GRID_CELLS", 2**15)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _full_canonical_config(Path(tmp) / "out")
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        text = json.dumps(cfg)
        try:
            assert isinstance(parse_and_validate(text), RunConfig)
            return
        except ConfigError:
            pass
        cfg_path = Path(tmp) / "run.json"
        cfg_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["micro", "--config", str(cfg_path)]) == 2
        assert "porodrift: invalid config" in err.getvalue()
        assert not (Path(tmp) / "out").exists()


def test_grid_beyond_the_cell_bound_rejected():
    cfg = canonical_config("out")
    cfg["geometry"]["m"] = 10**6
    with pytest.raises(ConfigError, match=r"geometry grid has 8000000\^2 cells"):
        parse_and_validate(cfg)


def test_main_runs_micro(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(canonical_config(tmp_path / "out", T=0.01)))
    assert main(["micro", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "diagnostics.csv").exists()


@pytest.mark.parametrize("eta", [1e300, 1e308])
def test_overflowing_eta_is_a_config_error(tmp_path, capsys, eta):
    # the largest initial face coefficient D h_p'(max c0) / h^2, or its square, overflows
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg["scaling"]["eta"] = eta
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["micro", "--config", str(cfg_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "porodrift: invalid config" in err and "scaling.eta" in err
    assert not (tmp_path / "out").exists()


def _set_sweep(values):
    def patch(cfg):
        cfg["eta_sweep"] = {"values": values}
    return patch


def _set_anion_diffusivity(cfg):
    cfg["species"][1]["D"] = 1e300


@pytest.mark.parametrize("subcommand,patch,message", [
    # the sweep runs on the macro grid, h = 1/32 here
    ("eta-sweep", _set_sweep([1e300]), "species[0].D = 1 with eta_sweep.values[0] = 1e+300 "
                                       "overflows"),
    ("eta-sweep", _set_sweep([0.5, 1e250]), "species[0].D = 1 with eta_sweep.values[1] = "
                                            "1e+250 overflows"),
    ("micro", _set_anion_diffusivity, "species[1].D = 1e+300 with scaling.eta = 1 overflows"),
], ids=["sweep-1e300", "sweep-1e250", "diffusivity-1e300"])
def test_overflowing_face_coefficient_names_its_operands(tmp_path, capsys, subcommand, patch,
                                                         message):
    cfg = canonical_config(tmp_path / "out", T=0.01)
    patch(cfg)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([subcommand, "--config", str(cfg_path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "porodrift: invalid config" in err and message in err
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_scaling_eta_is_checked_on_the_finest_grid_it_runs_on(tmp_path):
    # finite squares on the 32^2 micro grid, overflowing ones on the 64^2 macro grid
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg["scaling"]["eta"] = 5e149
    cfg["convergence"] = {"m_values": [2, 4]}
    assert isinstance(parse_and_validate(cfg), RunConfig)
    cfg["macro"] = {"resolution": 64}
    with pytest.raises(ConfigError, match=r"scaling\.eta = 5e\+149 overflows .* at h = 0\.015625"):
        parse_and_validate(cfg)


@pytest.mark.parametrize("eta,message", [
    # finite face coefficients whose squares overflow: the CG stops at once
    (1e300, r"CG stopped after 0 iterations at relative residual (nan|inf) .*; largest "
            r"face coefficient 1\.372e\+304"),
    # h_p' itself overflows: SuperLU's error names its cause
    (1e308, "Factor is exactly singular; largest face coefficient inf"),
], ids=["cg", "lu"])
def test_overflowing_eta_fails_fast_with_the_largest_face_coefficient(tmp_path, eta, message):
    # the config reader rejects these eta; the engine, handed one directly, fails typed
    config = parse_and_validate(canonical_config(tmp_path / "out", T=0.01))
    scaling = dataclasses.replace(config.scaling(), eta=eta)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError) as failure:
        run_micro(config.grid, scaling, config.species, config.charges, config.dt_init)
    assert re.search("implicit transport solve.*" + message, str(failure.value))


@pytest.mark.parametrize("subcommand,section", [
    ("micro", "scaling"), ("macro", "scaling"), ("converge", "convergence"),
    ("eta-sweep", "eta_sweep"),
], ids=["micro", "macro", "converge", "eta-sweep"])
def test_dt_init_below_the_step_floor_is_a_config_error(tmp_path, capsys, subcommand, section):
    # at 1e-300 the implicit solve's c/dt would overflow the CG's norms
    cfg = canonical_config(tmp_path / "out", T=0.01)
    cfg.setdefault(section, {})["dt_init"] = transport.DT_FLOOR
    assert isinstance(parse_and_validate(cfg), RunConfig)
    cfg[section]["dt_init"] = 1e-300
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert (f"porodrift: invalid config: {section}.dt_init must be at least the time-step "
            f"floor 1e-10, got 1e-300") in err
    assert not (tmp_path / "out").exists()


def test_default_dt_init_is_a_hundredth_of_t_and_at_least_the_step_floor():
    cfg = minimal_config()
    del cfg["scaling"]["dt_init"]
    assert parse_and_validate(cfg).dt_init == 0.01 / 100
    cfg["scaling"]["T"] = 5e-9
    assert parse_and_validate(cfg).dt_init == transport.DT_FLOOR


MAX_STEPS = 100  # more steps than any run below may take, so that a loop fails instead of hanging


def _huge_charge(cfg):
    cfg["species"][0]["z"] = 2**53


def _cfl_limited_config(out_dir, patch):
    # the reader accepts it: the drift's CFL limit allows steps of about 4e-34
    cfg = canonical_config(out_dir, T=0.01)
    cfg["geometry"]["m"] = 2
    patch(cfg)
    return cfg


@pytest.mark.parametrize("patch", [_huge_charge], ids=["z"])
def test_cfl_step_below_the_floor_stops_the_run(tmp_path, patch):
    config = parse_and_validate(_cfl_limited_config(tmp_path / "out", patch))

    class Bounded(MicroSimulation):
        steps = 0

        def step(self, *args, **kwargs):
            self.steps += 1
            assert self.steps <= MAX_STEPS, "the run loop kept stepping"
            return super().step(*args, **kwargs)

    sim = Bounded(config.grid, config.scaling(), config.species, config.charges)
    with pytest.raises(TimeStepError,
                       match=r"^CFL time step \S+ at t = 0 is below the floor 1e-10$"):
        sim.run(config.final_time, config.dt_init)
    assert sim.steps == 0


def test_cfl_step_below_the_floor_exits_1_with_manifest(tmp_path, capsys, monkeypatch):
    real_step, steps = transport.TransportSim.step, []

    def bounded_step(self, *args, **kwargs):
        steps.append(None)
        assert len(steps) <= MAX_STEPS, "the run loop kept stepping"
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(transport.TransportSim, "step", bounded_step)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_cfl_limited_config(tmp_path / "out", _huge_charge)))
    assert main(["micro", "--config", str(cfg_path)]) == 1
    assert "below the floor 1e-10" in capsys.readouterr().err
    manifest = _manifest(tmp_path / "out")
    assert manifest["exit_status"] == 1
    assert manifest["error"].startswith("CFL time step 3.966e-34 at t = 0")


@pytest.mark.parametrize("option", [True, False], ids=["out", "output-directory"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, option):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg_path = tmp_path / "run.json"
    for target, reason in [(blocker, "File exists"), (blocker / "run", "Not a directory")]:
        cfg = canonical_config(tmp_path / "unused" if option else target, T=0.01)
        cfg_path.write_text(json.dumps(cfg))
        argv = ["micro", "--config", str(cfg_path)] + (["--out", str(target)] if option else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"porodrift: cannot create output directory {target}: {reason}\n"
    assert blocker.read_text() == ""
    assert not (tmp_path / "unused").exists()


def test_three_dimensional_config_dispatch(tmp_path):
    cfg = {
        "geometry": {"inclusion": {"kind": "disk", "center": [0.5, 0.5, 0.5],
                                   "radius": 0.2}, "m": 1, "r": 8},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": 0.004,
                    "dt_init": 2e-3},
        "species": [
            {"name": "p", "D": 1.0, "z": 1, "c0": "1 + 0.25*cos(pi*x1)*cos(pi*x3)"},
            {"name": "m", "D": 1.0, "z": -1, "c0": "1 + 0.25*cos(pi*x1)*cos(pi*x3)"},
        ],
        "surface_charge": {"xi1": "0.1*cos(2*pi*y3)", "xi2": "0",
                           "auto_balance": True},
        "output": {"directory": str(tmp_path), "snapshot_times": [0.004]},
        "eta_sweep": {"T": 0.004},
        "convergence": {"m_values": [1, 2], "T": 0.004, "dt_init": 2e-3},
    }
    config = parse_and_validate(cfg)
    assert config.grid.dim == 3
    assert dispatch("micro", config, out_dir=tmp_path) == 0
    header = (tmp_path / f"snapshot_{0.004:.6f}.csv").read_text().split("\n")[0]
    assert header == "cell,x1,x2,x3,c_1,c_2,phi"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["max_mass_drift_rel"] <= 1e-9

    # the macro grid takes its dimension from the config
    assert dispatch("macro", config, out_dir=tmp_path / "macro") == 0
    header = (tmp_path / "macro" / f"snapshot_{0.004:.6f}.csv").read_text().split("\n")[0]
    assert header == "cell,x1,x2,x3,c0_1,c0_2,phi0"
    assert dispatch("eta-sweep", config, out_dir=tmp_path / "eta") == 0
    dispatch("converge", config, out_dir=tmp_path / "converge")
    report = json.loads((tmp_path / "converge" / "report.json").read_text())
    errors = [e for series in report["conc_errors"].values() for e in series]
    assert len(errors) == 4 and all(np.isfinite(errors))


def test_macro_without_inclusion_matches_micro(tmp_path):
    # with no inclusion, m = 1 and alpha = beta = 0 the micro and macro models
    # coincide, outer charge xi2 included
    r = 16
    cfg = {
        "geometry": {"m": 1, "r": r},
        "scaling": {"alpha": 0.0, "beta": 0.0, "eta": 1.0, "p": 4.0, "T": 0.01,
                    "dt_init": 1e-3},
        "species": [
            {"name": "p", "D": 1.0, "z": 1, "c0": "1 + 0.25*cos(pi*x1)"},
            {"name": "m", "D": 0.5, "z": -1, "c0": "1 + 0.25*cos(pi*x1)"},
        ],
        "surface_charge": {"xi1": "0", "xi2": "0.5*cos(pi*x2)", "auto_balance": True},
        "macro": {"resolution": r},
    }
    config = parse_and_validate(cfg)
    assert dispatch("micro", config, out_dir=tmp_path / "micro") == 0
    assert dispatch("macro", config, out_dir=tmp_path / "macro") == 0
    micro = np.loadtxt(tmp_path / "micro" / "diagnostics.csv", delimiter=",", skiprows=1)
    macro = np.loadtxt(tmp_path / "macro" / "diagnostics.csv", delimiter=",", skiprows=1)
    assert micro.shape == macro.shape
    assert np.max(np.abs(micro[:, 1:] - macro[:, 1:])) <= 1e-12
    np.testing.assert_array_equal(micro[:, 0], macro[:, 0])
    # the outer charge drives the potential
    header = (tmp_path / "micro" / "diagnostics.csv").read_text().split("\n")[0].split(",")
    assert np.min(micro[:, header.index("grad_phi_scaled")]) > 1e-3


def test_snapshot_header_micro(tmp_path):
    config = parse_and_validate(canonical_config(tmp_path, T=0.01))
    assert dispatch("micro", config, out_dir=tmp_path) == 0
    header = (tmp_path / f"snapshot_{0.01:.6f}.csv").read_text().split("\n")[0]
    assert header == "cell,x1,x2,c_1,c_2,phi"


def _snapshot_centers(kind):
    if kind == "random":
        return np.random.default_rng(0).random((5, 2))
    # lattice centers repeat per axis, so the writer formats each coordinate once
    dim, m = {"grid-2d": (2, 2), "grid-3d": (3, 1)}[kind]
    cell = build_cell_geometry(InclusionShape("disk", center=(0.5,) * dim, radius=0.25), 8)
    return build_masked_grid(cell, m).centers


@pytest.mark.parametrize("kind", ["random", "grid-2d", "grid-3d"])
def test_snapshot_rows_match_per_cell_format(tmp_path, kind):
    from porodrift.cli import _write_snapshot

    centers = _snapshot_centers(kind)
    n_cells, dim = centers.shape
    rng = np.random.default_rng(0)
    conc = rng.random((2, n_cells)) * 1e-7
    phi = rng.standard_normal(n_cells)
    _write_snapshot(tmp_path / "s.csv", "x", centers, {"c_1": conc[0], "c_2": conc[1],
                                                       "phi": phi})
    lines = [",".join(["cell"] + [f"x{i + 1}" for i in range(dim)] + ["c_1", "c_2", "phi"])]
    for j in range(n_cells):
        row = [str(j)] + [repr(float(v)) for v in centers[j]]
        row += [repr(float(conc[i, j])) for i in range(2)] + [repr(float(phi[j]))]
        lines.append(",".join(row))
    assert (tmp_path / "s.csv").read_text() == "\n".join(lines) + "\n"
