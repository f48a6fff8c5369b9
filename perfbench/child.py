"""One benchmark sample in a fresh interpreter: import, validate, dispatch, check.

Run by ``run.py``, never by hand.  The last line of standard output is one
JSON object with the sample's timings, their speed-probe scale factors
(``speed.py``), peak RSS and gate verdict.  With
``--trace 1`` the porodrift names are wrapped before the config is parsed,
and the spans are reduced to per-layer metrics and written to
``spans.json`` in the run directory when the sample ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_counts, check_outputs, config_for

SETUP_KERNELS = 5  # speed-probe kernels right after set-up, for setup_scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import porodrift.cli
    import porodrift.config
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    run_dir = Path(args.run_dir)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config_for(args.workload, args.seed), indent=2))
    config = porodrift.config.parse_and_validate(config_path.read_text())
    setup_s = time.monotonic() - args.spawned_at
    import speed  # only now: it imports numpy and scipy, which cli.import_s must count
    probe = speed.SpeedProbe()
    result = {"package": porodrift.__file__, "setup_s": setup_s, "import_s": import_s,
              "setup_scale": probe.scale([probe.kernel() for _ in range(SETUP_KERNELS)])}
    if not args.setup_only:
        out_dir = run_dir / "out"
        subcommand = WORKLOADS[args.workload].subcommand
        if tracer is None:
            with probe:
                start = time.perf_counter()
                status = porodrift.cli.dispatch(subcommand, config, out_dir=out_dir)
                wall = time.perf_counter() - start
            result["run_s"] = wall - probe.spent
            result["run_scale"] = probe.scale(probe.times)
            result["run_kernels"] = len(probe.times)
        else:
            # no speed probe: its time would land in the self time of a layer
            start = time.perf_counter()
            status = porodrift.cli.dispatch(subcommand, config, out_dir=out_dir)
            result["run_s"] = time.perf_counter() - start
        result["status"] = status
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["gate"] = check_outputs(args.workload, out_dir, status)
        report = out_dir / "report.json"
        result["report_sha256"] = (hashlib.sha256(report.read_bytes()).hexdigest()
                                   if report.is_file() else None)
        # manifest.json holds wall-clock timings, so its size varies between samples
        result["write_bytes"] = sum(f.stat().st_size for f in out_dir.iterdir()
                                    if f.name != "manifest.json")
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans, tracer.counters)
            layers["cli.import_s"] = import_s
            layers["cli.write_bytes"] = result["write_bytes"]
            result["gate"] += check_counts(args.workload, {
                "steps": layers["transport.step_count"],
                "transport_lus": layers["transport.lu_factor_count"],
                "poisson_factors": layers["linalg.poisson_factor_count"],
            })
            result["layers"] = layers
            (run_dir / "spans.json").write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
