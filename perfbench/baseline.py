"""Run every workload over ten seeds and print (optionally record) the baseline.

    python3 perfbench/baseline.py [--record]

For each workload this runs ``run.py --trace 0`` once per seed (seeds 1..10)
and ``run.py --trace 1`` once, with BENCHMARK.json's ``run_seconds``.  It
prints each end-to-end metric's median, quartiles and spread (interquartile
range over median) next to a third of the metric's bound, failed_frac over
all samples, the samples each run's medians rest on, and every per-layer
metric of the traced run.  ``--record`` writes the result, the machine, the
thread settings and each workload's config and reason to
``perfbench/BASELINE.json``; the metric definitions stay in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import run as bench
from workloads import WORKLOADS, config_for

BASELINE = bench.BENCH_DIR / "BASELINE.json"
SEEDS = range(1, 11)


# figures run.py prints but does not declare as metrics
PRINTED = {
    "unscaled_setup_s": r"unscaled medians: setup_s (\S+) s",
    "unscaled_run_s": r"unscaled medians: .* run_s (\S+) s;",
    "trace_overhead_s": r"tracing overhead = (\S+) s",
}


def invoke(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["printed"] = {key: float(match.group(1)) for key, pattern in PRINTED.items()
                         if (match := re.search(pattern, proc.stdout))}
    return result


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def versions() -> dict:
    code = ("import numpy, scipy, sys; "
            "print(sys.version.split()[0], numpy.__version__, scipy.__version__)")
    out = subprocess.run([sys.executable, "-c", code], env=bench.child_env(),
                         capture_output=True, text=True, check=True).stdout.split()
    return {"python": out[0], "numpy": out[1], "scipy": out[2]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = {}
    for workload in WORKLOADS:
        runs = [invoke(workload, seed, seconds, 0) for seed in SEEDS]
        traced = invoke(workload, SEEDS[0], seconds, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        entry = {
            "failed_frac": failed / attempted, "attempted": attempted,
            # samples behind each run's medians; a traced run traces every
            # second sample, and setup_s adds SETUP_PROBES probes
            "samples_per_run": [r["attempted"] for r in runs],
            "traced_samples": traced["attempted"] // 2,
            # noise on a shared host, not a directional figure: see README
            "trace_overhead_s": traced["printed"]["trace_overhead_s"],
            "end_to_end": {},
            # the same runs' medians of plain wall time, before scaling to the
            # reference speed: they show the host's drift
            "unscaled": {key: spread([r["printed"][f"unscaled_{key}"] for r in runs])
                         for key in ("setup_s", "run_s")},
            "per_layer": traced["metrics"]}
        print(f"{workload}: {len(runs)} seeds x {seconds} s, failed_frac "
              f"{failed / attempted!r} ratio ({failed}/{attempted}), samples per run "
              f"{entry['samples_per_run']}, traced samples {entry['traced_samples']}")
        for metric in spec["end_to_end"]:
            stats = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            entry["end_to_end"][metric["name"]] = stats
            print(f"  {metric['name']:<12} median {stats['median']:.6g} {metric['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread "
                  f"{stats['spread']:.4f} (bound/3 {metric['bound'] / 3:.4f})"
                  f"  values {[round(v, 4) for v in stats['values']]}")
        for key, stats in entry["unscaled"].items():
            print(f"  {key + ' unscaled':<12} median {stats['median']:.6g} s  spread "
                  f"{stats['spread']:.4f}")
        for name, metric in traced["metrics"].items():
            print(f"    {name:<30} {metric['value']!r} {metric['unit']}")
        print(f"    {'tracing overhead':<30} {entry['trace_overhead_s']!r} s (noise, not a metric)")
        results[workload] = entry

    if args.record:
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        record = {
            "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                        **versions()},
            "threads": {var: str(bench.THREADS) for var in bench.THREAD_VARS},
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            "workloads": {name: {"subcommand": WORKLOADS[name].subcommand,
                                 "why": whys[name],
                                 "expected_counts": WORKLOADS[name].expected,
                                 "config_seed_1": config_for(name, 1)}
                          for name in WORKLOADS},
            "results": results,
        }
        BASELINE.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
