"""porodrift benchmark: one workload, closed loop, one fresh process per sample.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  The loop first starts ``SETUP_PROBES`` processes that only import
the package and validate the config, then runs whole samples one after the
other until ``--seconds`` have passed (at least ``MIN_SAMPLES``).  Each
sample is a child process that runs the workload through
``porodrift.cli.dispatch`` and checks its outputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with tracing
off.  Their times are scaled to a reference speed by the speed probe each
child runs in its own process (``speed.py``): on a shared host the speed of
a core drifts by tens of percent over seconds to minutes, and the scaled
times follow the program, not the drift.  ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics of the traced ones, and
prints the tracing overhead (the traced median run_s minus the untraced one,
both unscaled).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_SAMPLES = 3          # a true median; the replay check needs two
HARD_LIMIT_S = 165.0     # no sample may run past this point of a run

# Everything runs in one thread of one process: pin every BLAS/OpenMP pool to
# one thread, which never exceeds nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def classify(returncode, result, reference_sha=None) -> str:
    """Outcome of one sample: ok, raised, exit_status, gate or nondeterministic."""
    if returncode != 0 or result is None:
        return "raised"
    if result["status"] != 0:
        return "exit_status"
    if result["gate"]:
        return "gate"
    if reference_sha is not None and result["report_sha256"] != reference_sha:
        return "nondeterministic"
    return "ok"


def failed_frac(outcomes) -> float:
    return sum(1 for o in outcomes if o != "ok") / len(outcomes)


def tail_rank(n: int):
    """Index into the sorted samples of the highest percentile with >= 10 samples above it."""
    return n - 11 if n >= 11 else None


def tail_percentile(values):
    """(percentile, value) for ``tail_rank``, or None with fewer than 11 samples."""
    rank = tail_rank(len(values))
    if rank is None:
        return None
    return 100.0 * (rank + 1) / len(values), sorted(values)[rank]


def spawn(workload, seed, run_dir, trace, setup_only, deadline):
    """One child process; returns (returncode, result dict or None)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    command = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
               "--seed", str(seed), "--run-dir", str(run_dir), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"sample timed out ({workload}, trace={trace})", file=sys.stderr)
        return -1, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, result


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def run(workload, seed, seconds, trace):
    """Closed loop over one workload; returns (outcomes, ok results, set-up probes)."""
    shutil.rmtree(WORK_DIR / workload, ignore_errors=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes = []
    for _ in range(SETUP_PROBES):
        code, result = spawn(workload, seed, WORK_DIR / workload / "probe", 0, True, deadline)
        if result is None:
            raise SystemExit(f"set-up probe failed with exit code {code}")
        if not Path(result["package"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"porodrift was imported from {result['package']}, not {SRC}")
        probes.append(result)

    outcomes, results = [], []
    reference_sha = None
    longest = 0.0
    while len(outcomes) < MIN_SAMPLES or time.monotonic() - start < seconds:
        if time.monotonic() + longest > deadline:
            break
        traced = int(trace and len(outcomes) % 2 == 1)
        began = time.monotonic()
        code, result = spawn(workload, seed, WORK_DIR / workload / "sample", traced, False,
                             deadline)
        longest = max(longest, time.monotonic() - began)
        outcome = classify(code, result, reference_sha)
        if outcome == "ok" and reference_sha is None:
            reference_sha = result["report_sha256"]
        if outcome != "ok":
            detail = result["gate"] if outcome == "gate" else ""
            print(f"sample {len(outcomes)} failed: {outcome} {detail}", file=sys.stderr)
        outcomes.append(outcome)
        if outcome == "ok":
            result["traced"] = traced
            results.append(result)
            if traced:
                shutil.copyfile(WORK_DIR / workload / "sample" / "spans.json",
                                WORK_DIR / workload / "spans.json")
        if code == -1:
            break
    return outcomes, results, probes


def scaled_median(results, key, scale):
    return statistics.median(r[key] * r[scale] for r in results)


def metrics_for(trace, results, probes) -> dict:
    untraced = [r for r in results if not r["traced"]]
    if not untraced:
        return {}
    if not trace:
        return {
            "setup_s": scaled_median(probes + untraced, "setup_s", "setup_scale"),
            "run_s": scaled_median(untraced, "run_s", "run_scale"),
            "peak_rss_mb": median_of(untraced, "rss_mb"),
        }
    traced = [r["layers"] for r in results if r["traced"]]
    if not traced:
        return {}
    return {name: statistics.median(layer[name] for layer in traced) for name in traced[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "porodrift" / "__init__.py").is_file():
        print(f"no porodrift sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    outcomes, results, probes = run(args.workload, args.seed, args.seconds, args.trace)
    values = metrics_for(args.trace, results, probes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"no successful sample to measure {missing}", file=sys.stderr)
        return 1

    failed = sum(1 for o in outcomes if o != "ok")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} samples, {len(probes)} set-up probes")
    print(f"  failed_frac = {failed_frac(outcomes)!r} ratio ({failed}/{len(outcomes)}: "
          f"{', '.join(sorted(set(outcomes)))})")
    run_times = [r["run_s"] for r in results if not r["traced"]]
    print(f"  run_s samples = {[round(t, 4) for t in run_times]}")
    untraced = [r for r in results if not r["traced"]]
    print(f"  unscaled medians: setup_s {median_of(probes + untraced, 'setup_s')!r} s, "
          f"run_s {statistics.median(run_times)!r} s; median scale set-up "
          f"{median_of(probes + untraced, 'setup_scale')!r}, run "
          f"{median_of(untraced, 'run_scale')!r} over "
          f"{median_of(untraced, 'run_kernels')!r} kernels a sample")
    tail = tail_percentile(run_times)
    print("  run_s tail = " + (f"p{tail[0]:.0f} {tail[1]!r} s" if tail else
                                f"n/a (fewer than 11 untraced samples: {len(run_times)})"))
    if args.trace:
        # printed, not declared: on a shared host it sits below the
        # sample-to-sample noise and changes sign from run to run
        print(f"  tracing overhead = {values['trace.run_s'] - statistics.median(run_times)!r} s"
              " (traced minus untraced median run_s)")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']} = {value!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
