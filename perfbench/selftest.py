"""Fast self-test of the harness logic; runs in a few seconds.

    python3 perfbench/selftest.py

Covers span self-time arithmetic, the choice of the tail percentile, the
failed_frac outcome classes, the scaling of times to the reference speed,
seeded inputs, the output gate, that every declared per-layer metric is
produced, that the wrappers still find every porodrift name they trace, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest

import run as bench
import speed
import tracing
import workloads


def span(name, start, end, parent=-1, error=None):
    return [name, start, end, parent, error]


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        span("cli.dispatch", 0.0, 10.0),
        span("micro.run", 1.0, 4.0, 0),
        span("transport.step", 2.0, 3.0, 1),
        span("cli.snapshot", 5.0, 6.0, 0),
    ]

    def test_self_time_is_span_minus_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [6.0, 2.0, 1.0, 1.0])

    def test_layer_self_times_add_up_to_the_root(self):
        metrics = tracing.layer_metrics(self.SPANS, {})
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertEqual(layer_sum, metrics["trace.run_s"])
        self.assertEqual(metrics["cli.self_s"], 7.0)
        self.assertEqual(metrics["transport.step_s"], 1.0)

    def test_nested_spans_of_one_name_are_busy_once(self):
        spans = [span("geometry.charges", 0.0, 4.0), span("geometry.charges", 1.0, 2.0, 0)]
        self.assertEqual(tracing.layer_metrics(spans, {})["geometry.charges_s"], 4.0)

    def test_rejected_steps_are_counted(self):
        spans = [span("transport.step", 0.0, 1.0, error="_StepRejected"),
                 span("transport.step", 1.0, 2.0)]
        metrics = tracing.layer_metrics(spans, {})
        self.assertEqual(metrics["transport.rejections"], 1)
        self.assertEqual(metrics["transport.step_accept_ratio"], 0.5)

    def test_wrapper_records_parent_and_error(self):
        tracer = tracing.Tracer()

        def fail():
            raise ValueError("boom")

        inner = tracer.wrap(fail, "b.inner")
        outer = tracer.wrap(lambda: inner(), "a.outer")
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual([s[tracing.SPAN_PARENT] for s in tracer.spans], [-1, 0])
        self.assertEqual([s[tracing.SPAN_ERROR] for s in tracer.spans],
                         ["ValueError", "ValueError"])


class StatisticsTest(unittest.TestCase):
    def test_tail_rank_leaves_ten_samples_beyond(self):
        self.assertIsNone(bench.tail_rank(10))
        self.assertEqual(bench.tail_rank(11), 0)
        self.assertEqual(bench.tail_rank(20), 9)
        self.assertEqual(bench.tail_rank(110), 99)

    def test_tail_percentile(self):
        self.assertIsNone(bench.tail_percentile([1.0] * 10))
        self.assertEqual(bench.tail_percentile([float(i) for i in range(20, 0, -1)]),
                         (50.0, 10.0))

    def test_failed_frac_counts_each_failure_class(self):
        ok = {"status": 0, "gate": [], "report_sha256": "a"}
        outcomes = [
            bench.classify(0, ok, "a"),
            bench.classify(1, None),
            bench.classify(0, None),
            bench.classify(0, dict(ok, status=1)),
            bench.classify(0, dict(ok, gate=["min_c -1 < -1e-12"])),
            bench.classify(0, dict(ok, report_sha256="b"), "a"),
        ]
        self.assertEqual(outcomes, ["ok", "raised", "raised", "exit_status", "gate",
                                    "nondeterministic"])
        self.assertEqual(bench.failed_frac(outcomes), 5 / 6)

    def test_times_are_scaled_and_memory_is_not(self):
        probes = [{"setup_s": 1.0, "setup_scale": 0.5}] * 3
        samples = [{"setup_s": 2.0, "setup_scale": 0.5, "run_s": r, "run_scale": 2.0,
                    "rss_mb": 100.0, "traced": 0} for r in (1.0, 3.0)]
        self.assertEqual(bench.metrics_for(0, samples, probes),
                         {"setup_s": 0.5, "run_s": 4.0, "peak_rss_mb": 100.0})

    def test_speed_probe_runs_during_a_block_and_scales(self):
        probe = speed.SpeedProbe()
        with probe:
            deadline = time.perf_counter() + 3 * speed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(probe.times), 4)
        self.assertGreater(probe.spent, 0.0)
        self.assertAlmostEqual(probe.scale([speed.REF_S / 2] * 2 + [speed.REF_S * 5]), 2.0)


class WorkloadTest(unittest.TestCase):
    def test_seed_changes_only_data_expressions(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.config_for(name, 1), workloads.config_for(name, 2)
            self.assertEqual(a, workloads.config_for(name, 1))
            self.assertNotEqual(a["surface_charge"]["xi1"], b["surface_charge"]["xi1"])
            for config in (a, b):
                for species in config["species"]:
                    species["c0"] = None
                config["surface_charge"]["xi1"] = None
            self.assertEqual(a, b)

    def _gate(self, name, report, status=0):
        out = bench.WORK_DIR / "selftest"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps(report))
        return workloads.check_outputs(name, out, status)

    def test_micro_gate(self):
        summary = {"max_mass_drift_rel": 0.0, "max_compat_residual": 1e-16,
                   "max_energy_increase_rel": 0.0, "min_c": 0.5, "steps": 10,
                   "rejections": 0}
        self.assertEqual(self._gate("micro_canonical", {"summary": summary}), [])
        bad = dict(summary, max_mass_drift_rel=1e-6, min_c="nan", rejections=1)
        self.assertEqual(len(self._gate("micro_canonical", {"summary": bad})), 3)

    def test_converge_gate(self):
        self.assertEqual(self._gate("converge", {"conc_errors": {"a": [0.2, 0.1]}}), [])
        self.assertEqual(len(self._gate("converge", {"conc_errors": {"a": [0.2, "nan"]}},
                                        status=1)), 2)


class DeclarationTest(unittest.TestCase):
    def test_every_declared_per_layer_metric_is_produced(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        produced = set(tracing.layer_metrics([], {}))
        produced |= {"cli.import_s", "cli.write_bytes"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, produced)

    def test_traced_names_exist_and_count_a_tiny_run(self):
        sys.path.insert(0, str(bench.SRC))
        import porodrift.cli
        import porodrift.config
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        config = workloads.config_for("micro_canonical", 3)
        config["geometry"]["m"] = 2
        config["scaling"]["T"] = 0.02
        config["output"]["snapshot_times"] = [0.02]
        out = bench.WORK_DIR / "selftest_run"
        shutil.rmtree(out, ignore_errors=True)
        parsed = porodrift.config.parse_and_validate(config)
        self.assertEqual(porodrift.cli.dispatch("micro", parsed, out_dir=out), 0)
        metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
        self.assertEqual(metrics["transport.step_count"], 2)
        self.assertEqual(metrics["transport.lu_factor_count"], 4)
        self.assertEqual(metrics["linalg.poisson_factor_count"], 1)
        self.assertGreaterEqual(metrics["linalg.poisson_backsolves"],
                                metrics["linalg.poisson_solve_count"])
        self.assertGreater(metrics["cli.snapshot_s"], 0.0)


class RefusalTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = bench.WORK_DIR / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(bench.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "converge",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
