"""Per-layer tracing from outside the package.

``instrument`` replaces public functions and class methods of the porodrift
modules with wrappers that record one span per call: name, start, end and
the index of the enclosing span.  Names imported with ``from .x import f``
are bound in the importing module, so each is wrapped in the namespace of
the module that calls it; the span name says which layer the call belongs
to.  Spans stay in memory; ``layer_metrics`` reduces them when the sample
ends.  Everything runs in one thread, so spans nest strictly and a span's
self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

ROOT_SPAN = "cli.dispatch"

# Top-level layers: the package modules whose self time splits run_s.
LAYERS = ("cli", "geometry", "cell_problem", "linalg", "transport", "micro",
          "macro", "diagnostics", "verification")

# Metric name -> span name whose busy time (outermost spans only) it reports.
BUSY_METRICS = {
    "config.parse_s": "config.parse",
    "geometry.build_s": "geometry.build",
    "geometry.charges_s": "geometry.charges",
    "linalg.poisson_factor_s": "linalg.poisson_factor",
    "linalg.poisson_solve_s": "linalg.poisson_solve",
    "transport.step_s": "transport.step",
    "transport.lu_factor_s": "transport.lu_factor",
    "transport.assemble_s": "transport.assemble",
    "transport.dt_limit_s": "transport.dt_limit",
    "micro.run_s": "micro.run",
    "macro.run_s": "macro.run",
    "macro.init_s": "macro.init",
    "verification.compare_s": "verification.compare",
    "diagnostics.energy_s": "diagnostics.energy",
    "diagnostics.record_s": "diagnostics.record",
    "cli.write_s": "cli.write",
    "cli.snapshot_s": "cli.snapshot",
    "cell_problem.solve_s": "cell_problem.solve",
}

# Metric name -> span name whose number of calls it reports.
COUNT_METRICS = {
    "linalg.poisson_factor_count": "linalg.poisson_factor",
    "linalg.poisson_solve_count": "linalg.poisson_solve",
    "transport.step_count": "transport.step",
    "transport.lu_factor_count": "transport.lu_factor",
    "diagnostics.energy_count": "diagnostics.energy",
}

# Counters the wrappers add to; reported as they stand.
COUNTER_METRICS = ("geometry.n_fluid", "linalg.poisson_lu_nnz", "linalg.poisson_backsolves",
                   "transport.lu_nnz", "cell_problem.cg_iterations")

# SuperLU stores one float64 value and one int32 row index per nonzero.
BYTES_PER_LU_NONZERO = 12

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_ERROR = range(5)


class Tracer:
    """In-memory span recorder: ``spans`` rows are [name, start, end, parent, error]."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._open = []

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording a span per call; ``on_result(tracer, args, result)`` runs after it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, tracer._open[-1] if tracer._open else -1, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[SPAN_ERROR] = type(exc).__name__
                raise
            finally:
                span[SPAN_END] = perf_counter()
                tracer._open.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced


class _CountingLU:
    """Stands in for a SuperLU object and counts its back-substitutions."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs):
        self._tracer.counters["linalg.poisson_backsolves"] += 1
        return self._lu.solve(rhs)


def _count_fluid(tracer, args, grid):
    tracer.counters["geometry.n_fluid"] += grid.n_fluid


def _count_transport_lu(tracer, args, lu):
    tracer.counters["transport.lu_nnz"] += lu.nnz


def _count_poisson_lu(tracer, args, result):
    direct = args[0]
    tracer.counters["linalg.poisson_lu_nnz"] += direct._lu.nnz
    direct._lu = _CountingLU(direct._lu, tracer)


def _count_cg(tracer, args, tensor):
    tracer.counters["cell_problem.cg_iterations"] += sum(c.iterations for c in tensor.correctors)


# (module, attribute, span name, on_result): module-level names, wrapped where called
FUNCTIONS = (
    ("config", "parse_and_validate", "config.parse", None),
    ("config", "build_cell_geometry", "geometry.build", None),
    ("config", "build_masked_grid", "geometry.build", _count_fluid),
    ("config", "surface_charge_on_facets", "geometry.charges", None),
    ("config", "validate_compatibility", "geometry.charges", None),
    ("config", "balance_outer_charges", "geometry.charges", None),
    ("cli", "dispatch", ROOT_SPAN, None),
    ("cli", "build_cell_geometry", "geometry.build", None),
    ("cli", "build_masked_grid", "geometry.build", _count_fluid),
    ("cli", "compute_effective_tensor", "cell_problem.solve", _count_cg),
    ("cli", "run_micro", "micro.run", None),
    ("cli", "run_convergence_study", "verification.study", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "_write_snapshot", "cli.snapshot", None),
    ("cli", "_sha256", "cli.write", None),
    ("verification", "compute_effective_tensor", "cell_problem.solve", _count_cg),
    ("verification", "build_cell_geometry", "geometry.build", None),
    ("verification", "build_masked_grid", "geometry.build", _count_fluid),
    ("verification", "surface_charge_on_facets", "geometry.charges", None),
    ("verification", "balance_outer_charges", "geometry.charges", None),
    ("verification", "validate_compatibility", "geometry.charges", None),
    ("verification", "build_macro_source", "macro.source", None),
    ("verification", "run_macro", "macro.run", None),
    ("verification", "run_micro", "micro.run", None),
    ("verification", "sample_macro_field", "verification.compare", None),
    ("verification", "reconstruct_corrector_potential", "verification.compare", None),
    ("transport", "splu", "transport.lu_factor", _count_transport_lu),
    ("transport", "face_laplacian", "transport.assemble", None),
    ("transport", "energy_value", "diagnostics.energy", None),
)

# (module, class, method, span name, on_result)
METHODS = (
    ("linalg", "ZeroMeanDirect", "__init__", "linalg.poisson_factor", _count_poisson_lu),
    ("linalg", "ZeroMeanDirect", "solve", "linalg.poisson_solve", None),
    ("transport", "TransportSim", "step", "transport.step", None),
    ("transport", "TransportSim", "dt_limit", "transport.dt_limit", None),
    ("transport", "TransportSim", "_implicit_solve", "transport.implicit", None),
    ("transport", "TransportSim", "_record_row", "diagnostics.record", None),
    ("macro", "MacroSimulation", "__init__", "macro.init", None),
    ("diagnostics", "DiagnosticsRecord", "to_csv", "cli.write", None),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced porodrift name in this process so calls record spans in ``tracer``."""
    for module_name, attribute, span_name, on_result in FUNCTIONS:
        module = importlib.import_module(f"porodrift.{module_name}")
        original = getattr(module, attribute)
        setattr(module, attribute, tracer.wrap(original, span_name, on_result))
    for module_name, class_name, method, span_name, on_result in METHODS:
        cls = getattr(importlib.import_module(f"porodrift.{module_name}"), class_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), span_name, on_result))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    result = [span[SPAN_END] - span[SPAN_START] for span in spans]
    for span in spans:
        if span[SPAN_PARENT] >= 0:
            result[span[SPAN_PARENT]] -= span[SPAN_END] - span[SPAN_START]
    return result


def _enclosing(spans, index):
    """Names of the spans enclosing span ``index``, innermost first."""
    parent = spans[index][SPAN_PARENT]
    while parent >= 0:
        yield spans[parent][SPAN_NAME]
        parent = spans[parent][SPAN_PARENT]


def layer_metrics(spans, counters) -> dict:
    """Per-layer busy times, call counts, counters, ratios and self times of one sample."""
    metrics = {}
    busy = Counter({name: 0.0 for name in BUSY_METRICS.values()})
    calls = Counter()
    for index, span in enumerate(spans):
        calls[span[SPAN_NAME]] += 1
        # a name nested in itself (balance_outer_charges calling
        # validate_compatibility) is busy once
        if span[SPAN_NAME] not in _enclosing(spans, index):
            busy[span[SPAN_NAME]] += span[SPAN_END] - span[SPAN_START]
    for metric, name in BUSY_METRICS.items():
        metrics[metric] = busy[name]
    for metric, name in COUNT_METRICS.items():
        metrics[metric] = calls[name]
    for metric in COUNTER_METRICS:
        metrics[metric] = counters.get(metric, 0)
    metrics["linalg.poisson_lu_bytes"] = BYTES_PER_LU_NONZERO * metrics["linalg.poisson_lu_nnz"]
    backsolves = metrics["linalg.poisson_backsolves"]
    metrics["linalg.poisson_useful_ratio"] = (calls["linalg.poisson_solve"] / backsolves
                                              if backsolves else 1.0)
    steps = calls["transport.step"]
    rejected = sum(1 for s in spans
                   if s[SPAN_NAME] == "transport.step" and s[SPAN_ERROR] == "_StepRejected")
    metrics["transport.rejections"] = rejected
    metrics["transport.step_accept_ratio"] = (steps - rejected) / steps if steps else 1.0

    selfs = self_times(spans)
    metrics["transport.implicit_self_s"] = sum(
        t for s, t in zip(spans, selfs) if s[SPAN_NAME] == "transport.implicit")
    layer_self = Counter({layer: 0.0 for layer in LAYERS})
    for index, span in enumerate(spans):
        if span[SPAN_NAME] == ROOT_SPAN or ROOT_SPAN in _enclosing(spans, index):
            layer_self[span[SPAN_NAME].split(".")[0]] += selfs[index]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.run_s"] = busy[ROOT_SPAN]
    return metrics
