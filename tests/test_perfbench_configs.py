"""The benchmark's workload configs must parse: the reader may not refuse what it runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from porodrift.config import parse_and_validate

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)  # defines the workloads and their configs; runs nothing
    return module


BENCHMARK = _workloads()


@pytest.mark.parametrize("name", sorted(BENCHMARK.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_config_parses(name, seed):
    parse_and_validate(BENCHMARK.config_for(name, seed))
