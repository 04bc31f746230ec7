"""The names the serving benchmark reaches into the program by.

``perfbench/`` (declared by ``BENCHMARK.json``) measures the serving
path from outside and is changed only together with the benchmark: its
tracer wraps names in the modules that call them
(``tracing.CALL_SITES``) and ``Problem.instances`` as a cached
property, its answer check solves directly with every ``SolveKnobs``
field (``measure.solve_directly``), and it prints one count per metric
the benchmark names, one of them per delta outcome.  A run fails if
any of these breaks, but only a full run notices; these tests load the
two files as they are and check the same names in tier-1.
"""
import functools
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.problem import Problem
from repro.service import DELTA_OUTCOMES, SolveKnobs
from repro.workloads import build_workload

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The outcomes whose ``delta.<outcome>`` counts the benchmark names.
NAMED_OUTCOMES = (
    "warm", "ancestor-miss", "network-change", "too-dirty", "engine-fallback",
)


def load(name):
    """``perfbench/<name>.py`` as a module, unedited."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
measure = load("measure")


@pytest.mark.parametrize("module, attribute, layer", tracing.CALL_SITES)
def test_every_call_site_resolves(module, attribute, layer):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_problem_instances_is_a_cached_property():
    assert isinstance(Problem.__dict__["instances"], functools.cached_property)


def test_solve_directly_runs():
    problem = build_workload("multi-tenant-forest", 8, seed=1)
    report = measure.solve_directly(problem, SolveKnobs())
    assert report.solution.is_feasible()


def test_every_named_delta_outcome_is_listed():
    counts = {
        m["name"] for m in BENCHMARK["per_layer"]
        if m["unit"] in ("count", "ratio")
    }
    assert {f"delta.{o}" for o in NAMED_OUTCOMES} <= counts
    assert set(NAMED_OUTCOMES) <= set(DELTA_OUTCOMES)
    # The count metrics a run prints are exactly the ones it must.
    assert set(measure.Tally().count_metrics()) == counts
