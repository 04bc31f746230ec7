"""The names the serving benchmark reaches into the program by.

``perfbench/`` (declared by ``BENCHMARK.json``) measures the serving
path from outside and is changed only together with the benchmark: its
tracer wraps names in the modules that call them
(``tracing.CALL_SITES``) and ``Problem.instances`` as a cached
property, its answer check solves directly with every ``SolveKnobs``
field (``measure.solve_directly``), its ``digest`` layer replaces the
service's ``cache.digest_fn`` on the instance, and it prints one count
per metric the benchmark names, one of them per delta outcome.  A run
fails if any of these breaks, but only a full run notices; these tests
load the two files as they are and check the same names in tier-1.
"""
import functools
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.problem import Problem
from repro.service import (
    DELTA_OUTCOMES,
    SchedulingService,
    SolveKnobs,
    SolveRequest,
)
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


def test_the_digest_layer_sees_every_digest_the_service_computes(tmp_path):
    # The tracer wraps ``service.cache.digest_fn`` on the instance, so
    # the service must look it up there at call time: at admission with
    # a disk tier, and on a memory-only entry's first digest read.
    # A memory-only write digests nothing.
    def digest_spans(service, call):
        tracer = tracing.Tracer()
        with tracer.installed(service):
            result = call()
        return result, sum(span.name == "digest" for span in tracer.spans)

    request = SolveRequest(
        problem=build_workload("multi-tenant-forest", 8, seed=1),
        knobs=SolveKnobs(mis="greedy"),
    )
    memory = SchedulingService(keep_artifacts=True, workers=1)
    assert callable(memory.cache.digest_fn)
    result, spans = digest_spans(memory, lambda: memory.solve_delta(request))
    assert spans == 0
    _, spans = digest_spans(memory, lambda: memory.result_digest(result))
    assert spans == 1
    disk = SchedulingService(
        keep_artifacts=True, workers=1, disk_dir=str(tmp_path)
    )
    _, spans = digest_spans(disk, lambda: disk.solve_delta(request))
    assert spans == 1
