"""Serving and solving never load the analysis stack.

numpy, scipy and networkx are imported only inside the functions that
call them: :func:`repro.core.lp.lp_upper_bound` (scipy's HiGHS on a
numpy-built matrix) and :func:`repro.baselines.tree_dp.solve_tree_dp`
(networkx's matching).  Importing them costs a serving process most of
its set-up time and resident memory, although no serving or solve path
calls either function.

The suite itself imports numpy, so each check runs in a child
interpreter whose ``sys.modules`` starts clean.
"""
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.baselines.tree_dp import solve_tree_dp
from repro.core.demand import Demand
from repro.core.lp import lp_upper_bound
from repro.core.problem import Problem
from repro.trees.tree import TreeNetwork

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEAVY = ("networkx", "numpy", "scipy")

#: A unit-height tree whose first three demands conflict pairwise
#: through the star at 0, so the LP (4.0, with 1.5 on them) and the
#: integral optimum (3.5, with 1) differ.
TREE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (2, 6)]
TREE_DEMANDS = [(0, 1, 2, 1.0), (1, 2, 3, 1.0), (2, 1, 3, 1.0),
                (3, 5, 1, 2.0), (4, 6, 2, 0.5)]


def small_tree_problem() -> Problem:
    return Problem(
        networks={0: TreeNetwork(0, TREE_EDGES)},
        demands=[Demand(i, u, v, profit=p) for i, u, v, p in TREE_DEMANDS],
    )


def run_child(code: str) -> dict:
    """Run *code* in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.splitlines()[-1])


SERVE_THEN_ANALYSE = f"""
    import json, sys

    HEAVY = {HEAVY!r}

    def loaded():
        return sorted(m for m in HEAVY if m in sys.modules)

    import repro
    from repro.service import (
        AsyncSchedulingService, SchedulingService, ShardRouter, SolveKnobs,
        SolveRequest, jsonable,
    )
    from repro.workloads import build_trajectory, build_workload, workload_names
    stages = {{"import": loaded()}}

    service = SchedulingService(keep_artifacts=True)
    statuses = []
    for name, size in (("tenant-churn", 200), ("churn-lines", 100)):
        for step in build_trajectory(name, size, seed=1, steps=3):
            request = SolveRequest(step.problem, SolveKnobs(seed=1))
            statuses.append(service.solve_delta(request).status)
            statuses.append(service.solve(request).status)
    for name in workload_names():
        repro.solve_auto(build_workload(name, 12, seed=0))
    json.dumps(jsonable(service.stats))
    stages["serve"] = loaded()

    tree = repro.Problem(
        networks={{0: repro.TreeNetwork(0, {TREE_EDGES!r})}},
        demands=[repro.Demand(i, u, v, profit=p)
                 for i, u, v, p in {TREE_DEMANDS!r}],
    )
    lp = repro.lp_upper_bound(tree)
    stages["lp"] = loaded()
    dp = repro.solve_tree_dp(tree)
    stages["dp"] = loaded()

    namespace = {{}}
    exec("from repro import *", namespace)
    unbound = [n for n in repro.__all__ if n not in namespace]
    print(json.dumps({{"stages": stages, "statuses": statuses, "lp": lp,
                      "dp": dp, "unbound": unbound}}))
"""


@pytest.fixture(scope="module")
def child():
    return run_child(SERVE_THEN_ANALYSE)


class TestServingFootprint:
    def test_serving_and_solving_load_none_of_the_analysis_stack(self, child):
        stages = child["stages"]
        assert stages["import"] == []
        assert stages["serve"] == []
        # Both trajectories were served: each base missed, each later
        # snapshot was a delta write, and each plain solve of the same
        # request hit the cache.
        assert child["statuses"] == ["miss", "hit", "delta", "hit", "delta", "hit"] * 2

    def test_analysis_stack_loads_on_use(self, child):
        stages = child["stages"]
        assert stages["lp"] == ["numpy", "scipy"]
        assert stages["dp"] == ["networkx", "numpy", "scipy"]
        problem = small_tree_problem()
        assert child["lp"] == lp_upper_bound(problem)
        assert child["dp"] == solve_tree_dp(problem)
        assert child["lp"] == pytest.approx(4.0)
        assert child["dp"] == 3.5

    def test_star_import_binds_every_public_name(self, child):
        assert child["unbound"] == []


class TestJsonableLateNumpy:
    def test_numpy_imported_after_the_service_still_unwraps(self):
        got = run_child("""
            import json, sys
            from repro.service import jsonable
            assert "numpy" not in sys.modules, "repro.service loaded numpy"
            import numpy as np
            values = [jsonable(np.int64(7)), jsonable(np.float64(2.5)),
                      jsonable(np.bool_(True))]
            print(json.dumps({"values": values,
                              "types": [type(v).__name__ for v in values]}))
        """)
        assert got["values"] == [7, 2.5, True]
        assert got["types"] == ["int", "float", "bool"]

    def test_a_numpy_module_without_generic_is_ignored(self, monkeypatch):
        # numpy binds `generic` part-way through its own import, so a
        # stats call racing another thread's import finds a module
        # without it; plain values must still encode.
        from repro.service import jsonable

        monkeypatch.setitem(sys.modules, "numpy", type(sys)("numpy"))
        assert jsonable({"n": 7, "x": 2.5, "b": True}) == {
            "n": 7, "x": 2.5, "b": True,
        }
