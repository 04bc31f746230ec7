"""E23 -- second-phase admission replay under delta serving.

Claim reproduced: the second phase -- the reversed-stack greedy pop --
splits into *capacity-disjoint components* (no shared path edge, no
shared demand), and popping each component on its own reproduces the
global pop exactly.  With artifacts kept, the admission journal records
each component's signed inputs and selections, so a delta solve replays
every component churn did not touch and re-pops only the dirty ones.
The experiment replays a ``tenant-churn`` trajectory through the
journaled service and reports the admission-component replay fraction.

Acceptance (asserted): the arm produces warm delta solves, every
snapshot is digest-identical to a cold solve, and at least
``MIN_REPLAY_FRACTION`` (0.5) of the admission components replay.
``--quick`` runs the CI-sized trajectory; ``--json OUT`` emits findings
JSON.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import emit_json, parse_bench_args, table

from repro.algorithms import solve_auto
from repro.service import (
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.workloads import build_trajectory

SEED = 23
#: Delta arm: trajectory, size, steps (quick halves the steps).
DELTA_PLAN = ("tenant-churn", 64, 12)
#: Required admission-component replay fraction across the delta arm's
#: warm solves (churn touches a few components; the rest must replay).
MIN_REPLAY_FRACTION = 0.5
KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def _delta_arm(steps: int):
    """Replay churn through the journaled service; returns the
    admission replay measurement (digest identity asserted per step)."""
    name, size, _ = DELTA_PLAN
    service = SchedulingService(keep_artifacts=True, disk_dir=None, workers=2)
    knobs = SolveKnobs(**KNOBS)
    warm = 0
    for step in build_trajectory(name, size, seed=SEED, steps=steps):
        request = SolveRequest(
            problem=step.problem, knobs=knobs, label=f"{name}@{size}+{step.index}"
        )
        if step.index == 0:
            service.solve(request)
            continue
        result = service.solve_delta(request)
        if result.delta is not None and result.delta.outcome == "warm":
            warm += 1
        cold = solve_auto(step.problem, seed=knobs.seed, **KNOBS)
        assert report_semantic_digest(result.report) == report_semantic_digest(
            cold
        ), f"{request.label} ({step.kind}): delta diverged from the cold solve"
    totals = service.stats["delta_totals"]
    components = totals["admission_components"]
    replayed = totals["admission_replayed"]
    fraction = (replayed / components) if components else 0.0
    return {
        "trajectory": name,
        "size": size,
        "snapshots": steps,
        "warm": warm,
        "admission_components": components,
        "admission_replayed": replayed,
        "admission_rerun": totals["admission_rerun"],
        "replay_fraction": fraction,
    }


def run_experiment(quick: bool = False):
    delta = _delta_arm(steps=DELTA_PLAN[2] // 2 if quick else DELTA_PLAN[2])
    assert delta["warm"] > 0, "the delta arm must produce warm solves"
    assert delta["replay_fraction"] >= MIN_REPLAY_FRACTION, (
        f"admission replay fraction {delta['replay_fraction']:.2f} fell "
        f"under {MIN_REPLAY_FRACTION} "
        f"({delta['admission_replayed']}/{delta['admission_components']} "
        "components replayed)"
    )
    findings = {
        "quick": quick,
        "seed": SEED,
        "min_replay_fraction": MIN_REPLAY_FRACTION,
        "delta": delta,
    }
    out = table(
        [
            "trajectory", "size", "snapshots", "warm", "components",
            "replayed", "rerun", "replay frac",
        ],
        [[
            delta["trajectory"], delta["size"], delta["snapshots"],
            delta["warm"], delta["admission_components"],
            delta["admission_replayed"], delta["admission_rerun"],
            f"{delta['replay_fraction']:.2f}",
        ]],
    )
    title = "E23 - Second-phase admission replay (delta serving)"
    return title, out, findings


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    delta = findings["delta"]
    print(
        f"{delta['trajectory']}@{delta['size']}: "
        f"{delta['admission_replayed']}/{delta['admission_components']} "
        f"admission components replayed "
        f"(fraction {delta['replay_fraction']:.2f}, floor "
        f"{MIN_REPLAY_FRACTION})"
    )
    emit_json(json_path, "e23", title, findings)
