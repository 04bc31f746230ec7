"""E20 -- delta-solve under churn: replaying seeded mutation streams.

Claim reproduced: a delta path makes a scheduling service cheap under
*churn* -- the production regime where the problem mutates
continuously (demands arrive and cancel, bids change, tenants onboard)
and every mutation needs a fresh certified schedule.  A network's
decompositions depend on the network alone (Lemma 4.1), and paths,
decompositions and layerings are memoized on the network objects
(:class:`repro.trees.tree.NetworkMemo`).  A churn snapshot keeps the
earlier snapshots' networks, so the delta path
(:mod:`repro.service.delta`) runs the plain solve on memo-warm
networks: it skips the cold layout, and the answer is *bitwise* the
cold answer because it is the same solve.

The experiment replays the registered churn trajectories
(:mod:`repro.workloads.trajectories`) through a
``SchedulingService(keep_artifacts=True)``, solving every snapshot
both ways -- ``solve_delta`` against the warm service, and ``solve``
of the snapshot rebuilt from scratch against a second, artifact-free
service (both sides pay fingerprinting and cache admission; only the
layout reuse differs) -- and reports per (trajectory, size):

* the outcome mix (warm deltas vs the fallbacks: tenant onboarding
  brings a network the service has never solved on, so those snapshots
  are not warm),
* median delta-solve and median cold-solve latency, and their ratio,
* unasserted, the median latency of a plain (non-delta) solve on a
  third artifact-free service of a fresh problem over the delta side's
  own network and demand objects -- the same memo-warm solve through
  ``solve`` instead of ``solve_delta``,
* correctness: **every** snapshot's delta result is digest-identical
  (:func:`repro.service.report_semantic_digest`) to its cold solve --
  asserted, not sampled.

Acceptance (asserted at the largest replay size of each
ratio-flagged trajectory -- see ``FULL_FAMILIES``): median delta-solve
latency <= 0.5x median cold-solve latency.  ``--quick`` runs the
CI-sized replay; ``--json OUT`` emits findings JSON.

**Cold means cold.**  Paths, decompositions and layerings are memoized
on the network objects (:class:`repro.trees.tree.NetworkMemo`), and a
trajectory's snapshots share theirs, so a plain solve of a snapshot
the delta side already served reuses all of its layout work.  The cold
baseline therefore rebuilds every snapshot from scratch, the way a
wire request does (trajectories are prefix-stable), and the plain
column shows the memo-assisted non-delta solve next to it.  A problem
caches its own expansion and fingerprint, so the plain column solves
a new problem shell: network and demand memos are as warm as the delta
side's, the per-problem work is paid as the delta side pays it.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import emit_json, parse_bench_args, table

from repro.core.problem import Problem
from repro.service import (
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.workloads import build_trajectory, trajectory_names

#: (trajectory, sizes, steps, assert_ratio) replay plans.  The latency
#: acceptance is asserted at each flagged trajectory's largest size,
#: where the per-request costs both sides pay (fingerprint, digest) are
#: best amortized against the layout the delta side skips.  ``churn-lines`` is
#: deliberately *unflagged*: a line layout is cheap (critical slots per
#: endpoint pair, Section 7), so a line snapshot's solve is mostly the
#: first phase, which a delta request runs in full -- the table reports
#: that honest ~1.0x rather than hiding the family.  Digest identity is
#: still asserted on every snapshot of every family.
FULL_FAMILIES = (
    ("tenant-churn", (32, 64, 96), 20, True),
    ("capacity-steps", (48, 96, 128), 16, True),
    ("churn-lines", (24, 48), 16, False),
)
QUICK_FAMILIES = (
    ("tenant-churn", (64,), 10, True),
    ("churn-lines", (24,), 8, False),
)
STREAM_SEED = 20
#: Required median delta / median cold latency ratio at the largest
#: size (i.e. delta must be at least 2x cheaper than solving cold).
MAX_DELTA_RATIO = 0.5
#: Solve knobs of every snapshot: the incremental engine with the
#: deterministic oracle, so delta and cold runs are comparable.
KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def _median(values):
    if not values:
        return float("nan")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _replay(name: str, size: int, steps: int):
    """Replay one trajectory; returns the per-size measurement dict."""
    service = SchedulingService(keep_artifacts=True, disk_dir=None, workers=2)
    baseline = SchedulingService(
        keep_artifacts=False, disk_dir=None, workers=2
    )
    plain = SchedulingService(keep_artifacts=False, disk_dir=None, workers=2)
    knobs = SolveKnobs(**KNOBS)
    trajectory = build_trajectory(name, size, seed=STREAM_SEED, steps=steps)
    delta_lat, cold_lat, plain_lat = [], [], []
    outcomes = {}
    for step in trajectory:
        request = SolveRequest(
            problem=step.problem, knobs=knobs,
            label=f"{name}@{size}+{step.index}",
        )
        if step.index == 0:
            service.solve(request)  # its networks are every delta's
        else:
            result = service.solve_delta(request)
            delta_lat.append(result.latency_s)
            if result.delta is None:
                # Churn walked back to an already-served state (e.g. an
                # add undone by a drop): an exact fingerprint hit, the
                # one outcome cheaper than a warm delta.
                outcomes["hit"] = outcomes.get("hit", 0) + 1
            else:
                outcome = result.delta.outcome
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # The cold baseline: the snapshot rebuilt from scratch, so no
        # fingerprint, path or layout memo carries over, against a
        # service whose only fast path is an exact cache hit (a churn
        # revert) -- those hits are excluded from the cold median.
        rebuilt = build_trajectory(
            name, size, seed=STREAM_SEED, steps=step.index + 1
        )[step.index].problem
        cold = baseline.solve(
            SolveRequest(problem=rebuilt, knobs=knobs, label=request.label)
        )
        if step.index > 0 and cold.status == "miss":
            cold_lat.append(cold.latency_s)
        # The plain column: a new problem over the delta side's own
        # network and demand objects, whose memos are warm.
        p = step.problem
        shell = Problem(p.networks, p.demands, p.access)
        warm_plain = plain.solve(
            SolveRequest(problem=shell, knobs=knobs, label=request.label)
        )
        if step.index > 0 and warm_plain.status == "miss":
            plain_lat.append(warm_plain.latency_s)
        served = service.solve(request).report
        assert report_semantic_digest(served) == report_semantic_digest(
            cold.report
        ), (
            f"{request.label} ({step.kind}): delta result diverged "
            "from the cold solve"
        )
    return {
        "trajectory": name,
        "size": size,
        "snapshots": len(trajectory),
        "outcomes": outcomes,
        "warm": outcomes.get("warm", 0),
        "median_delta_ms": _median(delta_lat) * 1e3,
        "median_cold_ms": _median(cold_lat) * 1e3,
        "median_plain_ms": _median(plain_lat) * 1e3,
        "ratio": _median(delta_lat) / _median(cold_lat),
        "service_stats": service.stats,
    }


def run_experiment(quick: bool = False):
    families = QUICK_FAMILIES if quick else FULL_FAMILIES
    assert set(n for n, _, _, _ in families) <= set(trajectory_names())
    rows, measurements = [], []
    for name, sizes, steps, assert_ratio in families:
        for size in sizes:
            m = _replay(name, size, steps)
            measurements.append(m)
            if assert_ratio and size == max(sizes):
                assert m["ratio"] <= MAX_DELTA_RATIO, (
                    f"{name}@{size}: median delta solve "
                    f"({m['median_delta_ms']:.1f}ms) must be <= "
                    f"{MAX_DELTA_RATIO}x the median cold solve "
                    f"({m['median_cold_ms']:.1f}ms), got {m['ratio']:.2f}x"
                )
            assert m["warm"] > 0, (
                f"{name}@{size}: a churn replay must produce warm solves"
            )
            hits = m["outcomes"].get("hit", 0)
            rows.append(
                [
                    name,
                    size,
                    m["snapshots"],
                    m["warm"],
                    hits,
                    m["snapshots"] - 1 - m["warm"] - hits,
                    f"{m['median_cold_ms']:.1f}",
                    f"{m['median_plain_ms']:.1f}",
                    f"{m['median_delta_ms']:.1f}",
                    f"{m['ratio']:.2f}x",
                ]
            )
    findings = {
        "quick": quick,
        "stream_seed": STREAM_SEED,
        "max_delta_ratio": MAX_DELTA_RATIO,
        "families": [
            {k: v for k, v in m.items() if k != "service_stats"}
            for m in measurements
        ],
        "service_stats_last": measurements[-1]["service_stats"],
    }
    out = table(
        [
            "trajectory", "size", "snaps", "warm", "hit", "fallback",
            "cold ms", "plain ms", "delta ms", "ratio",
        ],
        rows,
    )
    return "E20 - Delta-solve under churn (mutation-stream replay)", out, findings


def bench_e20_churn_replay_quick(benchmark):
    name, sizes, steps, _ = QUICK_FAMILIES[0]

    def replay():
        return _replay(name, sizes[0], steps)

    m = benchmark(replay)
    assert m["warm"] > 0


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    for m in findings["families"]:
        print(
            f"{m['trajectory']}@{m['size']}: {m['warm']}/{m['snapshots'] - 1} "
            f"warm, median delta {m['median_delta_ms']:.1f}ms vs cold "
            f"{m['median_cold_ms']:.1f}ms ({m['ratio']:.2f}x; plain "
            f"{m['median_plain_ms']:.1f}ms)"
        )
    emit_json(json_path, "e20", title, findings)
