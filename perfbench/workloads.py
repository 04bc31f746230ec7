"""The two closed-loop serving workloads and their inputs.

Every step sends one ``solve_delta`` write to a ``keep_artifacts=True``
service, waits for its schedule, then sends ``READS`` reads of the same
snapshot, followers polling the schedule from cache.  There is one
client: each caller of a scheduling service waits for its schedule, and
on 2 usable CPUs with a solver bound by the interpreter lock a second
client would only queue.  Requests carry the serving default knobs,
``SolveKnobs()`` (incremental engine, Luby oracle, epsilon 0.1), with the
oracle seed taken from the workload seed.

* ``churn-trees`` -- ``tenant-churn`` trajectories at size 200.  Writes
  take the delta and journal path, and layout is the largest part of
  them; reads are almost all fingerprinting.
* ``churn-lines`` -- ``churn-lines`` trajectories at size 100, where
  writes are bound by the first phase and do little layout.

Between them the two reach every traced layer, tree and line layout
included.  A third workload of cold ``multi-tenant-forest`` writes is
left out: the shared host's speed drifts by about 17% either way over
windows of 5 to 30 seconds, and only a timed phase of about 40 seconds
averages that down to a run-to-run spread of about 5%.  Runs that long
fit the time allowed for all runs with two workloads, not with three.

A workload replays trajectories one after another, each for ``DEPTH``
mutations after its base snapshot, with seeds drawn from the workload
seed; each base arrives as a cold write.  One trajectory's write cost is
set by its base problem: across five seeds the median ``churn-lines``
write took from 27 to 57 ms, so a run that replays one trajectory
measures its seed more than the program.  Short trajectories put many
bases into every run.  They are not interleaved, because
``bursty-lines`` bases of one size share their network shapes and hence
their delta key: the service keeps the newest 4 ancestors per key, and
with more trajectories in flight than that, every write found only other
trajectories' snapshots and fell back as ``too-dirty``.

Problems are generated as they are needed, one trajectory at a time,
from endless seeded streams: the same seed gives the same problems
however many a run uses, only a few are in memory at once, and a faster
program never runs out of them.
"""
from __future__ import annotations

import random
from typing import Callable, Iterator

from repro.core.problem import Problem
from repro.service import SchedulingService, SolveKnobs
from repro.workloads import build_trajectory

#: Reads of a write's snapshot that follow each write.
READS = 4
#: Mutations replayed after each trajectory's base snapshot.
DEPTH = 8


def service(metrics=None) -> SchedulingService:
    """A service that keeps solve artifacts, so writes can be deltas."""
    return SchedulingService(keep_artifacts=True, metrics=metrics)


def knobs_for(seed: int) -> SolveKnobs:
    """The serving default knobs, with the oracle seed from the run seed."""
    return SolveKnobs(seed=seed)


def _seeds(tag: str, seed: int) -> Iterator[int]:
    rng = random.Random(f"perfbench/{tag}/{seed}")
    while True:
        yield rng.randrange(2**31)


def _churn(trajectory: str, size: int) -> Callable[[int], Iterator[Problem]]:
    """seed -> the problem of set-up's warm-up request, then one problem
    per step, without end."""

    def problems(seed: int) -> Iterator[Problem]:
        seeds = _seeds(trajectory, seed)
        yield build_trajectory(trajectory, size, seed=next(seeds), steps=1)[0].problem
        for s in seeds:
            for snapshot in build_trajectory(trajectory, size, seed=s, steps=DEPTH + 1):
                yield snapshot.problem

    return problems


WORKLOADS = {
    "churn-trees": _churn("tenant-churn", 200),
    "churn-lines": _churn("churn-lines", 100),
}
