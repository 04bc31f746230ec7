"""Hypothesis suite for the service layer's canonical fingerprints.

The cache-key contract of :mod:`repro.service.fingerprint`:

* **Invariance** -- insertion-order shuffles (demand list, networks
  dict, access dict and its tuples) and isomorphic relabelings of
  network ids and demand ids never change the fingerprint;
* **Sensitivity** -- any change to the demands (profit, height,
  window), the accessibility map, or the solve knobs changes it;
* **Soundness plumbing** -- the underlying canonical byte encoding
  distinguishes types exactly (``1`` vs ``1.0`` vs ``True``), orders
  sets/dicts content-wise, and rejects unknown types loudly;
* **Byte identity** -- every digest the service mints from memoized
  component bytes equals ``stable_digest`` of its nested-tuple spec,
  with a cold memo and with one an ancestor snapshot warmed; a few
  digests, and one hash over the whole sweep's digests, are pinned
  outright;
* **Memo hygiene** -- the component and problem memos keep no network
  or demand alive, threads racing on a cold memo agree, and a
  memo-warm problem's digests are the spec's without re-running the
  canonical layout.
"""
import copy
import gc
import pickle
import random
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace
from hashlib import sha256

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.canonical import (
    CanonicalizationError,
    canonical_bytes,
    stable_digest,
)
from repro.core.demand import Demand, WindowDemand
from repro.core.framework import ENGINES
from repro.core.problem import Problem
from repro.service import SchedulingService, SolveRequest
import repro.service.fingerprint as fingerprint_module
from repro.service.delta import delta_key, diff_problems, problem_sketch
from repro.service.fingerprint import (
    _KNOBS_MEMO,
    _SKETCH_MEMO,
    _SOLVE_MEMO,
    SolveKnobs,
    _demand_entry,
    _demand_payload,
    _network_entry,
    _network_payload,
    problem_canonical_form,
    problem_fingerprint,
    solve_fingerprint,
)
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads import (
    build_trajectory,
    build_workload,
    diurnal_line_problem,
    random_line_problem,
    trajectory_names,
    workload_names,
)

COMMON = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Scalable registry workloads cover trees, forests, lines, windows,
#: single-network access and mixed heights in one sweep.
SCALE_NAMES = workload_names(scale=True)

problem_cases = st.tuples(
    st.sampled_from(SCALE_NAMES),
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)


def relabeled(problem: Problem, seed: int) -> Problem:
    """An isomorphic copy: fresh network/demand ids, shuffled orders."""
    rng = random.Random(seed)
    nids = sorted(problem.networks)
    new_ids = rng.sample(range(10_000, 10_000 + 10 * len(nids) + 10), len(nids))
    nmap = dict(zip(nids, new_ids))
    dmap = {
        a.demand_id: 5_000 + i
        for i, a in enumerate(rng.sample(problem.demands, len(problem.demands)))
    }
    networks = {}
    for nid in rng.sample(nids, len(nids)):  # shuffled dict insertion
        edges = [(u, v) for (_n, u, v) in problem.networks[nid].edges()]
        rng.shuffle(edges)  # shuffled edge insertion
        networks[nmap[nid]] = TreeNetwork(nmap[nid], edges)
    demands = [
        replace(a, demand_id=dmap[a.demand_id])
        for a in rng.sample(problem.demands, len(problem.demands))
    ]
    access = {}
    for a in rng.sample(problem.demands, len(problem.demands)):
        nets = [nmap[n] for n in problem.access[a.demand_id]]
        rng.shuffle(nets)
        access[dmap[a.demand_id]] = tuple(nets)
    return Problem(networks=networks, demands=demands, access=access)


#: Non-default knobs for the byte-identity checks.
SPEC_KNOBS = SolveKnobs(seed=3, epsilon=0.2, capacity_epoch=1)


def served_digests(problem: Problem, knobs: SolveKnobs):
    """The four digests as the service computes them (memoized bytes)."""
    return (
        solve_fingerprint(problem, knobs).digest,
        problem_fingerprint(problem).digest,
        problem_sketch(problem),
        delta_key(problem, knobs),
    )


def spec_digests(problem: Problem, knobs: SolveKnobs):
    """The same four digests from their nested-tuple specs: stable_digest
    of the tuples, the sketch's built from unmemoized payloads.

    ``problem_canonical_form`` shares the refinement and record order
    with the byte path, so this checks the byte assembly only; the
    pinned digests below hold the order itself to the original
    encoding."""
    form = problem_canonical_form(problem)
    sketch = stable_digest((
        "sketch/v1",
        tuple(sorted(_network_payload(n) for n in problem.networks.values())),
    ))
    return (
        stable_digest(("solve/v1", form, knobs.canonical_form())),
        stable_digest(form),
        sketch,
        stable_digest(("delta-key/v1", sketch, knobs.canonical_form())),
    )


class TestInvariance:
    @settings(**COMMON)
    @given(case=problem_cases, perm_seed=st.integers(0, 10_000))
    def test_relabeling_and_shuffles_hash_equal(self, case, perm_seed):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        copy = relabeled(problem, perm_seed)
        assert problem_fingerprint(copy) == problem_fingerprint(problem)
        assert served_digests(copy, SPEC_KNOBS) == spec_digests(copy, SPEC_KNOBS)

    @settings(**COMMON)
    @given(case=problem_cases)
    def test_rebuild_is_deterministic(self, case):
        name, size, seed = case
        a = problem_fingerprint(build_workload(name, size, seed=seed))
        b = problem_fingerprint(build_workload(name, size, seed=seed))
        assert a == b

    def test_fixed_scenarios_fingerprint(self):
        for name in workload_names(scale=False):
            p = build_workload(name, 1, seed=0)
            assert problem_fingerprint(p) == problem_fingerprint(
                build_workload(name, 1, seed=0)
            )


class TestSensitivity:
    """Any semantic change must change the fingerprint."""

    @settings(**COMMON)
    @given(case=problem_cases, idx=st.integers(min_value=0, max_value=10**9))
    def test_profit_change_differs(self, case, idx):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        i = idx % len(demands)
        demands[i] = replace(demands[i], profit=demands[i].profit + 0.5)
        mutated = Problem(problem.networks, demands, dict(problem.access))
        assert problem_fingerprint(mutated) != fp

    @settings(**COMMON)
    @given(case=problem_cases, idx=st.integers(min_value=0, max_value=10**9))
    def test_height_change_differs(self, case, idx):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        i = idx % len(demands)
        new_h = 0.35 if demands[i].height > 0.5 else 0.75
        demands[i] = replace(demands[i], height=new_h)
        mutated = Problem(problem.networks, demands, dict(problem.access))
        assert problem_fingerprint(mutated) != fp

    def test_access_change_differs(self):
        problem = build_workload("sparse-access-forest", 18, seed=4)
        fp = problem_fingerprint(problem)
        # Widen one demand's accessibility to every network.
        access = dict(problem.access)
        victim = next(
            a.demand_id for a in problem.demands
            if len(access[a.demand_id]) < len(problem.networks)
        )
        access[victim] = tuple(sorted(problem.networks))
        mutated = Problem(problem.networks, list(problem.demands), access)
        assert problem_fingerprint(mutated) != fp

    def test_window_shift_differs(self):
        problem = diurnal_line_problem(24, 10, seed=3)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        a = demands[0]
        demands[0] = replace(
            a, release=a.release + 1, deadline=min(22, a.deadline + 1)
        )
        assert problem_fingerprint(Problem(problem.networks, demands)) != fp

    def test_network_shape_differs(self):
        p1 = random_line_problem(20, 8, seed=1)
        p2 = Problem(
            networks={0: TreeNetwork(0, [(t, t + 1) for t in range(21)])},
            demands=list(p1.demands),
        )
        assert problem_fingerprint(p1) != problem_fingerprint(p2)

    def test_same_shape_different_wiring_differs(self):
        # Two identical tenant trees; d0/d1 both on net 0 vs spread over
        # both nets.  A lossy multiset-of-records hash would collide.
        from repro.core.demand import Demand

        edges = [(0, 1), (1, 2), (2, 3)]
        nets = {0: TreeNetwork(0, edges), 1: TreeNetwork(1, edges)}
        demands = [Demand(0, 0, 2, profit=1.0), Demand(1, 1, 3, profit=1.0)]
        together = Problem(nets, demands, {0: (0,), 1: (0,)})
        spread = Problem(nets, demands, {0: (0,), 1: (1,)})
        assert problem_fingerprint(together) != problem_fingerprint(spread)


def registry_sweep(name):
    """Registry workload *name* at three sizes, each built fresh."""
    for size, seed in ((6, 0), (24, 1), (80, 2)):
        yield (name, size), build_workload(name, size, seed=seed)


def trajectory_sweep(name):
    """Every snapshot of trajectory *name* at three sizes.  The base
    arrives cold; every later snapshot shares the networks and
    untouched demands its ancestor warmed."""
    for size, seed in ((40, 0), (120, 1), (200, 2)):
        for step in build_trajectory(name, size, seed=seed, steps=24):
            yield (name, size, step.index), step.problem


#: SHA-256 over the four served digests of every problem in the sweep
#: (registry workloads, then trajectories, each in name order), as the
#: nested-tuple encoder minted them.  A change to the refinement or the
#: record order fails here even though the spec comparison, which shares
#: them, still passes.  The tie-break shows only on ties that are not
#: true symmetries; ``refinement_tie`` in ``GOLDEN`` pins it.
SWEEP_HEX = "66fa2bc365c7556097fedcb86a5b0bbd4c247186a34ff6bce0e9ed3cafcab1b5"


class TestByteIdentity:
    """The memoized byte path is the spec's encoding, byte for byte."""

    @pytest.mark.parametrize("name", SCALE_NAMES)
    def test_registry_workloads_match_spec(self, name):
        for label, problem in registry_sweep(name):
            cold = served_digests(problem, SPEC_KNOBS)
            assert cold == spec_digests(problem, SPEC_KNOBS), label
            assert served_digests(problem, SPEC_KNOBS) == cold

    @pytest.mark.parametrize("name", trajectory_names())
    def test_trajectory_snapshots_match_spec(self, name):
        for label, problem in trajectory_sweep(name):
            served = served_digests(problem, SPEC_KNOBS)
            assert served == spec_digests(problem, SPEC_KNOBS), label

    def test_sweep_digests_are_pinned(self):
        digest = sha256()
        sweeps = [registry_sweep(name) for name in SCALE_NAMES]
        sweeps += [trajectory_sweep(name) for name in trajectory_names()]
        for sweep in sweeps:
            for _label, problem in sweep:
                for hexdigest in served_digests(problem, SPEC_KNOBS):
                    digest.update(hexdigest.encode())
        assert digest.hexdigest() == SWEEP_HEX

    def test_component_bytes_match_the_generic_encoder(self):
        # Demands with exact-int fields take the formatted fast path;
        # bools and floats in integer slots fall back to
        # canonical_bytes.  Network bytes are always formatted.
        demands = [
            Demand(0, 1, 4, 2.5, 0.5),
            Demand(1, True, 3, 1, 1),
            Demand(2, 1.0, 3.0, 2.0),
            WindowDemand(3, 0, 5, 2, 1.5, 0.25),
            WindowDemand(4, True, 5, 2, 3),
        ]
        for d in demands:
            assert _demand_entry(d) == (
                _demand_payload(d), canonical_bytes(_demand_payload(d))
            )
        networks = [
            TreeNetwork(0, [(3, 1), (1, 0), (1, 2)]),
            TreeNetwork(1, [], vertices=[5]),
            build_workload("deep-trees", 12, seed=1).networks[0],
        ]
        for net in networks:
            assert _network_entry(net) == (
                _network_payload(net), canonical_bytes(_network_payload(net))
            )

    def test_tuple_equal_payloads_with_different_bytes(self):
        # ``True == 1``: the two demands tie in the record sort but
        # encode differently, so their order must be the spec's.
        line = TreeNetwork(0, [(0, 1), (1, 2), (2, 3)])
        for demands in (
            [Demand(0, 1, 3, 2.0), Demand(1, True, 3, 2.0)],
            [Demand(0, True, 3, 2.0), Demand(1, 1, 3, 2.0)],
        ):
            problem = Problem({0: line}, demands)
            assert served_digests(problem, SPEC_KNOBS) == spec_digests(
                problem, SPEC_KNOBS
            )


def refinement_tie() -> Problem:
    """Six same-shape networks that color refinement cannot tell apart
    (each has two accessors), wired as two triangles that no id-order
    reversal maps onto themselves: the digest pins the tie-break."""
    pairs = [(0, 1), (1, 4), (0, 4), (2, 3), (3, 5), (2, 5)]
    return Problem(
        {n: make_line_network(n, 4) for n in range(6)},
        [Demand(i, 0, 2, 1.0) for i in range(6)],
        dict(enumerate(pairs)),
    )


#: (problem, knobs) -> (solve_fingerprint, delta_key) hex digests, as
#: the nested-tuple encoder minted them.  A change here re-keys every
#: cached result, disk-tier entry and shard placement.
GOLDEN = [
    (
        lambda: build_workload("multi-tenant-forest", 24, seed=7),
        SolveKnobs(),
        "139a7a000150d9acaaa5698960a6290d01e38f7ccf25aeb32bbb5d45bbdcdf3f",
        "13b1260188f610132d821100e96d2ab697c3fdb2783c418ead756345e34b86d6",
    ),
    (
        lambda: build_workload("diurnal-cycle", 16, seed=3),
        SolveKnobs(epsilon=0.25, mis="greedy", seed=5),
        "a2e109851eac98bb0caf6c5bf4997daa3e5a8b23a87c86f9adbc5be9c5557ec9",
        "a58b88e1d0dc742f8ef3a58e8490ee7092b34bd35de9a26829aa9cb3a1459894",
    ),
    (
        lambda: build_workload("figure2", 1, seed=0),
        SolveKnobs(capacity_epoch=2),
        "0a5cd95cb7e3dd6ef2bb1a2b5b749b52e43dc2492fbe897be8ab9aafa4e7b75a",
        "9f803bd128ec819f10b514ff0bb0073ff9ee712ce117d1efaf0909ef3c9c4b13",
    ),
    (
        lambda: build_trajectory("tenant-churn", 40, seed=11, steps=4)[3].problem,
        SolveKnobs(seed=11),
        "ca76c69fbb175866e2935eefab0322f51f954ca424f74dec3096532f88d68635",
        "34152b6e5a2ef26e7f69982d23df5726242193671dcfb769097d8654fe7b4d86",
    ),
    (
        refinement_tie,
        SolveKnobs(),
        "3acb75e747e811e9d3916a9f2de4340ded08dabcffdb7f54869489d8fe0fe5f4",
        "bb10b7d4be15c65bff513da8d7de07d7e3ca65fa00d44b1e30c9e6b461849cc7",
    ),
    (
        lambda: build_workload("bursty-lines", 10, seed=0),
        SolveKnobs(engine="reference"),
        "6d3a6d343418a19846d1fe03c7fe90f232ef8879819fc9c3c0d36ecdf135ca19",
        "f10fa0f7a931b5a4a55701dba6ebbf0d677e359a1d03e159bcc86109fd9d4483",
    ),
]


@pytest.mark.parametrize("make,knobs,solve_hex,delta_hex", GOLDEN)
def test_golden_digests(make, knobs, solve_hex, delta_hex):
    problem = make()
    for _ in range(2):  # cold memo, then warm
        assert solve_fingerprint(problem, knobs).digest == solve_hex
        assert delta_key(problem, knobs) == delta_hex


class TestComponentMemo:
    def test_fingerprinting_keeps_nothing_alive(self):
        problem = build_workload("multi-tenant-forest", 16, seed=4)
        solve_fingerprint(problem, SolveKnobs())
        delta_key(problem, SolveKnobs())
        diff_problems(problem, problem)
        refs = [weakref.ref(net) for net in problem.networks.values()]
        refs += [weakref.ref(d) for d in problem.demands]
        del problem
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_problem_memo_keeps_nothing_alive(self):
        problem = build_workload("multi-tenant-forest", 16, seed=4)
        solve_fingerprint(problem, SolveKnobs())
        memo = [problem.__dict__[_SOLVE_MEMO], problem.__dict__[_SKETCH_MEMO]]
        refs = [weakref.ref(net) for net in problem.networks.values()]
        refs += [weakref.ref(d) for d in problem.demands]
        del problem
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert isinstance(memo[1], str) and memo[0].copy().hexdigest()

    def test_threads_racing_on_a_cold_memo_agree(self):
        # Snapshots of one trajectory share their network objects (and
        # most demands), so eight threads fingerprinting them in
        # different orders race to fill the same memo entries.
        def snapshots():
            return [
                step.problem
                for step in build_trajectory("tenant-churn", 60, seed=5, steps=6)
            ]

        expected = [
            spec_digests(p, SPEC_KNOBS)[0] for p in snapshots()
        ]
        problems = snapshots()  # fresh objects: a cold memo

        def work(t):
            order = list(range(len(problems)))
            random.Random(t).shuffle(order)
            return {
                i: solve_fingerprint(problems[i], SPEC_KNOBS).digest
                for i in order
            }

        for got in race(work):
            assert [got[i] for i in range(len(problems))] == expected

    def test_threads_racing_on_a_cold_problem_memo_agree(self):
        # Every thread keys the same cold problem objects under two
        # knob sets, half of them sketching before fingerprinting.
        problems = [
            build_workload("multi-tenant-forest", 40, seed=2),
            build_trajectory("churn-lines", 60, seed=3, steps=2)[1].problem,
        ]
        knob_sets = (SolveKnobs(), SPEC_KNOBS)
        expected = [
            (spec[0], spec[3])
            for p in problems
            for spec in (spec_digests(p, k) for k in knob_sets)
        ]

        def work(t):
            got = []
            for p in problems:
                for knobs in knob_sets:
                    if t % 2:
                        key = delta_key(p, knobs)
                        got.append((solve_fingerprint(p, knobs).digest, key))
                    else:
                        fp = solve_fingerprint(p, knobs).digest
                        got.append((fp, delta_key(p, knobs)))
            return got

        for got in race(work):
            assert got == expected

    @pytest.mark.parametrize("fingerprint_first", [True, False])
    def test_memo_warm_digests_match_spec(self, fingerprint_first):
        # Fill each problem's memo in one call order under one knob
        # set, then read it under both: every digest stays the spec's.
        knob_sets = (SPEC_KNOBS, SolveKnobs())
        sweeps = [registry_sweep(name) for name in SCALE_NAMES]
        sweeps.append(
            ((name, 1), build_workload(name, 1, seed=0))
            for name in workload_names()
            if name not in SCALE_NAMES
        )
        sweeps += [trajectory_sweep(name) for name in trajectory_names()]
        for sweep in sweeps:
            for label, problem in sweep:
                if fingerprint_first:
                    solve_fingerprint(problem, knob_sets[0])
                delta_key(problem, knob_sets[0])
                solve_fingerprint(problem, knob_sets[0])
                for knobs in knob_sets:
                    spec = spec_digests(problem, knobs)
                    served = solve_fingerprint(problem, knobs).digest
                    assert (served, delta_key(problem, knobs)) == (
                        spec[0], spec[3]
                    ), label

    def test_warm_problem_skips_the_canonical_layout(self, monkeypatch):
        # Deterministic call counts: a problem object is laid out once;
        # a rebuilt equal problem is laid out again.  The sketch reuses
        # the fingerprint's shape ranks, so ``_shape_ranks`` runs only
        # inside the layout, or once for a sketch that comes first.
        calls = Counter()

        def counting(name):
            fn = getattr(fingerprint_module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        for name in ("_canonical_layout", "_shape_ranks"):
            monkeypatch.setattr(fingerprint_module, name, counting(name))

        def build():
            return build_trajectory("tenant-churn", 40, seed=3, steps=2)[1].problem

        problem = build()
        solve_fingerprint(problem, SolveKnobs())
        delta_key(problem, SolveKnobs())
        assert calls == {"_canonical_layout": 1, "_shape_ranks": 1}
        calls.clear()
        for knobs in (SolveKnobs(), SPEC_KNOBS):
            solve_fingerprint(problem, knobs)
            delta_key(problem, knobs)
            SolveRequest(problem=problem, knobs=knobs).fingerprint()
        assert not calls
        rebuilt = build()
        delta_key(rebuilt, SolveKnobs())
        assert calls == {"_shape_ranks": 1}
        solve_fingerprint(rebuilt, SolveKnobs())
        assert calls == {"_canonical_layout": 1, "_shape_ranks": 2}
        assert solve_fingerprint(rebuilt, SPEC_KNOBS) == solve_fingerprint(
            problem, SPEC_KNOBS
        )
        assert calls == {"_canonical_layout": 1, "_shape_ranks": 2}


def race(work, n_threads=8):
    """``work(t)`` for ``t`` in ``range(n_threads)``, on as many threads
    released together with a tiny switch interval; their results."""
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def run(t):
        barrier.wait(timeout=60)
        results[t] = work(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result is not None for result in results)
    return results


class TestSolveKnobs:
    def test_each_knob_changes_the_key(self):
        problem = build_workload("bursty-lines", 10, seed=0)
        base = SolveKnobs()
        fp = solve_fingerprint(problem, base)
        variants = [
            replace(base, epsilon=0.2),
            replace(base, mis="greedy"),
            replace(base, seed=1),
            replace(base, engine="reference"),
            replace(base, decomposition="balancing"),
            replace(base, capacity_epoch=1),
        ]
        others = {solve_fingerprint(problem, k).digest for k in variants}
        assert fp.digest not in others
        assert len(others) == len(variants)

    def test_knob_memo_follows_the_fields(self):
        # The knobs' key bytes are memoized on the frozen knobs object:
        # a replaced knob set starts without them, and copies key
        # exactly as the original.
        problem = build_workload("bursty-lines", 10, seed=0)
        knobs = SolveKnobs(seed=3)
        first = solve_fingerprint(problem, knobs)
        assert _KNOBS_MEMO in vars(knobs)
        assert solve_fingerprint(problem, knobs) == first
        assert first.digest == spec_digests(problem, knobs)[0]
        changed = replace(knobs, seed=4)
        assert _KNOBS_MEMO not in vars(changed)
        assert solve_fingerprint(problem, changed).digest == (
            spec_digests(problem, changed)[0]
        )
        assert solve_fingerprint(problem, changed) != first
        for dup in (
            copy.copy(knobs), copy.deepcopy(knobs),
            pickle.loads(pickle.dumps(knobs)),
        ):
            assert dup == knobs
            assert solve_fingerprint(problem, dup) == first

    def test_workers_is_not_part_of_the_key(self):
        # Neither the retired workers knob nor the size of the serving
        # pool ever reaches the key.
        problem = build_workload("bursty-lines", 10, seed=0)
        a = solve_fingerprint(problem, SolveKnobs(workers=2))
        b = solve_fingerprint(problem, SolveKnobs(workers=8))
        assert a == b == solve_fingerprint(problem, SolveKnobs())
        request = SolveRequest(problem=problem, knobs=SolveKnobs())
        for workers in (1, 3):
            service = SchedulingService(workers=workers)
            assert service.solve(request).fingerprint == a

    def test_parallel_only_knobs_normalize_for_serial_engines(self):
        # Every engine is serial: the backend and granularity slots hold
        # the same constants whatever the retired knobs say, so every
        # engine keys exactly as without them.
        problem = build_workload("bursty-lines", 10, seed=0)
        for engine in ENGINES:
            a = solve_fingerprint(problem, SolveKnobs(engine=engine))
            for retired in (
                dict(workers=4), dict(backend="thread"),
                dict(plan_granularity="epoch"),
            ):
                b = solve_fingerprint(
                    problem, SolveKnobs(engine=engine, **retired)
                )
                assert a == b, (engine, retired)

    def test_every_engine_rejects_executor_knobs(self):
        # No engine runs on an executor: each rejects both retired
        # executor knobs.
        for engine in ENGINES:
            for knobs in (
                SolveKnobs(engine=engine, workers=2),
                SolveKnobs(engine=engine, backend="thread"),
            ):
                with pytest.raises(ValueError, match="is retired"):
                    knobs.validate()
            SolveKnobs(engine=engine).validate()

    def test_retired_knobs_accept_only_their_surviving_mode(self):
        # workers, backend and plan_granularity accept only None,
        # phase2_engine only the reference pop, and the epoch executor's
        # and the columnar kernel's engine names are gone; every other
        # value they once took is rejected before any cache interaction.
        problem = build_workload("bursty-lines", 10, seed=0)
        for knobs in (
            SolveKnobs(phase2_engine="bogus"),
            SolveKnobs(phase2_engine="sliced"),
            SolveKnobs(phase2_engine="vectorized"),
        ):
            with pytest.raises(ValueError, match="phase2_engine=.* is retired"):
                knobs.validate()
        for knobs, name in (
            (SolveKnobs(plan_granularity="epoch"), "plan_granularity"),
            (SolveKnobs(plan_granularity="component"), "plan_granularity"),
            (SolveKnobs(workers=1), "workers"),
            (SolveKnobs(workers=4), "workers"),
            (SolveKnobs(backend="serial"), "backend"),
            (SolveKnobs(backend="process"), "backend"),
            (SolveKnobs(engine="parallel"), "unknown engine 'parallel'"),
            (SolveKnobs(engine="vectorized"), "unknown engine 'vectorized'"),
        ):
            with pytest.raises(ValueError, match=name):
                knobs.validate()
        surviving = SolveKnobs(
            workers=None, backend=None, plan_granularity=None,
            phase2_engine="reference",
        )
        assert solve_fingerprint(problem, surviving.validate()) == (
            solve_fingerprint(problem, SolveKnobs())
        )

    @pytest.mark.parametrize(
        "seed, mis", [(1.5, "luby"), (1.0, "luby"), (True, "hash")]
    )
    def test_non_int_seed_never_keys_like_an_int(self, seed, mis):
        # The key once encoded int(seed) while the oracle drew from the
        # raw value: seed=1.5 shared seed=1's key and cached answer.
        problem = build_workload("bursty-lines", 10, seed=0)
        knobs = SolveKnobs(mis=mis, seed=seed)
        twin = SolveKnobs(mis=mis, seed=1)
        assert solve_fingerprint(problem, knobs) != solve_fingerprint(
            problem, twin
        )
        assert delta_key(problem, knobs) != delta_key(problem, twin)
        with pytest.raises(ValueError, match="seed must be an int"):
            knobs.validate()

    def test_non_int_seed_and_capacity_epoch_rejected(self):
        # Checked by validation only: a string seed must never reach an
        # oracle, where Luby would multiply it into a substream seed.
        for knobs, name in (
            (SolveKnobs(seed="1"), "seed"),
            (SolveKnobs(seed=None), "seed"),
            (SolveKnobs(capacity_epoch=1.5), "capacity_epoch"),
            (SolveKnobs(capacity_epoch=True), "capacity_epoch"),
            (SolveKnobs(capacity_epoch="2"), "capacity_epoch"),
        ):
            with pytest.raises(ValueError, match=f"{name} must be an int"):
                knobs.validate()
        with pytest.raises(ValueError, match="capacity_epoch must be >= 0"):
            SolveKnobs(capacity_epoch=-1).validate()


class TestCanonicalBytes:
    def test_types_are_distinguished(self):
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(1) != canonical_bytes(True)
        assert canonical_bytes(0) != canonical_bytes(False)
        assert canonical_bytes("1") != canonical_bytes(1)
        assert canonical_bytes((1,)) != canonical_bytes([1])
        assert canonical_bytes(()) != canonical_bytes(None)

    def test_containers_are_content_ordered(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})
        assert canonical_bytes(frozenset((1, 2))) == canonical_bytes({2, 1})
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_nesting_is_unambiguous(self):
        assert canonical_bytes(((1, 2), 3)) != canonical_bytes((1, (2, 3)))
        assert canonical_bytes(("ab",)) != canonical_bytes(("a", "b"))

    def test_floats_are_exact(self):
        assert canonical_bytes(0.1 + 0.2) != canonical_bytes(0.3)
        assert stable_digest(1e-9) == stable_digest(1e-9)

    def test_unknown_types_rejected(self):
        with pytest.raises(CanonicalizationError, match="object"):
            canonical_bytes(object())

    def test_digest_is_stable(self):
        # Pinned value: a changed encoding must fail loudly here, since
        # it silently invalidates every on-disk cache entry.
        assert stable_digest((1, "a", 2.5)) == stable_digest((1, "a", 2.5))
        assert canonical_bytes((1, "a", 2.5)) == b't(i1;s1:af0x1.4000000000000p+1;)'
