"""Hypothesis suite for the service layer's exact fingerprints.

The cache-key contract of :mod:`repro.service.fingerprint`:

* **Exactness** -- two problems with equal keys get equal direct
  ``solve_auto`` answers, and a service serves every resubmission its
  own direct answer: a shuffled demand list, relabeled ids or a
  reordered edge list key apart, while a shuffled access tuple or
  ``networks`` insertion order, which every consumer sorts, keys the
  same and hits;
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
  or demand alive, threads racing on a cold memo agree, a memo-warm
  problem's digests are the spec's without laying it out again, and a
  churn replay encodes each network and demand object once.
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

from repro.algorithms import solve_auto
from repro.core.canonical import (
    CanonicalizationError,
    canonical_bytes,
    stable_digest,
)
from repro.core.demand import Demand, WindowDemand
from repro.core.framework import ENGINES
from repro.core.problem import Problem
from repro.service import SchedulingService, SolveRequest, report_semantic_digest
import repro.service.fingerprint as fingerprint_module
from repro.service.delta import delta_key, diff_problems
from repro.service.fingerprint import (
    _KNOBS_MEMO,
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

#: Ways a resubmission can differ from the problem it copies.  The
#: solver reads the first three: instance ids follow demand order, ties
#: break by id, and decompositions follow adjacency order, so each can
#: change the answer and each is keyed.  Every consumer sorts the last
#: two, which the key leaves out.
VISIBLE = ("demand-order", "relabel", "edge-order")
INVISIBLE = ("access-order", "network-order")

variant_kinds = st.lists(
    st.sampled_from(VISIBLE + INVISIBLE), min_size=1, unique=True
)


def vary(problem: Problem, kinds, seed: int) -> Problem:
    """*problem* rebuilt from fresh objects, with each change in *kinds*.

    ``demand-order`` shuffles the demand list, ``relabel`` draws fresh
    network and demand ids, ``edge-order`` reverses or shuffles each
    network's edge list, ``access-order`` shuffles each access tuple
    and ``network-order`` the networks' insertion order.  Every network
    is rebuilt from its ``edges()`` list, so ``vary(problem, (), seed)``
    is the base the variants are compared with.
    """
    rng = random.Random(seed)
    nids = sorted(problem.networks)
    demands = list(problem.demands)
    nmap = {nid: nid for nid in nids}
    dmap = {a.demand_id: a.demand_id for a in demands}
    if "relabel" in kinds:
        nmap = dict(zip(nids, rng.sample(range(10_000, 20_000), len(nids))))
        dmap = dict(zip(dmap, rng.sample(range(5_000, 10_000), len(dmap))))
    if "network-order" in kinds:
        nids = rng.sample(nids, len(nids))
    networks = {}
    for nid in nids:
        net = problem.networks[nid]
        edges = [(u, v) for (_n, u, v) in net.edges()]
        if "edge-order" in kinds:
            if rng.random() < 0.5:
                edges.reverse()
            else:
                rng.shuffle(edges)
        networks[nmap[nid]] = TreeNetwork(
            nmap[nid], edges, vertices=net.vertices
        )
    if "demand-order" in kinds:
        rng.shuffle(demands)
    access = {}
    for a in demands:
        reach = [nmap[n] for n in problem.access[a.demand_id]]
        if "access-order" in kinds:
            rng.shuffle(reach)
        access[dmap[a.demand_id]] = tuple(reach)
    return Problem(
        networks,
        [replace(a, demand_id=dmap[a.demand_id]) for a in demands],
        access,
    )


def direct_digest(problem: Problem, knobs: SolveKnobs) -> str:
    """The semantic digest of a direct (service-free) solve."""
    return report_semantic_digest(
        solve_auto(
            problem, epsilon=knobs.epsilon, mis=knobs.mis, seed=knobs.seed,
            decomposition=knobs.decomposition, engine=knobs.engine,
        )
    )


#: Non-default knobs for the byte-identity checks.
SPEC_KNOBS = SolveKnobs(seed=3, epsilon=0.2, capacity_epoch=1)


def served_digests(problem: Problem, knobs: SolveKnobs):
    """The three digests as the service computes them (memoized bytes)."""
    return (
        solve_fingerprint(problem, knobs).digest,
        problem_fingerprint(problem).digest,
        delta_key(problem, knobs),
    )


def spec_digests(problem: Problem, knobs: SolveKnobs):
    """The same three digests from their nested-tuple specs:
    stable_digest of the tuples, built from unmemoized payloads."""
    form = problem_canonical_form(problem)
    return (
        stable_digest(("solve/v1", form, knobs.canonical_form())),
        stable_digest(form),
        stable_digest(("delta-key/v2", form[1], knobs.canonical_form())),
    )


class TestInvariance:
    @settings(**COMMON)
    @given(
        case=problem_cases,
        kinds=variant_kinds,
        perm_seed=st.integers(0, 10_000),
        mis=st.sampled_from(("luby", "greedy")),
    )
    def test_equal_keys_get_equal_answers(self, case, kinds, perm_seed, mis):
        # The drawn variant, and one with every change no consumer can
        # tell apart, so that each example compares answers.
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        base = vary(problem, (), perm_seed)
        knobs = SolveKnobs(mis=mis, seed=seed)
        key = solve_fingerprint(base, knobs)
        for changes in (kinds, INVISIBLE):
            variant = vary(problem, changes, perm_seed)
            same_key = solve_fingerprint(variant, knobs) == key
            if set(changes) <= set(INVISIBLE):
                assert same_key
            if same_key:
                assert direct_digest(variant, knobs) == direct_digest(
                    base, knobs
                )
            assert served_digests(variant, SPEC_KNOBS) == spec_digests(
                variant, SPEC_KNOBS
            )

    @settings(**COMMON)
    @given(
        case=problem_cases,
        kinds=variant_kinds,
        perm_seed=st.integers(0, 10_000),
        mis=st.sampled_from(("luby", "greedy")),
    )
    def test_every_variant_is_served_its_own_answer(
        self, case, kinds, perm_seed, mis
    ):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        knobs = SolveKnobs(mis=mis, seed=seed)
        service = SchedulingService(workers=1)
        base = vary(problem, (), perm_seed)
        service.solve(SolveRequest(problem=base, knobs=knobs))
        for changes in (kinds, INVISIBLE):
            variant = vary(problem, changes, perm_seed)
            served = service.solve(SolveRequest(problem=variant, knobs=knobs))
            if set(changes) <= set(INVISIBLE):
                assert served.status == "hit"
            assert report_semantic_digest(served.report) == direct_digest(
                variant, knobs
            )

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

    @pytest.mark.parametrize("kind", VISIBLE)
    def test_what_the_solver_reads_changes_the_key(self, kind):
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        base = problem_fingerprint(vary(problem, (), 5))
        assert problem_fingerprint(vary(problem, (kind,), 5)) != base


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


#: SHA-256 over the three served digests of every problem in the sweep
#: (registry workloads, then trajectories, each in name order), as the
#: nested-tuple encoder minted them.  A change to the spec itself (what
#: is keyed, in which order) fails here even though the spec comparison
#: still passes.
SWEEP_HEX = "d12a3c01aafc89dce64e0d2f67f68b55b839a6931bfd8d33e5bdf7e3fdc81442"


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
        # Ids and integer fields that are exact ints take the formatted
        # fast path; bools, floats and strings in those slots fall back
        # to canonical_bytes.
        demands = [
            Demand(0, 1, 4, 2.5, 0.5),
            Demand(1, True, 3, 1, 1),
            Demand(2, 1.0, 3.0, 2.0),
            Demand("d", 1, 3, 2.0),
            WindowDemand(3, 0, 5, 2, 1.5, 0.25),
            WindowDemand(4, True, 5, 2, 3),
            WindowDemand(True, 0, 5, 2, 3),
        ]
        for d in demands:
            assert _demand_entry(d) == canonical_bytes(_demand_payload(d))
        networks = [
            TreeNetwork(0, [(3, 1), (1, 0), (1, 2)]),
            TreeNetwork(1, [], vertices=[5]),
            TreeNetwork(2, [(0, 1)]),
            TreeNetwork(True, [(0, 1)]),
            TreeNetwork("n", [(0, 1)]),
            build_workload("deep-trees", 12, seed=1).networks[0],
        ]
        for net in networks:
            assert _network_entry(net) == canonical_bytes(_network_payload(net))
        # The id is keyed with its type, as ``adopt_memo`` compares it.
        assert _network_entry(TreeNetwork(1, [(0, 1)])) != (
            _network_entry(networks[3])
        )

    def test_tuple_equal_payloads_with_different_bytes(self):
        # ``True == 1``: the two demands compare equal as payloads but
        # encode differently, and the key keeps each as it is.
        line = TreeNetwork(0, [(0, 1), (1, 2), (2, 3)])
        for demands in (
            [Demand(0, 1, 3, 2.0), Demand(1, True, 3, 2.0)],
            [Demand(0, True, 3, 2.0), Demand(1, 1, 3, 2.0)],
        ):
            problem = Problem({0: line}, demands)
            assert served_digests(problem, SPEC_KNOBS) == spec_digests(
                problem, SPEC_KNOBS
            )


def twin_networks() -> Problem:
    """Six same-shape networks wired as two triangles of demands: only
    their ids tell them apart, and the key holds them."""
    pairs = [(0, 1), (1, 4), (0, 4), (2, 3), (3, 5), (2, 5)]
    return Problem(
        {n: make_line_network(n, 4) for n in range(6)},
        [Demand(i, 0, 2, 1.0) for i in range(6)],
        dict(enumerate(pairs)),
    )


#: (problem, knobs) -> (solve_fingerprint, delta_key) hex digests, as
#: the nested-tuple encoder minted them.  A change here re-keys every
#: cached result, disk-tier entry and shard placement.  The
#: ``engine="reference"`` row keys as the default knobs do.
GOLDEN = [
    pytest.param(
        lambda: build_workload("multi-tenant-forest", 24, seed=7),
        SolveKnobs(),
        "361247b3f1a1fbef349f5d3faee94597eb24675b9ad4827c20b9e35ea93af7ae",
        "c3ab12d0201975763e44401db8ba2af610186421d44369688d393d27b277e366",
        id="multi-tenant-forest@24#7",
    ),
    pytest.param(
        lambda: build_workload("diurnal-cycle", 16, seed=3),
        SolveKnobs(epsilon=0.25, mis="greedy", seed=5),
        "4fd184aa78c6821b760348f857a4cd411336bcb42e7d3c3cdfab021103b7200c",
        "f86efb2ba9cc901fdc9ce81e213646bb66a36df9927adc51f75fc3e76c31dd1f",
        id="diurnal-cycle@16#3",
    ),
    pytest.param(
        lambda: build_workload("figure2", 1, seed=0),
        SolveKnobs(capacity_epoch=2),
        "9d8da7cef61818e5447370a49a85f00f335faa1be2b7059ccd515ed07f290b0e",
        "1c21c12d1f536db4dd23136efde943926ce018557df597dd85bf24d704e16134",
        id="figure2",
    ),
    pytest.param(
        lambda: build_trajectory("tenant-churn", 40, seed=11, steps=4)[3].problem,
        SolveKnobs(seed=11),
        "a5942fd134ba5946f5ddcff58243d86d5292e9f6da7cb9687f37b31bce897dc0",
        "69cc5a1a0f44a88b135c5c2cac3fa65e886b9e2f23ce69a9aed020506e98e1bb",
        id="tenant-churn@40#11-step3",
    ),
    pytest.param(
        twin_networks,
        SolveKnobs(),
        "376d29aa17a0523d14bd58319fda69e4ef2dd4a899a4a689999591af662acbbc",
        "5e6ea2f0a312ad25998898e18d03e9e5732fae3974ecf5673a7d9ffa9444f419",
        id="twin-networks",
    ),
    pytest.param(
        lambda: build_workload("bursty-lines", 10, seed=0),
        SolveKnobs(engine="reference"),
        "b668f321c0aede60ecc9395013abb5907a5b22cf2c063faab75d3674e6fc12a6",
        "44768a83e1450fdafc0656b372cf8cf93f357538d62aa1c2a8831c70c7730e6d",
        id="bursty-lines@10#0",
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
        memo = problem.__dict__[_SOLVE_MEMO]
        refs = [weakref.ref(net) for net in problem.networks.values()]
        refs += [weakref.ref(d) for d in problem.demands]
        del problem
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert memo.copy().hexdigest()

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
        # knob sets, half of them taking the delta key first.
        problems = [
            build_workload("multi-tenant-forest", 40, seed=2),
            build_trajectory("churn-lines", 60, seed=3, steps=2)[1].problem,
        ]
        knob_sets = (SolveKnobs(), SPEC_KNOBS)
        expected = [
            (spec[0], spec[2])
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
                        spec[0], spec[2]
                    ), label

    def test_warm_problem_skips_the_canonical_layout(self, monkeypatch):
        # Deterministic call counts: a problem object is laid out (its
        # component bytes joined in key order, ``_problem_bytes``)
        # once; a rebuilt equal problem is laid out again.  The delta
        # key reads the networks' memo entries and lays out nothing.
        calls = Counter()
        layout = fingerprint_module._problem_bytes

        def counted(problem):
            calls["layout"] += 1
            return layout(problem)

        monkeypatch.setattr(fingerprint_module, "_problem_bytes", counted)

        def build():
            return build_trajectory("tenant-churn", 40, seed=3, steps=2)[1].problem

        problem = build()
        solve_fingerprint(problem, SolveKnobs())
        delta_key(problem, SolveKnobs())
        assert calls == {"layout": 1}
        calls.clear()
        for knobs in (SolveKnobs(), SPEC_KNOBS):
            solve_fingerprint(problem, knobs)
            delta_key(problem, knobs)
            SolveRequest(problem=problem, knobs=knobs).fingerprint()
        assert not calls
        rebuilt = build()
        delta_key(rebuilt, SolveKnobs())
        assert not calls
        solve_fingerprint(rebuilt, SolveKnobs())
        assert calls == {"layout": 1}
        assert solve_fingerprint(rebuilt, SPEC_KNOBS) == solve_fingerprint(
            problem, SPEC_KNOBS
        )
        assert calls == {"layout": 1}

    def test_a_churn_replay_encodes_each_object_once(self, monkeypatch):
        # A write then reads of every tenant-churn@200 snapshot, as the
        # serving benchmark sends them: each network and demand object
        # is encoded once, however many snapshots, requests, delta keys
        # and network-table lookups share it.
        encoded = Counter()

        def counting(encode):
            def counted(obj):
                encoded[id(obj)] += 1
                return encode(obj)

            return counted

        for name in ("_network_bytes", "_demand_bytes"):
            encode = getattr(fingerprint_module, name)
            monkeypatch.setattr(fingerprint_module, name, counting(encode))
        knobs = SolveKnobs(mis="greedy", seed=1)
        service = SchedulingService(keep_artifacts=True, workers=1)
        steps = build_trajectory("tenant-churn", 200, seed=1, steps=6)
        for step in steps:
            request = SolveRequest(problem=step.problem, knobs=knobs)
            service.solve_delta(request)
            for _ in range(2):
                assert service.solve(request).status == "hit"
            delta_key(step.problem, knobs)
        objects = {
            id(obj)
            for step in steps
            for obj in (*step.problem.networks.values(), *step.problem.demands)
        }
        assert set(encoded) == objects
        assert set(encoded.values()) == {1}


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
            replace(base, decomposition="balancing"),
            replace(base, capacity_epoch=1),
        ]
        others = {solve_fingerprint(problem, k).digest for k in variants}
        assert fp.digest not in others
        assert len(others) == len(variants)

    def test_every_engine_gives_one_key(self):
        # The engines are bit-identical, so the engine picks who solves
        # a miss but never splits the cache; unknown names still fail
        # validation.
        problem = build_workload("bursty-lines", 10, seed=0)
        knob_sets = [SolveKnobs(engine=engine) for engine in ENGINES]
        assert len({solve_fingerprint(problem, k) for k in knob_sets}) == 1
        assert len({delta_key(problem, k) for k in knob_sets}) == 1
        assert solve_fingerprint(problem, knob_sets[0]) == solve_fingerprint(
            problem, SolveKnobs()
        )
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            SolveKnobs(engine="bogus").validate()

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
        # Every engine is serial and the retired knobs are not keyed,
        # so every engine keys exactly as without them.
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
