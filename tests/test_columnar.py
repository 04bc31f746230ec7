"""Structural tests of the columnar instance layout.

The equivalence suite pins the vectorized engine's *outputs* against
the incremental engine; this suite pins the encoding itself.  On
arbitrary seeded registry workloads, every :class:`ColumnarLayout`
block that :func:`build_columnar_epochs` builds must decode back to
exactly the instances it was built from -- rows in ascending instance
id, path-edge CSR segments in each instance's own ``path_edges``
iteration order (the order the LHS accumulates beta in), critical-edge
segments equal to the layout's pi tuples, and conflict buckets that
are precisely the edge and demand cliques of the epoch's conflict
graph.  A *subclassed* raise rule must drop the kernel to shadow mode
and still match the incremental engine.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.engines.columnar import build_columnar_epochs
from repro.core.framework import (
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    unit_xi,
)
from repro.distributed.mis import make_mis_oracle
from repro.workloads import build_workload, get_workload

COMMON = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One tree family and one line family per height regime.
FAMILIES = (
    "powerlaw-trees",
    "multi-tenant-forest",
    "bursty-lines",
    "wide-vod-lines",
)

workload_cases = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)


def setup_workload(name, size, seed):
    """Build (problem, layout, raise rule, thresholds) for a workload."""
    spec = get_workload(name)
    problem = build_workload(name, size, seed=seed)
    if spec.kind == "tree":
        layout, _ = tree_layouts(problem, "ideal")
        rule = UnitRaise()
        xi = unit_xi(max(layout.critical_set_size, 6))
    else:
        layout = line_layouts(problem)
        if spec.heights == "narrow":
            rule = HeightRaise()
            xi = narrow_xi(max(layout.critical_set_size, 3), problem.hmin)
        else:
            rule = UnitRaise()
            xi = unit_xi(max(layout.critical_set_size, 3))
    return problem, layout, rule, geometric_thresholds(xi, 0.3)


def fingerprint(artifacts):
    """Everything two engines must agree on, bit-for-bit."""
    dual, stack, events, counters = artifacts
    return (
        tuple(
            (e.order, e.instance.instance_id, e.delta, e.critical_edges, e.step_tuple)
            for e in events
        ),
        tuple(dual.alpha.items()),
        tuple(dual.beta.items()),
        tuple(tuple(d.instance_id for d in batch) for batch in stack),
        (counters.epochs, counters.stages, counters.steps, counters.raises),
    )


class TestRoundTrip:
    @given(workload_cases)
    @settings(**COMMON)
    def test_blocks_decode_back_to_the_instances(self, case):
        name, size, seed = case
        problem, layout, rule, _ = setup_workload(name, size, seed)
        blocks, n_edges, n_demands = build_columnar_epochs(
            problem.instances, layout, rule
        )
        seen = []
        for epoch, block in blocks.items():
            assert block.epoch == epoch
            assert block.edge_keys[0] is None
            assert block.n_edges == n_edges
            ids = [d.instance_id for d in block.instances]
            assert ids == sorted(ids), "rows must be ascending instance id"
            assert block.ids.tolist() == ids
            for row, inst in enumerate(block.instances):
                assert layout.group_of[inst.instance_id] == epoch
                lo, hi = int(block.path_indptr[row]), int(block.path_indptr[row + 1])
                cols = block.path_cols[lo:hi].tolist()
                assert 0 not in cols, "column 0 is the padding sentinel"
                assert [block.edge_keys[c] for c in cols] == list(inst.path_edges)
                assert int(block.path_len[row]) == len(inst.path_edges)
                qlo, qhi = int(block.pi_indptr[row]), int(block.pi_indptr[row + 1])
                pi = tuple(block.edge_keys[c] for c in block.pi_cols[qlo:qhi].tolist())
                assert pi == layout.pi[inst.instance_id]
                assert block.pi_tuples[row] == layout.pi[inst.instance_id]
                assert block.demand_ids[int(block.dcol[row])] == inst.demand_id
                assert int(block.dcol[row]) < n_demands
                assert block.profit[row] == inst.profit
            seen.extend(ids)
        assert sorted(seen) == sorted(d.instance_id for d in problem.instances)

    @given(workload_cases)
    @settings(**COMMON)
    def test_padded_positions_cover_the_csr_exactly(self, case):
        name, size, seed = case
        problem, layout, rule, _ = setup_workload(name, size, seed)
        blocks, _, _ = build_columnar_epochs(problem.instances, layout, rule)
        for block in blocks.values():
            n_pos = block.path_pad.shape[0]
            assert n_pos >= int(block.path_len.max(initial=0))
            for row in range(block.n_rows):
                lo = int(block.path_indptr[row])
                length = int(block.path_len[row])
                for pos in range(n_pos):
                    if pos < length:
                        assert block.path_pad[pos, row] == block.path_cols[lo + pos]
                    else:
                        assert block.path_pad[pos, row] == 0

    def test_empty_phase_builds_no_blocks(self):
        problem, layout, rule, _ = setup_workload("powerlaw-trees", 8, seed=0)
        blocks, n_edges, n_demands = build_columnar_epochs([], layout, rule)
        assert blocks == {}
        assert n_edges == 1  # just the sentinel
        assert n_demands == 0


class TestConflictBuckets:
    @given(workload_cases)
    @settings(**COMMON)
    def test_buckets_are_exactly_the_edge_and_demand_cliques(self, case):
        name, size, seed = case
        problem, layout, rule, _ = setup_workload(name, size, seed)
        blocks, n_edges, _ = build_columnar_epochs(problem.instances, layout, rule)
        for block in blocks.values():
            assert block.red_sizes.tolist() == np.diff(block.red_indptr).tolist()
            assert (block.red_sizes > 0).all(), "only non-empty buckets compact"
            bucket_ids = block.red_buckets.tolist()
            assert bucket_ids == sorted(set(bucket_ids))
            assert 0 not in bucket_ids, "the sentinel bucket is always empty"
            expected = {}
            for row in range(block.n_rows):
                lo, hi = int(block.path_indptr[row]), int(block.path_indptr[row + 1])
                for col in block.path_cols[lo:hi].tolist():
                    expected.setdefault(col, []).append(row)
                expected.setdefault(n_edges + int(block.dcol[row]), []).append(row)
            got = {}
            for k, bucket in enumerate(bucket_ids):
                seg = block.bucket_rows[
                    int(block.red_indptr[k]) : int(block.red_indptr[k + 1])
                ].tolist()
                assert seg == sorted(seg), "bucket rows must be ascending"
                got[bucket] = seg
            assert got == expected
            assert block.nb_of_row.tolist() == (block.path_len + 1).tolist()


class TestShadowMode:
    def test_subclassed_raise_rule_matches_incremental(self):
        """A subclass of a bundled rule may override anything, so the
        kernel must treat it as custom (shadow mode) -- and still agree
        with the incremental engine, just without the fast path."""

        class TracingUnitRaise(UnitRaise):
            pass

        problem, layout, _, thresholds = setup_workload(
            "powerlaw-trees", 30, seed=7
        )
        rule = TracingUnitRaise()
        blocks, _, _ = build_columnar_epochs(problem.instances, layout, rule)
        assert all(b.rule_kind == "custom" for b in blocks.values())
        inc = run_first_phase(
            problem.instances, layout, rule, thresholds,
            make_mis_oracle("luby", 7), engine="incremental",
        )
        vec = run_first_phase(
            problem.instances, layout, rule, thresholds,
            make_mis_oracle("luby", 7), engine="vectorized",
        )
        assert fingerprint(inc) == fingerprint(vec)
