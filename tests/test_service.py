"""Integration suite for the scheduling service.

The acceptance contract of the service layer:

* **Bit-identity** -- served results equal direct
  :func:`repro.algorithms.solve_auto` calls
  (``TwoPhaseResult.semantic_tuple()`` through the report digest) for
  every engine and execution backend, cold and cached;
* **Keying** -- a resubmission hits the cache and so does a request
  for the other engine; a relabeled resubmission and different knobs
  do not;
* **Coalescing** -- duplicate in-flight requests share one future and
  one solve;
* **Attribution** -- a failed entry of a batch raises
  :class:`ServiceError` naming that request's label and fingerprint;
* **Persistence** -- a service restarted over the same disk tier
  serves without re-solving.
"""
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro.algorithms import solve_auto
from repro.core.problem import Problem
from repro.service import (
    SchedulingService,
    ServiceError,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.trees.tree import TreeNetwork
from repro.workloads import build_trajectory, build_workload
from tests.test_backends import BACKENDS, run_on_backend

#: One tree family and one line family keep the sweep CI-sized while
#: crossing the solve_auto dispatch both ways.
SWEEP = (("multi-tenant-forest", 16), ("bursty-lines", 14))
SEED = 4
EPSILON = 0.3


def make_request(name, size, **knob_kwargs):
    knob_kwargs.setdefault("epsilon", EPSILON)
    knob_kwargs.setdefault("mis", "greedy")
    return SolveRequest.from_workload(name, size, seed=SEED, **knob_kwargs)


def direct_digest(name, size, **knob_kwargs):
    knobs = SolveKnobs(
        epsilon=knob_kwargs.pop("epsilon", EPSILON),
        mis=knob_kwargs.pop("mis", "greedy"),
        seed=knob_kwargs.pop("seed", SEED),
        **knob_kwargs,
    )
    report = solve_auto(
        build_workload(name, size, seed=SEED),
        epsilon=knobs.epsilon,
        mis=knobs.mis,
        seed=knobs.seed,
        decomposition=knobs.decomposition,
        engine=knobs.engine,
    )
    return report_semantic_digest(report)


def served_digests(name, size):
    """Cold and cached digests of one incremental-engine request served
    by a fresh service, and the service's solve count."""
    service = SchedulingService(workers=2)
    request = make_request(name, size, engine="incremental")
    cold = service.solve(request)
    cached = service.solve(request)
    assert cold.status == "miss" and cached.status == "hit"
    return (
        report_semantic_digest(cold.report),
        report_semantic_digest(cached.report),
        service.stats["solves"],
    )


class TestBitIdentity:
    """Service == direct library call, cold and cached, every config."""

    @pytest.mark.parametrize("name,size", SWEEP)
    @pytest.mark.parametrize("engine", ("reference", "incremental"))
    def test_serial_engines(self, name, size, engine):
        service = SchedulingService(workers=2)
        request = make_request(name, size, engine=engine)
        cold = service.solve(request)
        cached = service.solve(request)
        assert cold.status == "miss" and cached.status == "hit"
        expected = direct_digest(name, size, engine=engine)
        assert report_semantic_digest(cold.report) == expected
        assert report_semantic_digest(cached.report) == expected
        assert service.stats["solves"] == 1

    @pytest.mark.parametrize("name,size", SWEEP)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_backends(self, name, size, backend):
        # A whole service -- the unit a shard worker forks -- serves the
        # same bits inline, on a pool thread and in a forked process.
        cold, cached, solves = run_on_backend(
            backend, served_digests, name, size
        )
        expected = direct_digest(name, size, engine="incremental")
        assert cold == expected and cached == expected
        assert solves == 1
        # Cross-engine bit-identity carries through the service too.
        assert expected == direct_digest(name, size, engine="reference")

    def test_luby_oracle_round_trips(self):
        service = SchedulingService(workers=2)
        request = make_request("multi-tenant-forest", 16, mis="luby")
        cold = service.solve(request)
        assert report_semantic_digest(cold.report) == direct_digest(
            "multi-tenant-forest", 16, mis="luby"
        )


class TestKeying:
    def test_relabeled_resubmission_is_solved_as_itself(self):
        # Fresh ids and a shuffled demand list make another labelled
        # input, whose answer can differ: it keys apart and is solved,
        # and each request is served its own direct answer.
        problem = build_workload("multi-tenant-forest", 16, seed=SEED)
        knobs = SolveKnobs(epsilon=EPSILON, mis="greedy", seed=SEED)
        service = SchedulingService(workers=2)
        first = service.solve(SolveRequest(problem=problem, knobs=knobs))
        assert first.status == "miss"
        rng = random.Random(7)
        nmap = {nid: nid + 50 for nid in problem.networks}
        dmap = {a.demand_id: a.demand_id + 900 for a in problem.demands}
        networks = {
            nmap[nid]: TreeNetwork(
                nmap[nid], [(u, v) for (_n, u, v) in net.edges()]
            )
            for nid, net in problem.networks.items()
        }
        demands = [
            replace(a, demand_id=dmap[a.demand_id]) for a in problem.demands
        ]
        rng.shuffle(demands)
        access = {
            dmap[d]: tuple(sorted(nmap[n] for n in nets))
            for d, nets in problem.access.items()
        }
        relabeled = Problem(networks, demands, access)
        second = service.solve(SolveRequest(problem=relabeled, knobs=knobs))
        assert second.status == "miss"
        assert second.fingerprint != first.fingerprint
        assert service.stats["solves"] == 2
        for result, solved in ((first, problem), (second, relabeled)):
            direct = solve_auto(
                solved, epsilon=knobs.epsilon, mis=knobs.mis,
                seed=knobs.seed, engine=knobs.engine,
            )
            assert report_semantic_digest(result.report) == (
                report_semantic_digest(direct)
            )

    def test_engines_share_one_cache_entry(self):
        # The engines are bit-identical, so the engine is not keyed: an
        # incremental request is served the reference solve's entry.
        # The hit carries the reference run's engine-work counters;
        # the semantic digest leaves those out.
        problem = build_workload("bursty-lines", 14, seed=SEED)
        knobs = SolveKnobs(
            epsilon=EPSILON, mis="greedy", seed=SEED, engine="reference"
        )
        service = SchedulingService(workers=2)
        first = service.solve(SolveRequest(problem=problem, knobs=knobs))
        incremental = replace(knobs, engine="incremental")
        second = service.solve(SolveRequest(problem=problem, knobs=incremental))
        assert (first.status, second.status) == ("miss", "hit")
        assert second.fingerprint == first.fingerprint
        assert service.stats["solves"] == 1
        direct = solve_auto(
            build_workload("bursty-lines", 14, seed=SEED),
            epsilon=EPSILON, mis="greedy", seed=SEED, engine="incremental",
        )
        assert report_semantic_digest(second.report) == (
            report_semantic_digest(direct)
        )

    def test_different_knobs_do_not_alias(self):
        service = SchedulingService(workers=2)
        a = service.solve(
            SolveRequest.from_workload(
                "bursty-lines", 14, seed=SEED,
                knobs=SolveKnobs(epsilon=EPSILON, mis="greedy", seed=0),
            )
        )
        b = service.solve(
            SolveRequest.from_workload(
                "bursty-lines", 14, seed=SEED,
                knobs=SolveKnobs(epsilon=EPSILON, mis="greedy", seed=1),
            )
        )
        assert a.fingerprint != b.fingerprint
        assert b.status == "miss"
        assert service.stats["solves"] == 2

    def test_from_workload_rejects_mixed_knob_forms(self):
        with pytest.raises(ValueError, match="not both"):
            SolveRequest.from_workload(
                "bursty-lines", 14, knobs=SolveKnobs(), mis="greedy"
            )

    def test_submit_problem_uses_default_knobs(self):
        service = SchedulingService(
            workers=2,
            default_knobs=SolveKnobs(epsilon=EPSILON, mis="greedy", seed=SEED),
        )
        problem = build_workload("bursty-lines", 14, seed=SEED)
        result = service.submit_problem(problem, label="adhoc").result()
        assert result.label == "adhoc"
        assert report_semantic_digest(result.report) == direct_digest(
            "bursty-lines", 14
        )


    def test_an_edited_problem_is_never_served_a_stale_answer(self):
        # A served problem cannot be edited in place: an edit that went
        # through would key freshly yet solve the problem's cached
        # expansion, scheduling the removed demand.  The edit must be a
        # rebuilt problem, and that is served its direct answer.
        knobs = SolveKnobs(seed=0)
        service = SchedulingService(workers=1)
        problem = build_workload("powerlaw-trees", 40, seed=0)
        first = service.solve(SolveRequest(problem=problem, knobs=knobs))
        victim = first.report.solution.demand_ids[0]
        with pytest.raises(AttributeError):
            problem.demands.remove(problem.demand_by_id(victim))
        with pytest.raises(TypeError):
            del problem.access[victim]
        resubmitted = service.solve(SolveRequest(problem=problem, knobs=knobs))
        assert resubmitted.status == "hit"

        def without_victim(p):
            return Problem(
                dict(p.networks),
                [a for a in p.demands if a.demand_id != victim],
                {i: nets for i, nets in p.access.items() if i != victim},
            )

        edited = service.solve(
            SolveRequest(problem=without_victim(problem), knobs=knobs)
        )
        assert edited.status == "miss"
        assert victim not in edited.report.solution.demand_ids
        direct = solve_auto(
            without_victim(build_workload("powerlaw-trees", 40, seed=0)),
            epsilon=knobs.epsilon, mis=knobs.mis, seed=knobs.seed,
            decomposition=knobs.decomposition, engine=knobs.engine,
        )
        assert report_semantic_digest(edited.report) == report_semantic_digest(
            direct
        )


class TestCoalescing:
    def test_inflight_duplicates_share_one_solve(self, monkeypatch):
        import repro.service.server as server_mod

        gate = threading.Event()
        release = threading.Event()
        real = server_mod.solve_auto
        calls = []

        def gated(problem, **kwargs):
            calls.append(1)
            gate.set()
            assert release.wait(10), "test gate never released"
            return real(problem, **kwargs)

        monkeypatch.setattr(server_mod, "solve_auto", gated)
        service = SchedulingService(workers=2)
        request = make_request("bursty-lines", 14)
        first = service.submit(request)
        assert gate.wait(10), "solve never started"
        second = service.submit(request)
        third = service.submit(
            SolveRequest(
                problem=request.problem, knobs=request.knobs, label="mine"
            )
        )
        release.set()
        results = [f.result(timeout=30) for f in (first, second, third)]
        assert len(calls) == 1
        assert service.stats["coalesced"] == 2
        assert service.stats["solves"] == 1
        assert {r.status for r in results} == {"miss"}
        assert report_semantic_digest(results[1].report) == (
            report_semantic_digest(results[0].report)
        )
        # Coalesced callers keep their own identity on the shared solve.
        assert results[2].label == "mine"
        assert results[2].fingerprint == results[0].fingerprint

    def test_batch_coalesces_and_preserves_order(self):
        service = SchedulingService(workers=2)
        reqs = [
            make_request("bursty-lines", 14),
            make_request("multi-tenant-forest", 16),
            make_request("bursty-lines", 14),
        ]
        results = service.solve_batch(reqs)
        assert [r.label for r in results] == [r.label for r in reqs]
        assert service.stats["solves"] == 2
        assert report_semantic_digest(results[0].report) == (
            report_semantic_digest(results[2].report)
        )


class TestErrorAttribution:
    def test_failure_names_label_and_fingerprint(self):
        service = SchedulingService(workers=2)
        request = make_request("bursty-lines", 14, mis="nonsense-oracle")
        fp = request.fingerprint()
        with pytest.raises(ServiceError, match="bursty-lines@14"):
            service.solve(request)
        with pytest.raises(ServiceError, match=fp.short):
            service.solve(request)

    def test_batch_failure_is_attributable(self):
        service = SchedulingService(workers=2)
        good = make_request("bursty-lines", 14)
        bad = make_request("multi-tenant-forest", 16, mis="nonsense-oracle")
        with pytest.raises(ServiceError) as err:
            service.solve_batch([good, bad, good])
        assert "multi-tenant-forest@16" in str(err.value)
        assert bad.fingerprint().short in str(err.value)
        assert "bursty-lines" not in str(err.value)

    def test_invalid_knob_combo_rejected_before_the_cache(self):
        # The retired backend knob is not keyed, so backend='process'
        # keys the same as the valid backend=None request; it must be
        # rejected deterministically, never served from that entry.
        service = SchedulingService(workers=2)
        valid = make_request("bursty-lines", 14, engine="incremental")
        service.solve(valid)  # primes the cache under the shared key
        invalid = SolveRequest(
            problem=valid.problem,
            knobs=replace(valid.knobs, backend="process"),
            label="bad-combo",
        )
        with pytest.raises(ServiceError, match="bad-combo.*is retired"):
            service.solve(invalid)
        assert service.stats["solves"] == 1

    def test_invalid_workers_rejected_even_with_a_cached_twin(self):
        # workers is not part of the key, so each invalid request keys
        # the same as a valid twin; once the twin is cached, only
        # validation stands between it and a "hit".
        service = SchedulingService(workers=2)
        for twin, workers in (
            (dict(engine="incremental"), 0),
            (dict(engine="reference"), -1),
            (dict(engine="reference"), 2),
        ):
            valid = make_request("bursty-lines", 14, **twin)
            service.solve(valid)
            solves = service.stats["solves"]
            invalid = SolveRequest(
                problem=valid.problem,
                knobs=replace(valid.knobs, workers=workers),
                label="bad-workers",
            )
            assert invalid.fingerprint() == valid.fingerprint()
            with pytest.raises(ServiceError, match="bad-workers.*workers"):
                service.solve(invalid)
            assert service.stats["solves"] == solves

    def test_non_int_seed_never_served_from_an_int_twin(self):
        # Keys once encoded int(seed) while the oracle drew from the raw
        # value, so seed=1.5 (and seed=True under hash-Luby) answered
        # from seed=1's entry with another seed's schedule.
        service = SchedulingService(workers=2)
        problem = build_workload("bursty-lines", 14, seed=SEED)
        for mis, seed in (("luby", 1.5), ("greedy", 1.0), ("hash", True)):
            valid = SolveRequest(
                problem=problem,
                knobs=SolveKnobs(epsilon=EPSILON, mis=mis, seed=1),
            )
            service.solve(valid)
            solves = service.stats["solves"]
            invalid = SolveRequest(
                problem=valid.problem,
                knobs=replace(valid.knobs, seed=seed),
                label="bad-seed",
            )
            assert invalid.fingerprint() != valid.fingerprint()
            with pytest.raises(
                ServiceError, match="bad-seed.*seed must be an int"
            ):
                service.solve(invalid)
            assert service.stats["solves"] == solves

    def test_failure_keeps_cause_chain(self):
        service = SchedulingService(workers=2)
        request = make_request("bursty-lines", 14, mis="nonsense-oracle")
        with pytest.raises(ServiceError) as err:
            service.solve(request)
        assert err.value.__cause__ is not None

    def test_failed_fingerprint_can_be_retried(self, monkeypatch):
        import repro.service.server as server_mod

        real = server_mod.solve_auto
        boom = {"armed": True}

        def flaky(problem, **kwargs):
            if boom.pop("armed", False):
                raise RuntimeError("transient failure")
            return real(problem, **kwargs)

        monkeypatch.setattr(server_mod, "solve_auto", flaky)
        service = SchedulingService(workers=2)
        request = make_request("bursty-lines", 14)
        with pytest.raises(ServiceError, match="transient"):
            service.solve(request)
        result = service.solve(request)  # in-flight slot was released
        assert result.status == "miss"


class TestPersistence:
    def test_restart_serves_from_disk(self, tmp_path):
        request = make_request("multi-tenant-forest", 16)
        first = SchedulingService(workers=2, disk_dir=str(tmp_path))
        cold = first.solve(request)
        second = SchedulingService(workers=2, disk_dir=str(tmp_path))
        warm = second.solve(request)
        assert warm.status == "hit"
        assert second.stats["solves"] == 0
        assert second.stats["cache"]["disk_hits"] == 1
        assert report_semantic_digest(warm.report) == (
            report_semantic_digest(cold.report)
        )

    def test_strict_disk_failure_flows_through_the_future(self, tmp_path):
        # A strict-mode integrity failure must resolve the registered
        # in-flight future (coalesced duplicates are waiting on it),
        # wrapped as an attributable ServiceError -- not escape raw in
        # the probing thread while the future hangs.
        request = make_request("bursty-lines", 14)
        primer = SchedulingService(workers=2, disk_dir=str(tmp_path))
        primer.solve(request)
        primer.cache._path(request.fingerprint().digest).write_bytes(b"junk")
        strict = SchedulingService(
            workers=2, disk_dir=str(tmp_path), strict_cache=True
        )
        fut = strict.submit(request)
        with pytest.raises(ServiceError, match=request.fingerprint().short):
            fut.result(timeout=30)
        assert strict.stats["inflight"] == 0

    def test_disk_write_failure_degrades_not_fails(self, tmp_path):
        # An unwritable tier-2 (here: the configured dir path is an
        # existing regular file, so mkdir fails) must not fail the
        # request -- the solve succeeded and stays served from memory.
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        service = SchedulingService(workers=2, disk_dir=str(blocked))
        request = make_request("bursty-lines", 14)
        cold = service.solve(request)  # the solve itself succeeded
        assert cold.status == "miss"
        assert service.stats["cache"]["disk_write_failures"] == 1
        warm = service.solve(request)  # served from the memory tier
        assert warm.status == "hit"
        assert service.stats["solves"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            SchedulingService(workers=0)


def counting_digest(service):
    """Replace *service*'s cache ``digest_fn`` on the instance, as the
    serving benchmark's tracer does; returns the list of digested
    values, which grows with every call."""
    calls = []
    real = service.cache.digest_fn

    def counted(value):
        calls.append(value)
        return real(value)

    service.cache.digest_fn = counted
    return calls


class TestDigestOnRead:
    """A memory-only cache digests a result only when something reads
    its digest; a disk tier digests at admission, because the pickle
    carries the digest its reload verifies."""

    def test_memory_only_writes_and_reads_never_digest(self):
        service = SchedulingService(workers=2, keep_artifacts=True)
        calls = counting_digest(service)
        knobs = SolveKnobs(epsilon=EPSILON, mis="greedy")
        for step in build_trajectory("tenant-churn", 16, seed=1, steps=4):
            request = SolveRequest(problem=step.problem, knobs=knobs)
            service.solve_delta(request)
            assert service.solve(request).status == "hit"
        service.solve_batch([make_request("bursty-lines", 14)] * 2)
        assert service.solve(make_request("bursty-lines", 14)).status == "hit"
        assert service.stats["solves"] == 5
        assert calls == []

    def test_a_disk_tier_digests_once_per_admission_and_verifies(
        self, tmp_path
    ):
        requests = [
            make_request("multi-tenant-forest", 16),
            make_request("bursty-lines", 14),
        ]
        first = SchedulingService(workers=2, disk_dir=str(tmp_path))
        calls = counting_digest(first)
        cold = [first.solve(r) for r in requests]
        assert [first.solve(r).status for r in requests] == ["hit", "hit"]
        assert calls == [r.report for r in cold]
        # The recorded digest is the one a reload verifies against.
        second = SchedulingService(workers=2, disk_dir=str(tmp_path))
        warm = [second.solve(r) for r in requests]
        assert [r.status for r in warm] == ["hit", "hit"]
        assert second.stats["cache"]["disk_hits"] == 2
        assert second.stats["cache"]["verify_failures"] == 0
        for request, result in zip(requests, warm):
            assert second.peek_digest(request.fingerprint()) == (
                report_semantic_digest(result.report)
            )

    def test_the_first_read_digests_once_and_records_it(self):
        service = SchedulingService(workers=2, capacity=1)
        calls = counting_digest(service)
        request = make_request("bursty-lines", 14)
        expected = direct_digest("bursty-lines", 14)
        miss = service.solve(request)
        assert service.peek_digest(miss.fingerprint) is None
        assert service.result_digest(miss) == expected
        hit = service.solve(request)
        assert hit.status == "hit"
        assert service.peek_digest(hit.fingerprint) == expected
        assert service.result_digest(hit) == expected
        assert len(calls) == 1
        # Evicted (capacity 1): digested from the served report, and
        # recorded nowhere.
        service.solve(make_request("bursty-lines", 15))
        assert service.peek_digest(miss.fingerprint) is None
        assert service.result_digest(miss) == expected
        assert len(calls) == 2

    def test_racing_first_readers_digest_once(self):
        # More readers than cores and a short switch interval: every
        # reader of one undigested entry must get its digest, and only
        # one may compute it.
        service = SchedulingService(workers=2)
        calls = counting_digest(service)
        result = service.solve(make_request("bursty-lines", 14))
        barrier = threading.Barrier(8)
        digests = []

        def read():
            barrier.wait(timeout=30)
            digests.append(service.result_digest(result))

        readers = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert digests == [direct_digest("bursty-lines", 14)] * 8
        assert len(calls) == 1


class TestOptionalLabels:
    def test_unlabeled_request_serves_with_none_label(self):
        # SolveRequest.label and ServiceResult.label are Optional[str]:
        # an unlabeled request is a first-class citizen, carried as
        # None end to end (not coerced to "").
        service = SchedulingService(workers=2)
        request = SolveRequest(
            problem=build_workload("bursty-lines", 14, seed=1),
            knobs=SolveKnobs(mis="greedy", epsilon=0.25),
        )
        assert request.label is None
        result = service.solve(request)
        assert result.label is None
        again = service.solve(request)  # hit path preserves optionality
        assert again.label is None

    def test_unlabeled_failure_renders_as_unlabeled(self):
        service = SchedulingService(workers=2)
        request = SolveRequest(
            problem=build_workload("bursty-lines", 14, seed=1),
            knobs=SolveKnobs(mis="nonsense-oracle"),
        )
        with pytest.raises(ServiceError, match="<unlabeled>"):
            service.solve(request)


class TestServiceTTLAndInvalidation:
    def test_expired_entry_resolves_fresh_not_stale(self, tmp_path):
        clock_now = [1000.0]
        service = SchedulingService(
            workers=2, disk_dir=str(tmp_path), ttl=30.0,
            clock=lambda: clock_now[0],
        )
        request = make_request("bursty-lines", 14)
        first = service.solve(request)
        assert first.status == "miss"
        assert service.solve(request).status == "hit"
        clock_now[0] += 31.0  # past the deadline: both tiers expire
        refreshed = service.solve(request)
        assert refreshed.status == "miss"
        assert service.stats["solves"] == 2
        assert service.cache.stats.expirations >= 1
        assert report_semantic_digest(refreshed.report) == (
            report_semantic_digest(first.report)
        ), "a re-solve of an unchanged problem must reproduce the result"

    def test_capacity_epoch_bump_misses_and_bulk_invalidates(self, tmp_path):
        service = SchedulingService(workers=2, disk_dir=str(tmp_path))
        old = make_request("bursty-lines", 14, capacity_epoch=0)
        unrelated = make_request("multi-tenant-forest", 16, capacity_epoch=1)
        assert service.solve(old).status == "miss"
        assert service.solve(unrelated).status == "miss"
        # The bumped epoch keys differently: never served from epoch 0.
        bumped = SolveRequest(
            problem=old.problem,
            knobs=replace(old.knobs, capacity_epoch=1),
            label="epoch-1",
        )
        assert bumped.fingerprint().digest != old.fingerprint().digest
        assert service.solve(bumped).status == "miss"
        # Bulk-dropping the stale generation leaves current-epoch
        # entries warm in both tiers.
        dropped = service.invalidate(epoch_below=1)
        assert dropped == 2  # old entry, memory + disk
        assert service.solve(unrelated).status == "hit"
        assert service.solve(bumped).status == "hit"
        assert service.solve(old).status == "miss"  # re-solves from scratch
