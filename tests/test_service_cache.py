"""Unit suite for the two-tier result cache.

Covers the LRU discipline (recency promotion, bounded eviction), the
disk tier (round trips, restart survival, overflow reload), digest
verification (corrupted and stale entries degrade to misses -- or
raise, naming the fingerprint, under ``strict=True``), and the
report-level semantic digest the default configuration verifies with.
"""
import pickle

import pytest

from repro.algorithms import solve_auto
from repro.core.canonical import stable_digest
from repro.service.cache import (
    CacheEntry,
    CacheIntegrityError,
    ResultCache,
    report_semantic_digest,
)
from repro.service.fingerprint import Fingerprint
from repro.workloads import build_workload


def fp(tag: str) -> Fingerprint:
    return Fingerprint(stable_digest(tag))


def value_cache(**kwargs) -> ResultCache:
    """A cache for plain picklable values (tuples etc.)."""
    return ResultCache(digest_fn=stable_digest, **kwargs)


class TestMemoryTier:
    def test_round_trip_and_stats(self):
        cache = value_cache(capacity=4)
        assert cache.get(fp("a")) is None
        cache.put(fp("a"), ("payload", 1))
        assert cache.get(fp("a")) == ("payload", 1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_evicts_least_recently_used(self):
        cache = value_cache(capacity=2)
        cache.put(fp("a"), "A")
        cache.put(fp("b"), "B")
        assert cache.get(fp("a")) == "A"  # refresh a; b is now LRU
        cache.put(fp("c"), "C")
        assert cache.stats.evictions == 1
        assert fp("b") not in cache
        assert cache.get(fp("a")) == "A"
        assert cache.get(fp("c")) == "C"
        assert cache.get(fp("b")) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            value_cache(capacity=0)

    def test_overwrite_same_key(self):
        cache = value_cache(capacity=2)
        cache.put(fp("a"), "old")
        cache.put(fp("a"), "new")
        assert len(cache) == 1
        assert cache.get(fp("a")) == "new"


class TestDiskTier:
    def test_survives_restart(self, tmp_path):
        first = value_cache(capacity=4, disk_dir=str(tmp_path))
        first.put(fp("a"), ("big", "result"))
        second = value_cache(capacity=4, disk_dir=str(tmp_path))
        assert second.get(fp("a")) == ("big", "result")
        assert second.stats.disk_hits == 1
        # Re-admitted to memory: the next lookup is a tier-1 hit.
        assert second.get(fp("a")) == ("big", "result")
        assert second.stats.hits == 1

    def test_eviction_overflow_reloads_from_disk(self, tmp_path):
        cache = value_cache(capacity=1, disk_dir=str(tmp_path))
        cache.put(fp("a"), "A")
        cache.put(fp("b"), "B")  # evicts a from memory, not from disk
        assert cache.stats.evictions == 1
        assert cache.get(fp("a")) == "A"
        assert cache.stats.disk_hits == 1

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        cache = value_cache(capacity=2, disk_dir=str(tmp_path))
        cache.put(fp("a"), "A")
        path = cache._path(fp("a").digest)
        path.write_bytes(b"\x80garbage")
        fresh = value_cache(capacity=2, disk_dir=str(tmp_path))
        assert fresh.get(fp("a")) is None
        assert fresh.stats.verify_failures == 1
        assert not path.exists(), "a rejected entry must be removed"

    def test_tampered_value_fails_verification(self, tmp_path):
        cache = value_cache(capacity=2, disk_dir=str(tmp_path))
        cache.put(fp("a"), ("honest", "value"))
        path = cache._path(fp("a").digest)
        entry = pickle.loads(path.read_bytes())
        tampered = CacheEntry(
            fingerprint=entry.fingerprint,
            digest=entry.digest,
            value=("tampered", "value"),
        )
        path.write_bytes(pickle.dumps(tampered))
        fresh = value_cache(capacity=2, disk_dir=str(tmp_path))
        assert fresh.get(fp("a")) is None
        assert fresh.stats.verify_failures == 1

    def test_strict_mode_names_the_fingerprint(self, tmp_path):
        cache = value_cache(capacity=2, disk_dir=str(tmp_path))
        cache.put(fp("a"), "A")
        cache._path(fp("a").digest).write_bytes(b"junk")
        strict = value_cache(capacity=2, disk_dir=str(tmp_path), strict=True)
        with pytest.raises(CacheIntegrityError, match=fp("a").short):
            strict.get(fp("a"))

    def test_no_disk_dir_means_no_tier_two(self, tmp_path):
        cache = value_cache(capacity=1)
        cache.put(fp("a"), "A")
        cache.put(fp("b"), "B")
        assert cache.get(fp("a")) is None
        assert cache.stats.disk_hits == 0

    def test_unwritable_disk_degrades_to_memory_only(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("occupies the disk-dir path")
        cache = value_cache(capacity=2, disk_dir=str(blocked))
        cache.put(fp("a"), "A")  # write fails silently, memory admits
        assert cache.stats.disk_write_failures == 1
        assert cache.stats.stores == 1
        assert cache.get(fp("a")) == "A"


class TestReportDigest:
    def test_identical_solves_digest_equal(self):
        problem = build_workload("multi-tenant-forest", 14, seed=2)
        a = solve_auto(problem, mis="greedy", engine="incremental")
        b = solve_auto(
            build_workload("multi-tenant-forest", 14, seed=2),
            mis="greedy", engine="incremental",
        )
        assert report_semantic_digest(a) == report_semantic_digest(b)

    def test_different_problems_digest_differ(self):
        a = solve_auto(
            build_workload("multi-tenant-forest", 14, seed=2),
            mis="greedy", engine="incremental",
        )
        b = solve_auto(
            build_workload("multi-tenant-forest", 14, seed=3),
            mis="greedy", engine="incremental",
        )
        assert report_semantic_digest(a) != report_semantic_digest(b)

    def test_composite_reports_cover_their_parts(self):
        # sparse-access-forest mixes heights, so the arbitrary-trees
        # path produces a wide/narrow composite with result=None on top.
        problem = build_workload("sparse-access-forest", 16, seed=3)
        report = solve_auto(problem, mis="greedy", engine="incremental")
        assert report.parts, "expected a composite report"
        digest = report_semantic_digest(report)
        again = solve_auto(
            build_workload("sparse-access-forest", 16, seed=3),
            mis="greedy", engine="incremental",
        )
        assert report_semantic_digest(again) == digest

    def test_tampered_merged_solution_fails_verification(self, tmp_path):
        # Composite reports carry the served solution outside their
        # parts' semantic tuples; the digest must cover it, or a stale
        # entry with intact parts but a diverged merged solution would
        # pass verification and serve a wrong profit.
        from repro.core.solution import Solution

        problem = build_workload("sparse-access-forest", 16, seed=3)
        report = solve_auto(problem, mis="greedy", engine="incremental")
        assert report.parts and report.result is None
        cache = ResultCache(capacity=2, disk_dir=str(tmp_path))
        cache.put(fp("r"), report)
        path = cache._path(fp("r").digest)
        entry = pickle.loads(path.read_bytes())
        entry.value.solution = Solution(report.solution.selected[:-1])
        path.write_bytes(pickle.dumps(entry))
        fresh = ResultCache(capacity=2, disk_dir=str(tmp_path))
        assert fresh.get(fp("r")) is None
        assert fresh.stats.verify_failures == 1

    def test_report_round_trips_through_pickle(self, tmp_path):
        problem = build_workload("bursty-lines", 12, seed=1)
        report = solve_auto(problem, mis="greedy", engine="incremental")
        cache = ResultCache(capacity=2, disk_dir=str(tmp_path))
        cache.put(fp("r"), report)
        fresh = ResultCache(capacity=2, disk_dir=str(tmp_path))
        loaded = fresh.get(fp("r"))
        assert fresh.stats.verify_failures == 0
        assert report_semantic_digest(loaded) == report_semantic_digest(report)
        assert loaded.result.semantic_tuple() == report.result.semantic_tuple()


class TestKeepArtifacts:
    """The cache keeps whatever artifacts it is handed, in memory only;
    whether to hand any is the service's ``keep_artifacts``."""

    def test_artifacts_retained_in_memory_when_opted_in(self):
        cache = value_cache(capacity=4)
        cache.put(fp("a"), "A", artifacts={"networks": "retained"})
        entry = cache.peek_entry(fp("a"))
        assert entry.artifacts == {"networks": "retained"}
        # Artifacts are an accelerant, never part of the cached
        # answer: the digest ignores them.
        assert entry.digest == stable_digest("A")

    def test_artifacts_stripped_from_disk_pickle(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("artifacts must never be pickled")

        cache = value_cache(capacity=4, disk_dir=str(tmp_path))
        # An unpicklable artifact proves stripping happens before the
        # dump, not that the payload merely round-tripped by luck.
        cache.put(fp("a"), "A", artifacts=Unpicklable())
        assert cache.stats.disk_write_failures == 0
        persisted = pickle.loads(cache._path(fp("a").digest).read_bytes())
        assert persisted.artifacts is None
        assert cache.peek_entry(fp("a")).artifacts is not None

    def test_eviction_to_disk_loses_artifacts(self, tmp_path):
        cache = value_cache(capacity=1, disk_dir=str(tmp_path))
        cache.put(fp("a"), "A", artifacts=("warm",))
        cache.put(fp("b"), "B")  # evicts a's memory entry
        assert cache.stats.evictions == 1
        # The disk reload serves the value but retains nothing: an
        # entry's artifacts live only as long as its memory-tier copy.
        assert cache.get(fp("a")) == "A"
        assert cache.peek_entry(fp("a")).artifacts is None

    def test_overwrite_replaces_artifacts(self):
        cache = value_cache(capacity=4)
        cache.put(fp("a"), "A", artifacts=("old",))
        cache.put(fp("a"), "A", artifacts=("new",))
        assert cache.peek_entry(fp("a")).artifacts == ("new",)


class TestConcurrentDiskWriters:
    def test_interleaved_writers_never_leave_a_corrupt_file(self, tmp_path):
        # Two processes (here: threads, same race surface) persisting
        # the same fingerprint concurrently.  With a fixed ".tmp" name
        # both writers stream into one temp file and a rename can
        # publish the interleaved garble; with pid/thread-unique temp
        # names every rename publishes a file one writer wrote whole,
        # so the survivor always digest-verifies.
        import threading

        from repro.core.canonical import stable_digest

        key = fp("contended")
        caches = [
            ResultCache(digest_fn=stable_digest, disk_dir=str(tmp_path))
            for _ in range(2)
        ]
        rounds = 60
        barrier = threading.Barrier(2)

        def writer(cache, tag):
            for i in range(rounds):
                barrier.wait()
                # Distinct sizable payloads so interleaving is visible.
                entry = cache.make_entry(key, (tag, i, "x" * 4096))
                assert cache.write_disk(entry)

        threads = [
            threading.Thread(target=writer, args=(cache, tag))
            for tag, cache in enumerate(caches)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for cache in caches:
            assert cache.stats.disk_write_failures == 0
        reader = ResultCache(digest_fn=stable_digest, disk_dir=str(tmp_path))
        survivor = reader.load_disk(key)
        assert survivor is not None, "the surviving file must verify"
        assert reader.stats.verify_failures == 0
        assert survivor.value[0] in (0, 1) and survivor.value[1] == rounds - 1
        assert not list(tmp_path.glob("*.tmp")), "no temp files left behind"
