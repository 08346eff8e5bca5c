"""Tests of the sharded cache tier: layout, migration, gc, counters.

The concurrency class covers the PR's satellite requirement: two
processes racing an atomic store on the same key must never produce a
torn or mixed entry.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.simulator import SimResult
from repro.runtime import JOB_SCHEMA_VERSION, ResultCache, SimJob


def make_result(**overrides) -> SimResult:
    fields = dict(
        benchmark="gzip", strategy="FDRT", cycles=1234, retired=2000,
        ipc=1.6207, pct_tc_instructions=0.71, avg_trace_size=11.3,
        pct_deps_critical=0.42, pct_critical_inter_trace=0.37,
        critical_source={"same trace": 0.5, "earlier trace": 0.3},
        producer_repetition={"same cluster": 0.61},
        pct_intra_cluster_forwarding=0.55, avg_forward_distance=0.83,
        option_counts={"A": 10, "B": 3}, fill_migration_rate=0.07,
        chain_migration_rate=0.02, pct_migrating_intra_cluster=0.4,
        mispredict_rate=0.031, tc_hit_rate=0.88, l1d_hit_rate=0.97,
    )
    fields.update(overrides)
    return SimResult(**fields)


def make_job(**overrides) -> SimJob:
    fields = dict(
        benchmark="gzip", spec=StrategySpec(kind="fdrt"),
        config=MachineConfig(), instructions=2_000, warmup=1_000,
    )
    fields.update(overrides)
    return SimJob(**fields)


pytestmark = pytest.mark.usefixtures("isolated_runtime")


class TestLayout:
    def test_entries_land_in_shard_directories(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        path = cache.path_for(job)
        shard_dir = os.path.basename(os.path.dirname(path))
        assert shard_dir == f"shard-{cache.shard_index(job.key):03d}"
        assert cache.shard_index(job.key) == int(job.key[:8], 16) % 16

    def test_layout_marker_pins_shard_count(self):
        cache = ResultCache(shards=4)
        cache.store(make_job(), make_result())
        with open(cache.layout_path, encoding="utf-8") as handle:
            assert json.load(handle)["shards"] == 4
        # A second process with a different preference must follow the
        # marker, not its own setting — all writers agree on the layout.
        other = ResultCache(shards=64)
        assert other.shards == 4
        assert other.load(make_job()) is not None

    def test_env_shards_apply_to_new_roots_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "8")
        assert ResultCache().shards == 8
        monkeypatch.setenv("REPRO_CACHE_SHARDS", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_CACHE_SHARDS"):
            ResultCache().shards

    def test_shard_distribution_spreads_keys(self):
        cache = ResultCache()
        jobs = [make_job(instructions=2_000 + i) for i in range(32)]
        for job in jobs:
            cache.store(job, make_result())
        used = {os.path.basename(os.path.dirname(cache.path_for(j)))
                for j in jobs}
        assert len(used) > 1  # fan-out, not one hot directory


class TestMigration:
    def _store_legacy(self, cache, job, result):
        """Plant an entry in the pre-shard ``<key[:2]>/`` layout."""
        legacy = cache.legacy_path_for_key(job.key)
        os.makedirs(os.path.dirname(legacy), exist_ok=True)
        payload = {"schema": JOB_SCHEMA_VERSION, "job": job.canonical(),
                   "result": result.to_dict(), "elapsed": None}
        with open(legacy, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return legacy

    def test_lazy_migration_on_load(self):
        cache = ResultCache()
        job, result = make_job(), make_result()
        legacy = self._store_legacy(cache, job, result)
        assert cache.load(job) == result
        assert not os.path.exists(legacy)
        assert os.path.exists(cache.path_for(job))
        assert cache.stats.migrated == 1 and cache.stats.hits == 1
        # The emptied legacy directory is pruned.
        assert not os.path.exists(os.path.dirname(legacy))

    def test_gc_migrates_wholesale(self):
        cache = ResultCache()
        jobs = [make_job(instructions=3_000 + i) for i in range(5)]
        for job in jobs:
            self._store_legacy(cache, job, make_result())
        report = cache.gc()
        assert report["migrated"] == 5
        assert cache.scan()["legacy_entries"] == 0
        for job in jobs:
            assert cache.load(job) is not None


class TestEviction:
    def test_ttl_evicts_old_entries(self):
        cache = ResultCache()
        old, fresh = make_job(instructions=2_000), make_job(
            instructions=3_000)
        cache.store(old, make_result())
        cache.store(fresh, make_result())
        stale_time = time.time() - 3_600
        os.utime(cache.path_for(old), (stale_time, stale_time))
        report = cache.gc(ttl=60)
        assert report["evicted_ttl"] == 1
        assert cache.load(old) is None
        assert cache.load(fresh) is not None

    def test_lru_eviction_keeps_recently_used(self):
        cache = ResultCache()
        jobs = [make_job(instructions=4_000 + i) for i in range(4)]
        for offset, job in enumerate(jobs):
            cache.store(job, make_result())
            mtime = time.time() - 1_000 + offset
            os.utime(cache.path_for(job), (mtime, mtime))
        # Touch the oldest via a hit: recency must track *use*.
        assert cache.load(jobs[0]) is not None
        report = cache.gc(max_entries=2)
        assert report["evicted_lru"] == 2
        assert cache.load(jobs[0]) is not None  # refreshed by the hit
        assert cache.load(jobs[3]) is not None  # newest
        assert cache.stats.evicted == 2

    def test_max_bytes_bound(self):
        cache = ResultCache()
        for i in range(4):
            cache.store(make_job(instructions=5_000 + i), make_result())
        report = cache.gc(max_bytes=1)
        assert report["entries"] == 0 and report["bytes"] == 0

    def test_racing_reader_treats_evicted_entry_as_miss(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        cache.gc(max_entries=0)
        assert cache.load(job) is None


class TestCounters:
    def test_scan_reports_per_shard_distribution(self):
        cache = ResultCache()
        jobs = [make_job(instructions=6_000 + i) for i in range(6)]
        for job in jobs:
            cache.store(job, make_result())
        scan = cache.scan()
        assert scan["entries"] == 6
        assert scan["bytes"] > 0
        assert sum(record["entries"]
                   for record in scan["per_shard"].values()) == 6

    def test_per_shard_stats_follow_lookups(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        cache.load(job)
        shard = cache.shard_index(job.key)
        assert cache.shard_stats[shard].hits == 1
        assert cache.shard_stats[shard].stores == 1

    def test_persistent_stats_survive_processes_and_reset(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        cache.load(job)
        cache.load(make_job(instructions=9_999))  # miss
        totals = cache.persistent_stats()
        assert totals["hits"] == 1 and totals["misses"] == 1
        assert totals["stores"] == 1
        assert 0 < totals["hit_rate"] < 1
        assert totals["processes"] == 1
        removed = cache.reset_persistent_stats()
        assert removed == 1
        fresh = cache.persistent_stats()
        assert fresh["hits"] == 0 and fresh["processes"] == 0

    def test_counts_wait_in_memory_for_a_flush_point(self, monkeypatch):
        """Only the first count is written at once; the rest reach the
        delta file at the next flush point, here ``persistent_stats``."""
        from repro.runtime import cache as cache_module

        monkeypatch.setattr(cache_module, "PERSIST_INTERVAL", 3600.0)
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        cache.load(job)
        cache.load(job)
        delta = os.path.join(cache.stats_dir, f"proc-{os.getpid()}.json")
        with open(delta, encoding="utf-8") as handle:
            written = json.load(handle)
        assert written["stores"] == 1 and written["hits"] == 0
        assert cache.persistent_stats()["hits"] == 2
        with open(delta, encoding="utf-8") as handle:
            assert json.load(handle)["hits"] == 2

    def test_second_process_sees_counts_after_first_exits(self, tmp_path):
        """A process that exits without a flush point still leaves its
        counts behind: they are written at interpreter exit."""
        root = str(tmp_path / "cache")
        code = (
            "import sys\n"
            "sys.path.insert(0, {tests!r})\n"
            "from test_cache_sharding import make_job, make_result\n"
            "from repro.runtime import ResultCache\n"
            "cache = ResultCache(root={root!r}, remote=False)\n"
            "job = make_job()\n"
            "cache.store(job, make_result())\n"
            "cache.load(job)\n"
            "cache.load(job)\n"
            "cache.load(make_job(instructions=9_999))\n"
        ).format(tests=os.path.dirname(__file__), root=root)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)
        totals = ResultCache(root=root, remote=False).persistent_stats()
        assert totals["processes"] == 1
        assert totals["stores"] == 1
        assert totals["hits"] == 2 and totals["misses"] == 1

    def test_load_key_serves_raw_entry(self):
        cache = ResultCache()
        job, result = make_job(), make_result()
        cache.store(job, result, elapsed=1.25)
        payload = cache.load_key(job.key)
        assert payload["schema"] == JOB_SCHEMA_VERSION
        assert SimResult.from_dict(payload["result"]) == result
        assert payload["elapsed"] == 1.25
        assert cache.load_key("0" * 64) is None


def _racing_store(root: str, canonical: dict, result_fields: dict,
                  barrier, rounds: int) -> None:
    """Child-process body: hammer the same key with atomic stores."""
    cache = ResultCache(root=root, remote=False)
    job = SimJob.from_canonical(canonical)
    result = SimResult(**result_fields)
    barrier.wait(timeout=30)
    for _ in range(rounds):
        cache.store(job, result, elapsed=0.1)


class TestConcurrentWriters:
    def test_racing_same_key_stores_never_tear(self, tmp_path):
        """Two processes racing a store on one key: every observable
        state of the entry is a complete, parseable document."""
        root = str(tmp_path / "race-cache")
        job = make_job()
        result = make_result()
        fields = result.to_dict()
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(target=_racing_store,
                        args=(root, job.canonical(), fields, barrier, 50))
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        reader = ResultCache(root=root, remote=False)
        barrier.wait(timeout=30)
        observed = 0
        deadline = time.monotonic() + 30
        while (any(proc.is_alive() for proc in writers)
               and time.monotonic() < deadline):
            loaded = reader.load(job)
            if loaded is not None:
                observed += 1
                assert loaded == result  # never torn, never mixed
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert observed > 0  # the race was actually exercised
        assert reader.stats.corrupt == 0
        assert reader.load(job) == result
