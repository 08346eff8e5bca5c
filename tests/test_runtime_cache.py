"""Tests of the on-disk result cache: round trips, corruption, knobs."""

import json
import os
import pathlib

import pytest

from repro.assign.base import StrategySpec
from repro.cluster.config import MachineConfig
from repro.core.simulator import SimResult
from repro.runtime import ResultCache, SimJob


pytestmark = pytest.mark.usefixtures("isolated_runtime")


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


class TestRoundTrip:
    def test_store_then_load_is_lossless(self):
        cache = ResultCache()
        job, result = make_job(), make_result()
        cache.store(job, result, elapsed=0.5)
        assert cache.load(job) == result
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_simresult_dict_json_round_trip(self):
        result = make_result()
        revived = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert revived == result

    def test_from_dict_rejects_missing_and_unknown_fields(self):
        payload = make_result().to_dict()
        payload.pop("ipc")
        with pytest.raises(ValueError, match="ipc"):
            SimResult.from_dict(payload)
        payload = make_result().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            SimResult.from_dict(payload)

    def test_different_jobs_do_not_collide(self):
        cache = ResultCache()
        cache.store(make_job(), make_result())
        assert cache.load(make_job(instructions=9_999)) is None


class TestCorruption:
    def test_truncated_entry_is_a_miss_and_dropped(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        path = cache.path_for(job)
        pathlib.Path(path).write_text('{"schema": 1, "result": {tru')
        assert cache.load(job) is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)
        # The slot is usable again afterwards.
        cache.store(job, make_result())
        assert cache.load(job) == make_result()

    def test_schema_drift_is_a_miss(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        path = cache.path_for(job)
        payload = json.loads(pathlib.Path(path).read_text())
        payload["schema"] = 9_999
        pathlib.Path(path).write_text(json.dumps(payload))
        assert cache.load(job) is None
        assert cache.stats.corrupt == 1

    def test_result_field_drift_is_a_miss(self):
        cache = ResultCache()
        job = make_job()
        cache.store(job, make_result())
        path = cache.path_for(job)
        payload = json.loads(pathlib.Path(path).read_text())
        del payload["result"]["ipc"]
        pathlib.Path(path).write_text(json.dumps(payload))
        assert cache.load(job) is None


class TestKnobs:
    def test_no_cache_env_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache()
        assert not cache.enabled
        cache.store(make_job(), make_result())
        assert cache.load(make_job()) is None
        assert not (tmp_path / "cache").exists()

    def test_cache_dir_env_respected(self, tmp_path):
        cache = ResultCache()
        assert cache.root == str(tmp_path / "cache")
        cache.store(make_job(), make_result())
        assert list((tmp_path / "cache").rglob("*.json"))

    def test_explicit_root_wins_over_env(self, tmp_path):
        cache = ResultCache(root=tmp_path / "elsewhere")
        cache.store(make_job(), make_result())
        assert list((tmp_path / "elsewhere").rglob("*.json"))

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache()
        for seed in range(5):
            cache.store(make_job(seed=seed), make_result())
        leftovers = [p for p in (tmp_path / "cache").rglob("*")
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_ad_hoc_program_jobs_bypass_cache(self, tmp_path):
        from repro.workloads.generator import generate_program
        from repro.workloads.profiles import profile_for

        cache = ResultCache()
        job = make_job(benchmark=generate_program(profile_for("gzip")))
        cache.store(job, make_result())
        assert cache.load(job) is None
        assert not (tmp_path / "cache").exists()
