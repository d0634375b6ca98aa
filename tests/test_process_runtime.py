"""Tests for the process-sharded study executor.

The contract: a study run on geography-sharded worker processes is
**byte-identical** to the same study run serially, at any worker count; shard partitions merge deterministically into the parent
stores; resume works across executor switches with zero refetches; and
the workers' structured progress (including per-shard wall-clock and
peak RSS) reaches the parent listener.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import SiftConfig
from repro.core.progress import GeoFinished, ProgressLog, ShardStats
from repro.runtime import StudyRuntime
from repro.runtime.shard import database_partition

from tests.conftest import MINI_GEOS, WINDOW_END, WINDOW_START


def build_runtime(**kwargs) -> StudyRuntime:
    kwargs.setdefault("background_scale", 0.3)
    kwargs.setdefault("start", WINDOW_START)
    kwargs.setdefault("end", WINDOW_END)
    return StudyRuntime.build(**kwargs)


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


class TestProcessDeterminism:
    @pytest.fixture(scope="class")
    def serial_study(self):
        return build_runtime(max_workers=1).run_study(geos=MINI_GEOS)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_study_identical_to_serial(self, serial_study, workers):
        study = build_runtime(
            max_workers=workers, executor="process"
        ).run_study(geos=MINI_GEOS)
        assert study.fingerprint() == serial_study.fingerprint()
        assert spike_dicts(study) == spike_dicts(serial_study)
        assert study.heavy_hitters == serial_study.heavy_hitters
        assert study.suggestion_stats == serial_study.suggestion_stats
        for geo in MINI_GEOS:
            assert (
                study.states[geo].timeline.values.tobytes()
                == serial_study.states[geo].timeline.values.tobytes()
            )


class TestShardPartitions:
    config = SiftConfig(annotate=False)

    def test_partitions_merge_into_main_database(self, tmp_path):
        db = str(tmp_path / "study.sqlite3")
        runtime = build_runtime(
            max_workers=2, executor="process", database=db, sift=self.config
        )
        study = runtime.run_study(geos=MINI_GEOS)
        assert len(study.states) == len(MINI_GEOS)
        # The workers' crawl accounting reaches the parent report.
        assert runtime.report().fetched > 0
        # Every geography's checkpoint landed in the *main* database...
        assert set(runtime.database.series_geos("Internet outage")) == set(
            MINI_GEOS
        )
        runtime.close()
        # ...and the shard partition files are gone.
        for shard in range(2):
            assert not os.path.exists(database_partition(db, shard))
        leftovers = [
            name for name in os.listdir(tmp_path) if ".shard" in name
        ]
        assert leftovers == []

    def test_merged_database_equals_serial_database(self, tmp_path):
        serial_db = str(tmp_path / "serial.sqlite3")
        sharded_db = str(tmp_path / "sharded.sqlite3")
        serial = build_runtime(database=serial_db, sift=self.config)
        serial.run_study(geos=MINI_GEOS)
        sharded = build_runtime(
            max_workers=4, executor="process", database=sharded_db,
            sift=self.config,
        )
        sharded.run_study(geos=MINI_GEOS)
        for geo in MINI_GEOS:
            lhs = serial.database.load_series("Internet outage", geo)
            rhs = sharded.database.load_series("Internet outage", geo)
            assert lhs is not None and rhs is not None
            assert lhs[0] == rhs[0]
            assert np.array_equal(lhs[1], rhs[1])
        serial.close()
        sharded.close()


class TestResumeAcrossExecutors:
    config = SiftConfig(annotate=False)

    def test_zero_refetch_resume_after_executor_switch(self, tmp_path):
        db = str(tmp_path / "study.sqlite3")
        first = build_runtime(database=db, sift=self.config)
        fresh = first.run_study(geos=MINI_GEOS)
        assert first.report().requested > 0
        first.close()

        resumed = build_runtime(
            max_workers=2, executor="process", database=db, sift=self.config
        )
        study = resumed.run_study(geos=MINI_GEOS)
        assert resumed.report().requested == 0
        assert study.resumed_geos == MINI_GEOS
        for geo in MINI_GEOS:
            assert (
                study.states[geo].timeline.values.tobytes()
                == fresh.states[geo].timeline.values.tobytes()
            )
        resumed.close()

    def test_partial_checkpoint_only_crawls_missing_geos(self, tmp_path):
        db = str(tmp_path / "study.sqlite3")
        first = build_runtime(database=db, sift=self.config)
        first.run_study(geos=MINI_GEOS[:2])
        first.close()

        log = ProgressLog()
        second = build_runtime(
            max_workers=2, executor="process", database=db,
            sift=self.config, progress=log,
        )
        study = second.run_study(geos=MINI_GEOS)
        assert study.resumed_geos == MINI_GEOS[:2]
        # The crawl happened inside the worker processes; their
        # accounting arrives as forwarded CrawlStats events AND is
        # folded into the parent's lifetime report.
        from repro.core.progress import CrawlStats

        worker_requested = sum(
            event.requested for event in log.of_type(CrawlStats)
        )
        assert worker_requested > 0
        assert second.report().requested == worker_requested
        assert set(study.states) == set(MINI_GEOS)
        second.close()


class TestShardProgress:
    def test_worker_events_reach_the_parent_listener(self):
        log = ProgressLog()
        runtime = build_runtime(
            max_workers=2, executor="process", progress=log,
            sift=SiftConfig(annotate=False),
        )
        runtime.run_study(geos=MINI_GEOS)
        finished = {event.geo for event in log.of_type(GeoFinished)}
        assert finished == set(MINI_GEOS)
        shards = log.of_type(ShardStats)
        assert {event.shard for event in shards} == {0, 1}
        for event in shards:
            assert event.executor == "process"
            assert event.worker_count == 2
            assert event.elapsed_seconds > 0
            # RSS comes from resource.getrusage; non-negative always,
            # positive wherever the resource module exists.
            assert event.peak_rss_kb >= 0

    def test_serial_run_reports_its_own_shard_stats(self):
        log = ProgressLog()
        runtime = build_runtime(progress=log, sift=SiftConfig(annotate=False))
        runtime.run_study(geos=MINI_GEOS[:2])
        shards = log.of_type(ShardStats)
        assert len(shards) == 1
        assert shards[0].executor == "serial"
        assert shards[0].geo_count == 2


class TestExecutionTelemetry:
    def test_api_runtime_reports_execution_and_shards(self):
        from repro.web import SiftWebApp
        import json

        log = ProgressLog()
        runtime = build_runtime(
            max_workers=2, executor="process", progress=log,
            sift=SiftConfig(annotate=False),
        )
        study = runtime.run_study(geos=MINI_GEOS)
        app = SiftWebApp(
            study, progress_log=log, execution=runtime.execution_info()
        )
        status, _type, body = app.handle_path("/api/runtime")
        assert status == 200
        execution = json.loads(body)["execution"]
        assert execution["executor"] == "process"
        assert execution["max_workers"] == 2
        shard_rows = execution["shards"]
        assert {row["shard"] for row in shard_rows} == {0, 1}
        assert all(row["peak_rss_kb"] >= 0 for row in shard_rows)
