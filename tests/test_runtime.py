"""Tests for the runtime layer: executors, checkpoints, parallel studies.

The contract under test is the one the paper's deployment needs:

* a seeded study is identical serial or parallel (determinism);
* the collection layer crawls each frame exactly once, however many
  crawl threads a bulk crawl uses (politeness under rate limiting);
* a file-backed study survives interrupts and resumes completed
  geographies without recrawling a single frame (durability).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.collection import CollectionDatabase, CollectionManager, WorkItem
from repro.core import ContextConfig, RisingCache, SiftConfig
from repro.core.progress import (
    CacheStats,
    CheckpointHit,
    CrawlStats,
    GeoFinished,
    GeoStarted,
    ProgressLog,
    StudyFinished,
    StudyStarted,
    text_listener,
)
from repro.errors import CheckpointMismatchError, ConfigurationError, DatabaseError
from repro.runtime import (
    ProcessPoolStudyExecutor,
    StudyRuntime,
    make_executor,
)
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.ratelimit import RateLimitConfig, SimulatedClock
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig

from tests.conftest import MINI_GEOS, WINDOW_END, WINDOW_START


def build_runtime(**kwargs) -> StudyRuntime:
    """A compact deployment over the shared test window."""
    kwargs.setdefault("background_scale", 0.3)
    kwargs.setdefault("start", WINDOW_START)
    kwargs.setdefault("end", WINDOW_END)
    return StudyRuntime.build(**kwargs)


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


class TestExecutors:
    def test_make_executor_serial_for_one(self):
        # ``None`` runs the per-geography stage in-process; more than
        # one worker shards it across processes.
        assert make_executor(None) is None
        assert make_executor(1) is None
        assert isinstance(make_executor(4), ProcessPoolStudyExecutor)
        assert make_executor(4).max_workers == 4

    def test_negative_workers_raise_everywhere(self):
        # make_executor used to silently fall back to serial for
        # negative counts while the pool constructors raised.
        for kind in ("auto", "serial", "process"):
            with pytest.raises(ConfigurationError):
                make_executor(-3, kind)
        for workers in (-3, 0):
            with pytest.raises(ConfigurationError):
                ProcessPoolStudyExecutor(workers)

    def test_explicit_kinds_map_to_executors(self):
        assert make_executor(4, "serial") is None
        assert isinstance(make_executor(4, "process"), ProcessPoolStudyExecutor)
        assert make_executor(4, "process").max_workers == 4
        for kind in ("thread", "fibers"):
            with pytest.raises(ConfigurationError):
                make_executor(4, kind)

    def test_unbound_process_executor_refuses_to_shard(self):
        executor = ProcessPoolStudyExecutor(2)
        with pytest.raises(ConfigurationError, match="not bound"):
            executor.run_sharded_study(
                None, ("US-TX",), TimeWindow(WINDOW_START, WINDOW_END)
            )


class TestParallelDeterminism:
    def test_parallel_study_equals_serial_spike_for_spike(self):
        serial = build_runtime(max_workers=1).run_study(geos=MINI_GEOS)
        parallel = build_runtime(
            executor="process", max_workers=2
        ).run_study(geos=MINI_GEOS)

        assert spike_dicts(parallel) == spike_dicts(serial)
        assert parallel.heavy_hitters == serial.heavy_hitters
        assert parallel.suggestion_stats == serial.suggestion_stats
        assert [o.label for o in parallel.outages] == [
            o.label for o in serial.outages
        ]
        for geo in MINI_GEOS:
            assert np.array_equal(
                parallel.states[geo].timeline.values,
                serial.states[geo].timeline.values,
            )

    def test_heavy_hitters_is_sorted_tuple_even_without_seeds(self):
        config = SiftConfig(context=ContextConfig(seed_heavy_hitters=frozenset()))
        study = build_runtime(sift=config).run_study(geos=("US-WY",))
        assert isinstance(study.heavy_hitters, tuple)
        assert list(study.heavy_hitters) == sorted(study.heavy_hitters)


def build_collection(fetchers: int = 4):
    """A bare service + manager over a tiny quiet world."""
    scenario = Scenario.build(
        ScenarioConfig(
            start=utc(2021, 1, 1), end=utc(2021, 3, 1), background_scale=0.0
        )
    )
    clock = SimulatedClock()
    service = TrendsService(
        SearchPopulation(scenario),
        TrendsConfig(
            rate_limit=RateLimitConfig(burst=10_000, refill_per_second=1000)
        ),
        clock=clock,
    )
    manager = CollectionManager(service, sleep=clock.sleep, fetcher_count=fetchers)
    return service, manager


def build_workload(weeks_until=utc(2021, 2, 26)) -> list[WorkItem]:
    window = TimeWindow(utc(2021, 1, 1), weeks_until)
    return [
        WorkItem("Internet outage", geo, frame, include_rising=False)
        for geo in ("US-TX", "US-CA", "US-NY")
        for frame in weekly_frames(window)
    ]


class TestExactlyOnceCrawling:
    def test_parallel_execute_crawls_each_frame_once(self):
        service, manager = build_collection(fetchers=8)
        workload = build_workload()
        report = manager.prefetch(workload * 3, max_workers=8)

        assert service.stats.frames_served == len(workload)
        assert report.fetched == len(workload)
        assert report.served_from_cache == 2 * len(workload)
        assert report.requested == 3 * len(workload)

    def test_wall_clock_throughput_reported(self):
        _, manager = build_collection()
        report = manager.prefetch(build_workload(), max_workers=4)
        assert report.elapsed_seconds > 0.0
        assert report.frames_per_second > 0.0
        lifetime = manager.report()
        assert lifetime.fetched == report.fetched


class TestDatabaseThreadOwnership:
    @staticmethod
    def make_response(geo: str, week: TimeWindow, sample_round: int):
        request = TimeFrameRequest("Internet outage", geo, week)
        values = np.zeros(week.hours, dtype=np.int16)
        values[week.hours // 2] = 100
        return TimeFrameResponse(
            request=request,
            values=values,
            rising=(RisingTerm("power outage", 120),),
            sample_round=sample_round,
        )

    def test_use_from_another_thread_fails_loudly(self):
        # One connection, owned by the opening thread: a cross-thread
        # call must raise instead of racing the owner.
        database = CollectionDatabase()
        week = weekly_frames(TimeWindow(utc(2021, 1, 1), utc(2021, 1, 15)))[0]
        errors = []

        def write() -> None:
            try:
                database.store_frame(
                    self.make_response("US-TX", week, 0), fetched_by="writer"
                )
            except DatabaseError as error:
                errors.append(error)

        thread = threading.Thread(target=write)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert database.frame_count() == 0
        database.close()


class _InterruptAfter:
    """A progress listener that kills the study after N finished geos."""

    def __init__(self, geo_limit: int) -> None:
        self.geo_limit = geo_limit
        self.finished: list[str] = []

    def __call__(self, event) -> None:
        if isinstance(event, GeoFinished):
            self.finished.append(event.geo)
            if len(self.finished) >= self.geo_limit:
                raise KeyboardInterrupt("simulated operator interrupt")


class TestResume:
    #: Annotation disabled: the resumed run must need *zero* requests
    #: for completed geographies, daily rising frames included.
    config = SiftConfig(annotate=False)

    def test_interrupted_study_resumes_without_recrawling(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        interrupter = _InterruptAfter(geo_limit=2)
        first = build_runtime(
            database=db_path, sift=self.config, progress=interrupter
        )
        with pytest.raises(KeyboardInterrupt):
            first.run_study(geos=MINI_GEOS)
        first.close()
        completed = tuple(interrupter.finished)
        assert len(completed) == 2

        resumed_runtime = build_runtime(database=db_path, sift=self.config)
        study = resumed_runtime.run_study(geos=MINI_GEOS)

        assert study.resumed_geos == completed
        # The completed geographies never touched the service again.
        for geo in completed:
            assert resumed_runtime.service.stats.frames_by_geo[geo] == 0
        report = resumed_runtime.report()
        assert report.fetched > 0  # the remaining geographies did crawl

        fresh = build_runtime(sift=self.config).run_study(geos=MINI_GEOS)
        assert spike_dicts(study) == spike_dicts(fresh)
        for geo in MINI_GEOS:
            assert np.array_equal(
                study.states[geo].timeline.values,
                fresh.states[geo].timeline.values,
            )

    def test_second_run_resumes_every_geo_with_zero_fetches(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        build_runtime(database=db_path, sift=self.config).run_study(geos=MINI_GEOS)

        rerun = build_runtime(database=db_path, sift=self.config)
        study = rerun.run_study(geos=MINI_GEOS)

        assert study.resumed_geos == MINI_GEOS
        assert rerun.service.stats.frames_served == 0
        assert rerun.report().fetched == 0
        assert rerun.completed_geos() == tuple(sorted(MINI_GEOS))

    def test_checkpoint_ignores_mismatched_window(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        build_runtime(database=db_path, sift=self.config).run_study(geos=("US-WY",))

        other = build_runtime(
            database=db_path,
            sift=self.config,
            end=utc(2021, 2, 1),  # different study window, same file
        )
        study = other.run_study(geos=("US-WY",))
        # The stale checkpoint is ignored (the geography re-analyzes,
        # reusing raw frames from the shared frames table where windows
        # overlap), and the result carries the new window.
        assert study.resumed_geos == ()
        assert other.report().requested > 0
        assert study.window.end == utc(2021, 2, 1)

    def test_memory_runtime_does_not_resume_across_instances(self):
        first = build_runtime(sift=self.config)
        first.run_study(geos=("US-WY",))
        second = build_runtime(sift=self.config)
        study = second.run_study(geos=("US-WY",))
        assert study.resumed_geos == ()


class TestCheckpointBackends:
    """Resume refuses a reconstruction-backend mismatch (DESIGN.md §9).

    A window mismatch re-analyzes silently; a backend mismatch raises,
    because mixing timelines stitched under different calibration
    semantics would silently corrupt the study.
    """

    config = SiftConfig(annotate=False)

    def test_mismatched_stitcher_is_refused(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        build_runtime(database=db_path, sift=self.config).run_study(geos=("US-WY",))

        other = build_runtime(
            database=db_path,
            sift=SiftConfig(annotate=False, stitcher="calibrated"),
        )
        with pytest.raises(CheckpointMismatchError, match="overlap_ratio"):
            other.run_study(geos=("US-WY",))

    def test_mismatched_averager_is_refused(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        build_runtime(
            database=db_path,
            sift=SiftConfig(annotate=False, averager="noise_aware"),
        ).run_study(geos=("US-WY",))

        other = build_runtime(database=db_path, sift=self.config)
        with pytest.raises(CheckpointMismatchError, match="noise_aware"):
            other.run_study(geos=("US-WY",))

    def test_matching_alternate_backend_resumes(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        alternate = SiftConfig(
            annotate=False, stitcher="calibrated", averager="noise_aware"
        )
        build_runtime(database=db_path, sift=alternate).run_study(geos=("US-WY",))

        rerun = build_runtime(database=db_path, sift=alternate)
        study = rerun.run_study(geos=("US-WY",))
        assert study.resumed_geos == ("US-WY",)
        assert rerun.report().fetched == 0
        restored = study.states["US-WY"].averaging
        assert restored.stitcher == "calibrated"
        assert restored.averager == "noise_aware"

    def test_stitch_report_roundtrips_through_checkpoint(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        first = build_runtime(database=db_path, sift=self.config)
        fresh = first.run_study(geos=("US-WY",))
        saved = fresh.states["US-WY"].averaging.stitch_report

        rerun = build_runtime(database=db_path, sift=self.config)
        resumed = rerun.run_study(geos=("US-WY",))
        restored = resumed.states["US-WY"].averaging.stitch_report
        assert restored == saved
        assert restored.ratio_spread == saved.ratio_spread

    def test_legacy_checkpoint_without_backend_keys_is_default(self, tmp_path):
        """Checkpoints written before backends existed load as the
        default backend — and are refused by any alternate."""
        db_path = str(tmp_path / "study.db")
        runtime = build_runtime(database=db_path, sift=self.config)
        runtime.run_study(geos=("US-WY",))
        # Strip the backend keys, simulating a pre-backend database.
        meta = runtime.database.load_series_meta(self.config.term, "US-WY")
        for key in ("stitcher", "averager", "stitch_report"):
            meta.pop(key, None)
        spikes = runtime.database.load_spikes(term=self.config.term, geo="US-WY")
        start, values = runtime.database.load_series(self.config.term, "US-WY")
        runtime.database.store_checkpoint(
            self.config.term, "US-WY", start, values, meta, list(spikes)
        )
        runtime.close()

        default_rerun = build_runtime(database=db_path, sift=self.config)
        study = default_rerun.run_study(geos=("US-WY",))
        assert study.resumed_geos == ("US-WY",)
        restored = study.states["US-WY"].averaging
        assert (restored.stitcher, restored.averager) == ("overlap_ratio", "mean")
        assert restored.stitch_report.frames == 0  # no report recorded

        alternate = build_runtime(
            database=db_path,
            sift=SiftConfig(annotate=False, averager="noise_aware"),
        )
        with pytest.raises(CheckpointMismatchError):
            alternate.run_study(geos=("US-WY",))


class TestRisingCache:
    def test_lru_eviction_respects_capacity(self):
        cache = RisingCache(capacity=2)
        day = utc(2021, 1, 1)
        cache.put(("US-TX", day), ())
        cache.put(("US-CA", day), ())
        assert cache.get(("US-TX", day)) is not None  # refresh TX
        cache.put(("US-NY", day), ())  # evicts CA, the LRU entry
        assert len(cache) == 2
        assert cache.get(("US-CA", day)) is None
        assert cache.get(("US-TX", day)) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RisingCache(capacity=0)

    def test_stats_event_reports_hits_and_misses(self):
        cache = RisingCache(capacity=8)
        day = utc(2021, 1, 1)
        cache.get(("US-TX", day))
        cache.put(("US-TX", day), ())
        cache.get(("US-TX", day))
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)


class TestProgressEvents:
    def test_study_emits_structured_sequence(self):
        log = ProgressLog()
        runtime = build_runtime(progress=log)
        runtime.run_study(geos=("US-WY", "US-OK"))

        events = log.events()
        assert isinstance(events[0], StudyStarted)
        assert isinstance(events[-1], StudyFinished)
        started = [e.geo for e in log.of_type(GeoStarted)]
        finished = [e.geo for e in log.of_type(GeoFinished)]
        assert sorted(started) == ["US-OK", "US-WY"]
        assert sorted(finished) == ["US-OK", "US-WY"]
        crawl = log.of_type(CrawlStats)
        assert len(crawl) == 1
        assert crawl[0].fetched > 0
        assert crawl[0].frames_per_second > 0
        assert log.of_type(CacheStats)[0].misses > 0

    def test_resume_emits_checkpoint_hits(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        config = SiftConfig(annotate=False)
        build_runtime(database=db_path, sift=config).run_study(geos=("US-WY",))

        log = ProgressLog()
        rerun = build_runtime(database=db_path, sift=config, progress=log)
        rerun.run_study(geos=("US-WY",))

        hits = log.of_type(CheckpointHit)
        assert [hit.geo for hit in hits] == ["US-WY"]
        finished = log.of_type(GeoFinished)
        assert finished[0].from_checkpoint is True

    def test_event_dicts_are_json_safe(self):
        event = StudyStarted(
            geos=("US-TX",), window=TimeWindow(utc(2021, 1, 1), utc(2021, 2, 1))
        )
        payload = event.to_dict()
        assert payload["type"] == "StudyStarted"
        assert payload["geos"] == ["US-TX"]
        assert payload["window"]["start"] == "2021-01-01T00:00:00+00:00"
        assert "1 geographies" in payload["message"]

    def test_text_listener_renders_lines(self):
        lines: list[str] = []
        listener = text_listener(lines.append)
        listener(GeoStarted(geo="US-TX", index=0, total=4))
        assert lines == ["analyzing US-TX (1/4)"]


class TestStudyRuntimeWiring:
    def test_build_wires_shared_database(self):
        runtime = build_runtime()
        assert runtime.manager.database is runtime.database
        assert runtime.sift.checkpoint is runtime.checkpoint
        assert runtime.checkpoint is not None
        assert runtime.checkpoint.database is runtime.database

    def test_checkpoint_disabled(self):
        runtime = build_runtime(checkpoint=False)
        assert runtime.checkpoint is None
        assert runtime.completed_geos() == ()

    def test_context_manager_closes_database(self, tmp_path):
        with build_runtime(database=str(tmp_path / "study.db")) as runtime:
            runtime.analyze_state("US-WY")
        with pytest.raises(DatabaseError):
            runtime.database.frame_count()

    def test_scenario_injection_defaults_window(self):
        scenario = Scenario.build(
            ScenarioConfig(
                start=utc(2021, 4, 1), end=utc(2021, 5, 1), background_scale=0.0
            )
        )
        runtime = StudyRuntime.build(scenario=scenario)
        assert runtime.window == scenario.window
        assert runtime.scenario is scenario

    def test_injected_world_is_never_sharded(self):
        # Shard workers rebuild their world from the config alone, so
        # sharding an injected scenario would silently study another
        # world; it is refused, and in-process runs still accept it.
        scenario = Scenario.build(
            ScenarioConfig(
                start=utc(2021, 4, 1), end=utc(2021, 5, 1), background_scale=0.0
            )
        )
        for options in ({"max_workers": 2}, {"executor": "process"}):
            with pytest.raises(ConfigurationError, match="injected"):
                StudyRuntime.build(scenario=scenario, **options)
        runtime = StudyRuntime.build(scenario=scenario, max_workers=2, executor="serial")
        assert runtime.executor is None


class TestResumeUnderFaults:
    """Checkpoint durability composes with chaos (the fault injector).

    An interrupted chaos run must resume exactly like a fault-free one:
    completed geographies never touch the service again, and because the
    fault schedule is keyed by request identity (not arrival order), the
    resumed study lands on the same spikes as an uninterrupted run under
    the same ``(profile, seed)``.
    """

    config = SiftConfig(annotate=False)
    chaos = dict(faults="transient", fault_seed=11)

    def test_interrupted_chaos_run_resumes_without_refetching(self, tmp_path):
        db_path = str(tmp_path / "study.db")
        interrupter = _InterruptAfter(geo_limit=2)
        first = build_runtime(
            database=db_path, sift=self.config, progress=interrupter, **self.chaos
        )
        with pytest.raises(KeyboardInterrupt):
            first.run_study(geos=MINI_GEOS)
        assert first.fault_report().total_injected > 0  # chaos fired pre-interrupt
        first.close()
        completed = tuple(interrupter.finished)
        assert len(completed) == 2

        resumed = build_runtime(database=db_path, sift=self.config, **self.chaos)
        study = resumed.run_study(geos=MINI_GEOS)
        assert study.resumed_geos == completed
        # Zero refetches: the checkpointed geographies are served from
        # the database, faults and all.
        for geo in completed:
            assert resumed.service.stats.frames_by_geo[geo] == 0
        assert resumed.report().fetched > 0  # the rest did crawl
        assert resumed.fault_report().dead_letters == 0

        fresh = build_runtime(sift=self.config, **self.chaos)
        uninterrupted = fresh.run_study(geos=MINI_GEOS)
        assert spike_dicts(study) == spike_dicts(uninterrupted)
        for geo in MINI_GEOS:
            assert np.array_equal(
                study.states[geo].timeline.values,
                uninterrupted.states[geo].timeline.values,
            )
