"""The SIFT orchestrator: input -> frames -> timeline -> spikes -> context.

:class:`Sift` wires the whole workflow of the paper's Fig. 2 together:

1. partition the requested time range into consecutive, overlapping
   weekly frames (step 2 in the figure);
2. crawl them from the Trends service through a frame source — a plain
   :class:`repro.trends.TrendsClient` or the collection layer's
   rate-limit-aware multi-fetcher frontend (steps 3-5);
3. average re-fetch rounds until the spike set converges, stitching and
   renormalizing each round (step 6);
4. detect spikes and rank them by magnitude within each geography
   (step 7);
5. annotate each spike with clustered rising suggestions from a daily
   frame around its peak, and group concurrent spikes across
   geographies into outages (steps 8-9).

``run_study`` executes this per state over an arbitrary set of
geographies — the paper's two-year, 51-geography study is
``run_study(all_geos, two_year_window)``.  The per-geography stage runs
in-process or, with a process executor, sharded across worker
processes (see :mod:`repro.runtime.executor`); results are reassembled
in geography order, so a seeded study is byte-identical whether it ran
in one process or eight.  When a checkpoint store is attached (see
:mod:`repro.runtime.checkpoint`), completed geographies are persisted
as they finish and an interrupted study resumes them from the database
instead of recrawling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict
from datetime import datetime
from typing import TYPE_CHECKING

from repro.core.averaging import (
    AveragingConfig,
    AveragingResult,
    MissingFrame,
)
from repro.core.area import AreaConfig, Outage, group_outages
from repro.core.context import ContextConfig, SpikeAnnotator
from repro.core.detection import DetectionConfig
from repro.core.nlp import PhraseClusterer
from repro.core.reconstruct import make_averager, stitcher_factory
from repro.core.progress import (
    AnnotationStarted,
    CacheStats,
    CheckpointHit,
    CrawlStats,
    FaultStats,
    FramesDropped,
    GeoFinished,
    GeoStarted,
    ProgressEvent,
    ProgressListener,
    ShardStats,
    StudyFinished,
    StudyStarted,
    peak_rss_kb,
)
from repro.core.series import HourlyTimeline
from repro.core.spikes import Spike, SpikeSet
from repro.errors import FrameDeadLettered
from repro.timeutil import TimeWindow, daily_frame, weekly_frames
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.runtime.executor import ProcessPoolStudyExecutor


class FrameSource:
    """What the pipeline needs from a crawler (structural protocol).

    :class:`repro.trends.TrendsClient` and the collection layer's
    :class:`repro.collection.CollectionManager` both satisfy it.
    """

    def interest_over_time(
        self,
        term: str,
        geo: str,
        window: TimeWindow,
        sample_round: int | None = None,
        include_rising: bool = True,
    ) -> TimeFrameResponse:
        raise NotImplementedError


class StudyCheckpoint:
    """What ``run_study`` needs to resume (structural protocol).

    The runtime layer's :class:`repro.runtime.DatabaseCheckpoint`
    persists through the collection database; anything matching this
    shape works.
    """

    def load_state(self, geo: str, window: TimeWindow) -> "StateResult | None":
        raise NotImplementedError

    def save_state(self, result: "StateResult", window: TimeWindow) -> None:
        raise NotImplementedError

    def save_annotated(self, spikes: SpikeSet) -> None:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True, slots=True)
class SiftConfig:
    """End-to-end pipeline configuration."""

    term: str = "Internet outage"
    overlap_hours: int = 24
    averaging: AveragingConfig = dataclasses.field(default_factory=AveragingConfig)
    detection: DetectionConfig = dataclasses.field(default_factory=DetectionConfig)
    area: AreaConfig = dataclasses.field(default_factory=AreaConfig)
    context: ContextConfig = dataclasses.field(default_factory=ContextConfig)
    annotate: bool = True
    #: Reconstruction backends by registry name (see
    #: :mod:`repro.core.reconstruct`); the defaults reproduce the
    #: paper's overlap-ratio stitching and flat running means.
    stitcher: str = "overlap_ratio"
    averager: str = "mean"


@dataclasses.dataclass(frozen=True)
class StateResult:
    """Everything SIFT learned about one geography."""

    geo: str
    timeline: HourlyTimeline
    spikes: SpikeSet
    averaging: AveragingResult


@dataclasses.dataclass(frozen=True)
class StudyResult:
    """Everything SIFT learned across a multi-geography study."""

    window: TimeWindow
    spikes: SpikeSet  # all states, annotated when enabled
    outages: list[Outage]
    states: dict[str, StateResult]
    heavy_hitters: tuple[str, ...]
    suggestion_stats: tuple[int, int]  # (distinct terms, total suggestions)
    resumed_geos: tuple[str, ...] = ()  # served from checkpoints, not crawled

    @property
    def spike_count(self) -> int:
        return len(self.spikes)

    def spikes_in_year(self, year: int) -> SpikeSet:
        return self.spikes.in_year(year)

    def fingerprint(self) -> str:
        """Stable content digest of this study snapshot.

        The serving layer derives strong ETags and cache invalidation
        from it: two studies with identical timelines, spikes and
        outages share a fingerprint, and any content change — a value,
        an annotation, a resumed geography — produces a new one.

        Memoized: the streaming daemon fingerprints every tick's
        snapshot (once for the delta install, once for the tick
        result), and a result's content never changes after assembly.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        digest.update(self.window.start.isoformat().encode())
        digest.update(self.window.end.isoformat().encode())
        for geo in sorted(self.states):
            result = self.states[geo]
            digest.update(geo.encode())
            digest.update(result.timeline.start.isoformat().encode())
            digest.update(result.timeline.values.tobytes())
        for spike in self.spikes:
            digest.update(
                f"{spike.geo}|{spike.peak.isoformat()}|{spike.magnitude!r}|"
                f"{'|'.join(spike.annotations)}".encode()
            )
        digest.update(str(len(self.outages)).encode())
        digest.update("|".join(self.resumed_geos).encode())
        fingerprint = digest.hexdigest()[:16]
        # Frozen but not slotted: stash directly in the instance dict.
        self.__dict__["_fingerprint"] = fingerprint
        return fingerprint


class RisingCache:
    """A capacity-bounded LRU over daily rising-term fetches.

    A two-year study touches one daily frame per (geo, spike day); the
    cache used to grow without bound.  Eviction is safe — a re-fetch of
    the same daily frame is deterministic — so a small cap holds the
    memory ceiling while keeping the hit rate high (spikes cluster on
    outage days).
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple[str, datetime], tuple[RisingTerm, ...]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[str, datetime]) -> tuple[RisingTerm, ...] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple[str, datetime], value: tuple[RisingTerm, ...]) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._entries),
            capacity=self.capacity,
        )


class Sift:
    """The detection and analysis tool, end to end."""

    def __init__(
        self,
        source: FrameSource,
        config: SiftConfig | None = None,
        progress: ProgressListener | None = None,
        executor: ProcessPoolStudyExecutor | None = None,
        checkpoint: StudyCheckpoint | None = None,
        rising_cache_size: int = 2048,
    ) -> None:
        self.source = source
        self.config = config or SiftConfig()
        # Resolved once: unknown backend names fail at construction,
        # not mid-study.
        self.averager = make_averager(self.config.averager)
        self.stitcher_factory = stitcher_factory(self.config.stitcher)
        self.clusterer = PhraseClusterer()
        self.executor = executor  # None runs the per-geography stage in-process
        self.checkpoint = checkpoint
        self._progress = progress
        self._progress_lock = threading.Lock()
        self._rising_cache = RisingCache(rising_cache_size)

    # -- workflow steps ----------------------------------------------------------

    def fetch_week_frames(
        self, geo: str, window: TimeWindow, sample_round: int
    ) -> list[TimeFrameResponse | MissingFrame]:
        """Crawl one full round of weekly frames for a geography.

        Rising suggestions ride along only on the first round: they are
        frame metadata, not sampled values, and re-fetching them would
        only burn request budget (exactly what a crawler must avoid
        under IP rate limiting).

        A frame the collection layer dead-letters (see DESIGN.md §7)
        comes back as a :class:`MissingFrame` placeholder — the
        averaging loop tolerates a bounded fraction of those — instead
        of aborting the geography.
        """
        frames = weekly_frames(window, self.config.overlap_hours)
        entries: list[TimeFrameResponse | MissingFrame] = []
        for frame in frames:
            try:
                entries.append(
                    self.source.interest_over_time(
                        self.config.term,
                        geo,
                        frame,
                        sample_round=sample_round,
                        include_rising=(sample_round == 0),
                    )
                )
            except FrameDeadLettered as error:
                entries.append(
                    MissingFrame(
                        request=TimeFrameRequest(
                            term=self.config.term, geo=geo, window=frame
                        ),
                        sample_round=sample_round,
                        error=str(error),
                    )
                )
        return entries

    def build_timeline(self, geo: str, window: TimeWindow) -> AveragingResult:
        """Reconstruct the calibrated continuous series for a geography."""
        return self.averager.average(
            lambda round_index: self.fetch_week_frames(geo, window, round_index),
            config=self.config.averaging,
            detection=self.config.detection,
            stitcher_factory=self.stitcher_factory,
        )

    def analyze_state(self, geo: str, window: TimeWindow) -> StateResult:
        """Timeline + ranked spikes for one geography."""
        result, _ = self._analyze_or_resume(geo, window, index=0, total=1)
        return result

    def _resume_from_checkpoint(
        self, geo: str, window: TimeWindow, index: int, total: int
    ) -> StateResult | None:
        """A checkpointed result for *geo* (with progress events), or None.

        Shared by the inline per-geography stage and the sharded driver
        (:mod:`repro.runtime.shard`), which resumes in the parent before
        dispatching work to worker processes.
        """
        if self.checkpoint is None:
            return None
        restored = self.checkpoint.load_state(geo, window)
        if restored is None:
            return None
        self._emit(CheckpointHit(geo=geo, spike_count=len(restored.spikes)))
        self._emit(
            GeoFinished(
                geo=geo,
                index=index,
                total=total,
                spike_count=len(restored.spikes),
                rounds_used=restored.averaging.rounds_used,
                converged=restored.averaging.converged,
                from_checkpoint=True,
                elapsed_seconds=0.0,
            )
        )
        return restored

    def _analyze_or_resume(
        self, geo: str, window: TimeWindow, index: int, total: int
    ) -> tuple[StateResult, bool]:
        """One geography's result, from the checkpoint when possible."""
        restored = self._resume_from_checkpoint(geo, window, index, total)
        if restored is not None:
            return restored, True
        self._emit(GeoStarted(geo=geo, index=index, total=total))
        started = time.perf_counter()
        averaging = self.build_timeline(geo, window)
        if averaging.missing_frames:
            self._emit(
                FramesDropped(
                    geo=geo,
                    dropped=len(averaging.missing_frames),
                    rounds_used=averaging.rounds_used,
                )
            )
        result = StateResult(
            geo=geo,
            timeline=averaging.timeline,
            spikes=averaging.spikes,
            averaging=averaging,
        )
        if self.checkpoint is not None:
            self.checkpoint.save_state(result, window)
        self._emit(
            GeoFinished(
                geo=geo,
                index=index,
                total=total,
                spike_count=len(result.spikes),
                rounds_used=averaging.rounds_used,
                converged=averaging.converged,
                from_checkpoint=False,
                elapsed_seconds=time.perf_counter() - started,
            )
        )
        return result, False

    def daily_rising(self, geo: str, peak: datetime) -> tuple[RisingTerm, ...]:
        """Fine-grained rising terms for a spike day (LRU-cached per day)."""
        day = daily_frame(peak)
        key = (geo, day.start)
        cached = self._rising_cache.get(key)
        if cached is None:
            response = self.source.interest_over_time(
                self.config.term, geo, day, sample_round=0, include_rising=True
            )
            cached = response.rising
            self._rising_cache.put(key, cached)
        return cached

    @property
    def rising_cache(self) -> RisingCache:
        return self._rising_cache

    # -- the full study -------------------------------------------------------------

    def run_study(self, geos: list[str] | tuple[str, ...], window: TimeWindow) -> StudyResult:
        """The paper's workflow over many geographies.

        Per-geography analysis runs in-process when ``self.executor``
        is ``None`` and sharded across worker processes otherwise; the
        result list is reassembled in the order the geographies were
        given, which keeps seeded runs deterministic at any worker
        count.  Annotation and area grouping need the whole spike set,
        so they stay in the calling process.
        """
        geos = tuple(geos)
        total = len(geos)
        self._emit(StudyStarted(geos=geos, window=window))

        stage_started = time.perf_counter()
        if self.executor is None:
            outcomes = [
                self._analyze_or_resume(geo, window, index=index, total=total)
                for index, geo in enumerate(geos)
            ]
            # In-process execution is one "shard": report its wall-clock
            # and peak RSS so every executor exposes a memory profile.
            self._emit(
                ShardStats(
                    shard=0,
                    executor="serial",
                    worker_count=1,
                    geo_count=total,
                    elapsed_seconds=time.perf_counter() - stage_started,
                    peak_rss_kb=peak_rss_kb(),
                )
            )
        else:
            # The process executor drives the whole stage itself: parent
            # resume, shard dispatch, progress forwarding, partition
            # merge (see repro.runtime.shard).  Workers emit their own
            # ShardStats from inside each process.
            outcomes = self.executor.run_sharded_study(self, geos, window)
        states = {geo: result for geo, (result, _) in zip(geos, outcomes)}
        resumed = tuple(
            geo for geo, (_, from_checkpoint) in zip(geos, outcomes) if from_checkpoint
        )
        all_spikes: list[Spike] = []
        for geo in geos:
            all_spikes.extend(states[geo].spikes)

        annotator = SpikeAnnotator(
            fetch_rising=self.daily_rising,
            clusterer=self.clusterer,
            config=self.config.context,
        )
        if self.config.annotate and all_spikes:
            self._emit(AnnotationStarted(spike_count=len(all_spikes)))
            all_spikes = annotator.annotate_all(all_spikes, two_pass=True)
        spike_set = SpikeSet(all_spikes)
        outages = group_outages(spike_set, self.config.area)
        if self.checkpoint is not None:
            self.checkpoint.save_annotated(spike_set)
        self._emit(self._rising_cache.stats())
        self._emit_crawl_stats()
        self._emit(
            StudyFinished(
                geo_count=total,
                spike_count=len(spike_set),
                outage_count=len(outages),
                resumed_geos=resumed,
            )
        )
        return StudyResult(
            window=window,
            spikes=spike_set,
            outages=outages,
            states=states,
            heavy_hitters=tuple(sorted(annotator.heavy_hitters)),
            suggestion_stats=(
                annotator.analyzer.distinct_terms,
                annotator.analyzer.total_suggestions,
            ),
            resumed_geos=resumed,
        )

    # -- progress ---------------------------------------------------------------

    def _emit(self, event: ProgressEvent) -> None:
        if self._progress is None:
            return
        # The process executor's event-drain thread emits too; keep
        # listener invocations serialized.
        with self._progress_lock:
            self._progress(event)

    def _emit_crawl_stats(self) -> None:
        if self._progress is None:
            return
        report_fn = getattr(self.source, "report", None)
        if report_fn is not None:
            report = report_fn()
            self._emit(
                CrawlStats(
                    requested=report.requested,
                    fetched=report.fetched,
                    served_from_cache=report.served_from_cache,
                    retries=report.retries,
                    elapsed_seconds=report.elapsed_seconds,
                    frames_per_second=report.frames_per_second,
                    dead_lettered=getattr(report, "dead_lettered", 0),
                )
            )
        fault_fn = getattr(self.source, "fault_report", None)
        if fault_fn is not None:
            faults = fault_fn()
            if faults is not None:
                self._emit(FaultStats(**faults.to_dict()))
