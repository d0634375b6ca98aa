"""The streaming study daemon: batch SIFT turned into a watch loop.

Batch SIFT crawls every weekly frame of the window, for every fetch
round, before a single spike exists.  The :class:`StudyDaemon` runs the
same pipeline as a sequence of *ticks*: each tick crawls only the
newest weekly frame (for a fixed number of sample rounds), folds it
through the configured averager, feeds the already-incremental
:class:`~repro.core.reconstruct.base.Stitcher`, re-walks detection over
the dirty tail only (:class:`~repro.streaming.detector.TailDetector`),
and publishes a delta snapshot into the serving layer.

Byte-identity with batch rests on three structural facts:

* the weekly frame partition of any prefix window ``[start,
  frames[t].end)`` is exactly frames ``0..t`` of the full partition
  (``weekly_frames`` right-aligns the final frame, which for a prefix
  window coincides with the regular grid);
* per-frame averaging folds are frame-independent, so folding one
  frame's rounds at its tick produces the same means as batch folding
  whole rounds — provided the round count is fixed
  (``AveragingConfig(min_rounds=R, max_rounds=R)``);
* the prominence walk never crosses zero hours, so detection restricted
  to the trailing dirty segment equals batch detection restricted to
  the same hours (DESIGN.md §12).

A killed watcher resumes mid-stream with zero refetch: stream state
(stitcher scalars, spike bounds, raw series) checkpoints into the
columnar store every ``StreamConfig.checkpoint_every`` ticks.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.averaging import AveragingResult, MissingFrame
from repro.core.area import group_outages
from repro.core.context import SpikeAnnotator
from repro.core.detection import SpikeBounds
from repro.core.pipeline import StateResult, StudyResult
from repro.core.progress import (
    AnnotationStarted,
    FramesDropped,
    GeoRecrawled,
    SpikePublished,
    StreamResumed,
    StudyFinished,
    TickFinished,
)
from repro.core.spikes import Spike, SpikeSet
from repro.errors import (
    CheckpointMismatchError,
    CollectionError,
    ConfigurationError,
    FrameDeadLettered,
)
from repro.streaming.config import StreamConfig
from repro.streaming.delta import GeoDelta, StudyDelta
from repro.streaming.detector import DetectionDelta, TailDetector
from repro.timeutil import TimeWindow, weekly_frames
from repro.trends.records import TimeFrameRequest, TimeFrameResponse

if TYPE_CHECKING:
    from repro.runtime.study import StudyRuntime
    from repro.web.app import SiftWebApp


@dataclasses.dataclass(frozen=True, slots=True)
class TickResult:
    """What one tick accomplished."""

    tick: int
    frame: TimeWindow
    published: tuple[Spike, ...]
    removed: int
    spike_count: int
    elapsed_seconds: float
    #: Of ``elapsed_seconds``, what the crawl of the newest frame cost.
    #: Any strategy pays this exactly once per new week, so benchmarks
    #: comparing incremental processing against a cache-hot full
    #: rebuild subtract it to keep both sides crawl-free.
    fetch_seconds: float
    fingerprint: str


class GeoStream:
    """One geography's incremental ingest state."""

    __slots__ = (
        "term",
        "geo",
        "averager",
        "stitcher",
        "detector",
        "rounds",
        "responses",
        "missing",
        "missing_by_round",
        "ticks_fed",
        "last_delta",
        "prev_hours",
        "prev_peak",
        "reused",
        "_raw",
        "_cached_spikes",
    )

    def __init__(self, term, geo, averager, stitcher, detection, rounds) -> None:
        self.term = term
        self.geo = geo
        self.averager = averager
        self.stitcher = stitcher
        self.detector = TailDetector(detection)
        self.rounds = rounds
        self.responses: list[TimeFrameResponse] = []
        self.missing: list[MissingFrame] = []
        self.missing_by_round: dict[int, int] = {}
        self.ticks_fed = 0
        self.last_delta: DetectionDelta | None = None
        self.prev_hours = 0
        self.prev_peak = 0.0
        #: Did the last :meth:`state_result` reuse its cached spikes?
        self.reused = False
        self._raw: np.ndarray | None = None
        self._cached_spikes: SpikeSet | None = None

    @property
    def hours(self) -> int:
        return 0 if self._raw is None else int(self._raw.size)

    @property
    def scale_changed(self) -> bool:
        """Did this tick move the raw maximum (the renorm factor)?"""
        if self._raw is None:
            return False
        return float(self._raw.max()) != self.prev_peak

    @property
    def rewrote_prefix(self) -> bool:
        return self.stitcher.dirty_from < self.prev_hours

    def ingest(self, tick: int, entries: list) -> DetectionDelta:
        """Fold one frame's sample rounds, feed the stitcher, re-walk.

        Transactional with respect to the crawl: callers fetch every
        round *before* invoking this, so a tick that dies mid-crawl
        never half-feeds a frame.
        """
        self.prev_hours = self.hours
        self.prev_peak = 0.0 if self._raw is None else float(self._raw.max())
        accumulator = self.averager.make_accumulator([entries[0]])
        for entry in entries:
            accumulator.fold([entry])
        dropped = [entry for entry in entries if isinstance(entry, MissingFrame)]
        self.missing.extend(dropped)
        for entry in dropped:
            self.missing_by_round[entry.sample_round] = (
                self.missing_by_round.get(entry.sample_round, 0) + 1
            )
        response = accumulator.to_responses()[0]
        self.stitcher.feed(response)
        self.responses.append(response)
        timeline, _ = self.stitcher.finalize(renormalize=False)
        self._raw = timeline.values
        self.last_delta = self.detector.update(self._raw, self.stitcher.dirty_from)
        self.ticks_fed = tick + 1
        return self.last_delta

    def state_result(self) -> tuple[StateResult, tuple[Spike, ...]]:
        """Current StateResult plus the spikes newly added this tick.

        Spikes are materialized exactly the way batch
        :func:`~repro.core.detection.detect_spikes` does it: ranked by
        descending renormalized peak value (ties by earliest index —
        the stable-argsort visit order), magnitudes read off the
        renormalized timeline.
        """
        timeline, report = self.stitcher.finalize(renormalize=True)
        # A pure-append tick that moved neither the renormalization
        # scale nor any spike bound leaves every materialized spike
        # byte-identical: reuse the cached set instead of rebuilding
        # O(spikes) objects (the common case late in a sparse stream).
        delta_changed = self.last_delta is not None and self.last_delta.changed
        if (
            self._cached_spikes is not None
            and not self.scale_changed
            and not self.rewrote_prefix
            and not delta_changed
        ):
            self.reused = True
            spike_set = self._cached_spikes
            published: tuple[Spike, ...] = ()
        else:
            self.reused = False
            values = timeline.values
            ordered = sorted(
                self.detector.bounds, key=lambda b: (-values[b.peak], b.peak)
            )
            spikes = [
                Spike(
                    term=self.term,
                    geo=self.geo,
                    start=timeline.time_at(bound.start),
                    peak=timeline.time_at(bound.peak),
                    end=timeline.time_at(bound.end),
                    magnitude=float(values[bound.peak]),
                    magnitude_rank=rank,
                )
                for rank, bound in enumerate(ordered, start=1)
            ]
            added = set(self.last_delta.added) if self.last_delta else set()
            published = tuple(
                spike for spike, bound in zip(spikes, ordered) if bound in added
            )
            spike_set = SpikeSet(spikes)
            self._cached_spikes = spike_set
        averaging = AveragingResult(
            timeline=timeline,
            spikes=spike_set,
            rounds_used=self.rounds,
            converged=True,
            similarity_history=(),
            stitch_report=report,
            responses=tuple(self.responses),
            missing_frames=tuple(self.missing),
            stitcher=self.stitcher.name,
            averager=self.averager.name,
        )
        result = StateResult(
            geo=self.geo, timeline=timeline, spikes=spike_set, averaging=averaging
        )
        return result, published

    def raw_series(self) -> np.ndarray:
        if self._raw is None:
            raise CollectionError(f"{self.geo}: no frames ingested yet")
        return self._raw


class StudyDaemon:
    """Drives the crawl scheduler in rounds of "newest week only"."""

    def __init__(
        self,
        runtime: "StudyRuntime",
        geos,
        *,
        stream: StreamConfig | None = None,
        app: "SiftWebApp | None" = None,
    ) -> None:
        self.runtime = runtime
        self.sift = runtime.sift
        config = self.sift.config
        if config.detection.min_peak != 0:
            raise ConfigurationError(
                "streaming detection requires min_peak == 0: the tail "
                "re-walk runs on the raw stitched series, which is only "
                "equivalent to batch detection when the walk is scale-"
                "invariant"
            )
        if config.averaging.quantize:
            raise ConfigurationError(
                "streaming cannot reproduce quantize=True: global "
                "quantization rounds the renormalized series, which is "
                "not scale-invariant under incremental re-stitching"
            )
        stream = stream if stream is not None else getattr(
            runtime.config, "stream", None
        ) or StreamConfig()
        if stream.rounds is None:
            if config.averaging.min_rounds != config.averaging.max_rounds:
                raise ConfigurationError(
                    "streaming needs a fixed fetch-round count; set "
                    "AveragingConfig(min_rounds=R, max_rounds=R) or "
                    "StreamConfig(rounds=R)"
                )
            rounds = config.averaging.min_rounds
        else:
            rounds = stream.rounds
        self.stream = stream
        self.rounds = rounds
        self.geos = tuple(geos)
        if not self.geos:
            raise ConfigurationError("streaming needs at least one geography")
        self.window = runtime.window
        self.frames = weekly_frames(self.window, config.overlap_hours)
        self.store = runtime.store
        self.app = app
        self.streams = {
            geo: GeoStream(
                term=config.term,
                geo=geo,
                averager=self.sift.averager,
                stitcher=self.sift.stitcher_factory(),
                detection=config.detection,
                rounds=rounds,
            )
            for geo in self.geos
        }
        self._next_tick = 0
        self._last_study: StudyResult | None = None
        self._last_spike_set: SpikeSet | None = None
        self._last_outages = None
        self._fetch_seconds: dict[str, float] = {}
        self._resume()

    # -- geometry ----------------------------------------------------------------

    @property
    def total_ticks(self) -> int:
        return len(self.frames)

    @property
    def ticks_done(self) -> int:
        return self._next_tick

    @property
    def done(self) -> bool:
        return self._next_tick >= self.total_ticks

    def prefix_window(self, tick: int | None = None) -> TimeWindow:
        """The batch-equivalent study window after *tick* has run."""
        index = self._next_tick - 1 if tick is None else tick
        return TimeWindow(self.window.start, self.frames[index].end)

    # -- the tick loop -----------------------------------------------------------

    def _fetch_entries(self, geo: str, frame: TimeWindow) -> list:
        """All sample rounds of one frame; dead letters become missing.

        Rising suggestions ride along only on round 0, mirroring the
        batch crawl (they are frame metadata, not sampled values).
        """
        entries: list[TimeFrameResponse | MissingFrame] = []
        for sample_round in range(self.rounds):
            try:
                entries.append(
                    self.sift.source.interest_over_time(
                        self.sift.config.term,
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
                            term=self.sift.config.term, geo=geo, window=frame
                        ),
                        sample_round=sample_round,
                        error=str(error),
                    )
                )
        return entries

    def _ingest_geo(self, geo: str, tick: int, frame: TimeWindow) -> None:
        stream = self.streams[geo]
        if stream.ticks_fed > tick:
            # Already fed by an earlier attempt of this tick: a retry
            # after a mid-tick failure must not double-feed the stitcher.
            return
        fetch_started = time.perf_counter()
        entries = self._fetch_entries(geo, frame)
        self._fetch_seconds[geo] = time.perf_counter() - fetch_started
        dropped_before = len(stream.missing)
        stream.ingest(tick, entries)
        dropped = len(stream.missing) - dropped_before
        if dropped:
            self.sift._emit(
                FramesDropped(geo=geo, dropped=dropped, rounds_used=self.rounds)
            )
        # Batch aborts a geography when any single round loses more
        # than max_missing_fraction of the window's frames; apply the
        # same budget against the full frame count as it accrues.
        budget = self.sift.config.averaging.max_missing_fraction * len(self.frames)
        for sample_round, count in stream.missing_by_round.items():
            if count > budget:
                raise CollectionError(
                    f"{geo}: round {sample_round} lost {count} of "
                    f"{len(self.frames)} frames; exceeds "
                    f"max_missing_fraction="
                    f"{self.sift.config.averaging.max_missing_fraction}"
                )

    def tick(self) -> TickResult:
        """Ingest the next weekly frame across all geographies.

        Safe to retry: a tick that raises mid-crawl (a dead fetcher, an
        exhausted fault budget) can simply be called again — geographies
        already fed this tick are skipped via their fed-tick watermark,
        and the crawl cache makes refetches free.
        """
        if self.done:
            raise CollectionError("stream exhausted: every tick has run")
        tick = self._next_tick
        frame = self.frames[tick]
        started = time.perf_counter()
        self._fetch_seconds = {}
        # Per-geo stream state lives in this process, so ingest is
        # serial whatever executor the runtime's batch studies use.
        for geo in self.geos:
            self._ingest_geo(geo, tick, frame)
        study, delta = self._snapshot(tick)
        self._last_study = study
        self._next_tick = tick + 1
        if self.app is not None:
            self.app.install_delta(study, delta)
        published = delta.published
        for spike in published:
            self.sift._emit(
                SpikePublished(
                    geo=spike.geo,
                    tick=tick,
                    start=spike.start.isoformat(),
                    peak=spike.peak.isoformat(),
                    end=spike.end.isoformat(),
                    magnitude=spike.magnitude,
                    duration_hours=spike.duration_hours,
                )
            )
        removed = sum(
            len(stream.last_delta.removed)
            for stream in self.streams.values()
            if stream.last_delta is not None
        )
        elapsed = time.perf_counter() - started
        self.sift._emit(
            TickFinished(
                tick=tick,
                total_ticks=self.total_ticks,
                frame=frame,
                geo_count=len(self.geos),
                published=len(published),
                removed=removed,
                spike_count=len(study.spikes),
                elapsed_seconds=elapsed,
            )
        )
        if (
            self.store is not None
            and self.stream.checkpoint_every
            and self._next_tick % self.stream.checkpoint_every == 0
        ):
            self._checkpoint()
        return TickResult(
            tick=tick,
            frame=frame,
            published=published,
            removed=removed,
            spike_count=len(study.spikes),
            elapsed_seconds=elapsed,
            fetch_seconds=sum(self._fetch_seconds.values()),
            fingerprint=study.fingerprint(),
        )

    def run(self, max_ticks: int | None = None) -> StudyResult | None:
        """Run ticks to the window's end (or *max_ticks*); finalize if done."""
        ran = 0
        while not self.done and (max_ticks is None or ran < max_ticks):
            self.tick()
            ran += 1
        return self.finalize() if self.done else None

    # -- snapshots ---------------------------------------------------------------

    def _snapshot(self, tick: int) -> tuple[StudyResult, StudyDelta]:
        """The prefix StudyResult after *tick*, plus what the tick changed.

        Matches a batch ``run_study(geos, prefix_window)`` with
        ``annotate=False``: annotation is a two-pass global stage that
        would re-run O(study) per tick, so it is deferred to
        :meth:`finalize`.
        """
        frame = self.frames[tick]
        states: dict[str, StateResult] = {}
        deltas: dict[str, GeoDelta] = {}
        all_spikes: list[Spike] = []
        for geo in self.geos:
            stream = self.streams[geo]
            result, published = stream.state_result()
            states[geo] = result
            all_spikes.extend(result.spikes)
            deltas[geo] = GeoDelta(
                geo=geo,
                old_hours=stream.prev_hours,
                new_hours=len(result.timeline),
                scale_changed=stream.scale_changed,
                rewrote_prefix=stream.rewrote_prefix,
                spikes_changed=not stream.reused,
                published=published,
            )
        if self._last_spike_set is not None and all(
            stream.reused for stream in self.streams.values()
        ):
            # No geography's spikes moved: the union and its grouping
            # are the previous tick's, verbatim.
            spike_set = self._last_spike_set
            outages = self._last_outages
        else:
            spike_set = SpikeSet(all_spikes)
            outages = group_outages(spike_set, self.sift.config.area)
        self._last_spike_set = spike_set
        self._last_outages = outages
        study = StudyResult(
            window=TimeWindow(self.window.start, frame.end),
            spikes=spike_set,
            outages=outages,
            states=states,
            heavy_hitters=tuple(
                sorted(self.sift.config.context.seed_heavy_hitters)
            ),
            suggestion_stats=(0, 0),
            resumed_geos=(),
        )
        return study, StudyDelta(tick=tick, frame=frame, geos=deltas)

    def snapshot_study(self) -> StudyResult:
        """The streamed study as of the last completed tick."""
        if self._last_study is None:
            raise CollectionError("no tick has run yet")
        return self._last_study

    def finalize(self) -> StudyResult:
        """Annotate, group, persist — the batch study, stream-assembled."""
        if not self.done:
            raise CollectionError(
                f"cannot finalize: {self.total_ticks - self._next_tick} "
                f"ticks remain"
            )
        config = self.sift.config
        states = self.snapshot_study().states
        all_spikes: list[Spike] = []
        for geo in self.geos:
            all_spikes.extend(states[geo].spikes)
        annotator = SpikeAnnotator(
            fetch_rising=self.sift.daily_rising,
            clusterer=self.sift.clusterer,
            config=config.context,
        )
        if config.annotate and all_spikes:
            self.sift._emit(AnnotationStarted(spike_count=len(all_spikes)))
            all_spikes = annotator.annotate_all(all_spikes, two_pass=True)
        spike_set = SpikeSet(all_spikes)
        outages = group_outages(spike_set, config.area)
        if self.sift.checkpoint is not None:
            for geo in self.geos:
                self.sift.checkpoint.save_state(states[geo], self.window)
            self.sift.checkpoint.save_annotated(spike_set)
        study = StudyResult(
            window=self.window,
            spikes=spike_set,
            outages=outages,
            states=states,
            heavy_hitters=tuple(sorted(annotator.heavy_hitters)),
            suggestion_stats=(
                annotator.analyzer.distinct_terms,
                annotator.analyzer.total_suggestions,
            ),
            resumed_geos=(),
        )
        self._last_study = study
        self.sift._emit(self.sift.rising_cache.stats())
        self.sift._emit_crawl_stats()
        self.sift._emit(
            StudyFinished(
                geo_count=len(self.geos),
                spike_count=len(spike_set),
                outage_count=len(outages),
                resumed_geos=(),
            )
        )
        if self.store is not None:
            self.store.record_summary(study)
        if self.app is not None:
            self.app.install_study(study)
        return study

    # -- persistence -------------------------------------------------------------

    def _checkpoint(self) -> None:
        state = {
            "window_start": self.window.start.isoformat(),
            "window_end": self.window.end.isoformat(),
            "overlap_hours": self.sift.config.overlap_hours,
            "rounds": self.rounds,
            "stitcher": self.sift.config.stitcher,
            "averager": self.sift.config.averager,
            "tick": self._next_tick,
            "geos": {
                geo: {
                    "stitcher_state": stream.stitcher.export_state(),
                    "spikes": [
                        [bound.start, bound.peak, bound.end]
                        for bound in stream.detector.bounds
                    ],
                    "hours": stream.hours,
                }
                for geo, stream in self.streams.items()
            },
        }
        columns = {geo: stream.raw_series() for geo, stream in self.streams.items()}
        self.store.save_stream(state, columns)

    def _resume(self) -> None:
        if self.store is None:
            return
        state = self.store.load_stream()
        if state is None:
            return
        config = self.sift.config
        state_geos = set(state.get("geos", {}))
        # Geographies the store's integrity pass moved aside: absent
        # from the checkpoint because their partitions were damaged —
        # not because the stream was configured without them — so the
        # resume re-crawls exactly these back to the stream head.
        quarantined = tuple(
            sorted(
                geo
                for geo in state.get("quarantined", {})
                if geo in self.geos and geo not in state_geos
            )
        )
        matches = (
            state.get("window_start") == self.window.start.isoformat()
            and state.get("window_end") == self.window.end.isoformat()
            and state.get("overlap_hours") == config.overlap_hours
            and state.get("rounds") == self.rounds
            and state_geos | set(quarantined) == set(self.geos)
        )
        if not matches:
            return  # a different stream; start fresh, like window mismatches
        if (
            state.get("stitcher") != config.stitcher
            or state.get("averager") != config.averager
        ):
            raise CheckpointMismatchError(
                f"stream checkpoint was written by "
                f"{state.get('stitcher')}/{state.get('averager')}, study "
                f"is configured with {config.stitcher}/{config.averager}"
            )
        for geo, saved in state["geos"].items():
            stream = self.streams[geo]
            series = self.store.load_stream_column(geo)
            stream.stitcher.restore_state(saved["stitcher_state"], series)
            stream.detector.restore(
                [
                    SpikeBounds(start=s, peak=p, end=e)
                    for s, p, e in saved["spikes"]
                ],
                series,
            )
            stream._raw = series
            stream.prev_hours = int(series.size)
            stream.prev_peak = float(series.max())
            stream.ticks_fed = int(state["tick"])
        self._next_tick = int(state["tick"])
        recrawled = self._recrawl(quarantined)
        if self._next_tick > 0:
            self._last_study, _ = self._snapshot(self._next_tick - 1)
        self.sift._emit(
            StreamResumed(
                tick=self._next_tick,
                total_ticks=self.total_ticks,
                geo_count=len(self.geos),
            )
        )
        if recrawled:
            # Checkpoint immediately: the refilled state (quarantine
            # marker cleared) hits disk before anything else can crash,
            # so each quarantined geo is re-crawled exactly once no
            # matter how many restarts follow.
            self._checkpoint()

    def _recrawl(self, geos: tuple[str, ...]) -> bool:
        """Refill quarantined geographies up to the stream head.

        Each geo re-runs ticks ``0 .. _next_tick - 1`` through the
        normal ingest path (its fed-tick watermark starts at zero, so
        every frame feeds once); the crawl cache makes the refetches
        cheap, and determinism makes them byte-identical to the lost
        originals.
        """
        for geo in geos:
            for tick in range(self._next_tick):
                self._ingest_geo(geo, tick, self.frames[tick])
            self.sift._emit(GeoRecrawled(geo=geo, ticks=self._next_tick))
        return bool(geos)
