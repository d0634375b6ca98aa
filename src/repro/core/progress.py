"""Structured progress events emitted by the pipeline.

The study driver used to report progress as free-form strings; anything
watching a run (CLI, web interface, benchmarks) had to parse prose.
These dataclasses replace that: every stage of a study emits a typed
event — geography started/finished, checkpoint hits, crawl and cache
statistics — and consumers pattern-match on the event type.

A *listener* is any callable taking one :class:`ProgressEvent`.  Under
the process executor it is invoked from the thread that drains the
workers' event queue (one at a time — emission is serialized), so
listeners shared across runs should still be cheap.
:func:`text_listener` adapts a plain string sink such as ``print``;
:class:`ProgressLog` records events in memory for later inspection
(the web interface serves it as ``/api/runtime``).
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import deque
from collections.abc import Callable

from repro.timeutil import TimeWindow


def peak_rss_kb() -> int:
    """Peak resident-set size of the calling process, in KiB.

    ``getrusage`` reports KiB on Linux and bytes on macOS; both are
    normalized to KiB.  Returns 0 on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


@dataclasses.dataclass(frozen=True, slots=True)
class ProgressEvent:
    """Base class for everything a study run can report."""

    def describe(self) -> str:
        """One-line human rendering (what the old string hook printed)."""
        return repr(self)

    def to_dict(self) -> dict:
        """JSON-safe rendering for the web interface."""
        payload: dict = {"type": type(self).__name__, "message": self.describe()}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, TimeWindow):
                value = {
                    "start": value.start.isoformat(),
                    "end": value.end.isoformat(),
                }
            elif isinstance(value, tuple):
                value = list(value)
            payload[field.name] = value
        return payload


@dataclasses.dataclass(frozen=True, slots=True)
class StudyStarted(ProgressEvent):
    geos: tuple[str, ...]
    window: TimeWindow

    def describe(self) -> str:
        return (
            f"study started: {len(self.geos)} geographies, "
            f"{self.window.start:%Y-%m-%d}..{self.window.end:%Y-%m-%d}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class GeoStarted(ProgressEvent):
    geo: str
    index: int
    total: int

    def describe(self) -> str:
        return f"analyzing {self.geo} ({self.index + 1}/{self.total})"


@dataclasses.dataclass(frozen=True, slots=True)
class GeoFinished(ProgressEvent):
    geo: str
    index: int
    total: int
    spike_count: int
    rounds_used: int
    converged: bool
    from_checkpoint: bool
    elapsed_seconds: float

    def describe(self) -> str:
        source = "checkpoint" if self.from_checkpoint else (
            f"{self.rounds_used} rounds, converged={self.converged}"
        )
        return (
            f"{self.geo} done ({self.index + 1}/{self.total}): "
            f"{self.spike_count} spikes [{source}]"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class CheckpointHit(ProgressEvent):
    """A geography was served from the study checkpoint, not recrawled."""

    geo: str
    spike_count: int

    def describe(self) -> str:
        return f"{self.geo}: resumed from checkpoint ({self.spike_count} spikes)"


@dataclasses.dataclass(frozen=True, slots=True)
class AnnotationStarted(ProgressEvent):
    spike_count: int

    def describe(self) -> str:
        return f"annotating {self.spike_count} spikes with rising suggestions"


@dataclasses.dataclass(frozen=True, slots=True)
class CacheStats(ProgressEvent):
    """Daily-rising cache accounting for one study run."""

    hits: int
    misses: int
    size: int
    capacity: int

    def describe(self) -> str:
        return (
            f"rising cache: {self.hits} hits / {self.misses} misses "
            f"({self.size}/{self.capacity} entries)"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class CrawlStats(ProgressEvent):
    """Collection-layer accounting (mirrors ``CrawlReport``)."""

    requested: int
    fetched: int
    served_from_cache: int
    retries: int
    elapsed_seconds: float
    frames_per_second: float
    dead_lettered: int = 0

    def describe(self) -> str:
        dead = (
            f", {self.dead_lettered} dead-lettered" if self.dead_lettered else ""
        )
        return (
            f"crawl: {self.fetched} fetched, {self.served_from_cache} from "
            f"cache, {self.retries} retries "
            f"({self.frames_per_second:.0f} frames/s){dead}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class FramesDropped(ProgressEvent):
    """A geography's averaging ran with crawl-dropped (missing) frames."""

    geo: str
    dropped: int
    rounds_used: int

    def describe(self) -> str:
        return (
            f"{self.geo}: averaged around {self.dropped} missing "
            f"frame-fetches over {self.rounds_used} rounds"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class FaultStats(ProgressEvent):
    """Chaos accounting for a fault-injected run (mirrors ``FaultReport``)."""

    profile: str
    seed: int
    injected: dict
    observed: dict
    retries: int
    breaker_opened: int
    breaker_half_opened: int
    breaker_closed: int
    dead_letters: int
    blackout_rejections: dict

    def describe(self) -> str:
        return (
            f"faults[{self.profile}/{self.seed}]: "
            f"{sum(self.injected.values())} injected, "
            f"{self.retries} retries, breaker {self.breaker_opened} opens, "
            f"{self.dead_letters} dead-lettered"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class ShardStats(ProgressEvent):
    """Resource accounting for one execution shard of a study.

    A process-sharded study emits one per worker process (its slice of
    the geographies, wall-clock, and peak RSS as measured *inside* the
    worker); an in-process run emits a single shard covering the whole
    per-geography stage, so the memory profile of a workload is
    observable under every executor.
    """

    shard: int
    executor: str  # "serial" | "process"
    worker_count: int
    geo_count: int
    elapsed_seconds: float
    peak_rss_kb: int

    def describe(self) -> str:
        return (
            f"shard {self.shard} [{self.executor}]: {self.geo_count} geos "
            f"in {self.elapsed_seconds:.2f}s, peak RSS "
            f"{self.peak_rss_kb / 1024:.0f} MiB"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class SnapshotInstalled(ProgressEvent):
    """A study snapshot was installed into the web serving layer."""

    snapshot: int
    fingerprint: str
    geo_count: int
    preloaded: int

    def describe(self) -> str:
        return (
            f"serving snapshot v{self.snapshot} ({self.fingerprint}): "
            f"{self.geo_count} geographies, {self.preloaded} hot payloads "
            f"pre-encoded"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class ServingStats(ProgressEvent):
    """Web serving-layer accounting (response cache + handle times)."""

    snapshot: int
    fingerprint: str
    requests: int
    hits: int
    misses: int
    not_modified: int
    errors: int
    evictions: int
    entries: int
    capacity: int
    preloaded: int
    bytes_served: int
    bytes_saved: int
    p50_handle_ms: float
    p99_handle_ms: float
    shed: int = 0

    def describe(self) -> str:
        shed = f", {self.shed} shed" if self.shed else ""
        return (
            f"serving[v{self.snapshot}]: {self.requests} requests, "
            f"{self.hits} hits / {self.misses} misses / "
            f"{self.not_modified} not-modified, "
            f"{self.bytes_saved} bytes saved, "
            f"p50 {self.p50_handle_ms:.2f} ms / p99 {self.p99_handle_ms:.2f} ms"
            f"{shed}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class TickFinished(ProgressEvent):
    """The streaming daemon ingested one weekly frame across all geos."""

    tick: int
    total_ticks: int
    frame: TimeWindow
    geo_count: int
    published: int
    removed: int
    spike_count: int
    elapsed_seconds: float

    def describe(self) -> str:
        delta = f"+{self.published}" + (f"/-{self.removed}" if self.removed else "")
        return (
            f"tick {self.tick + 1}/{self.total_ticks} "
            f"(..{self.frame.end:%Y-%m-%d}): {delta} spikes "
            f"({self.spike_count} total) in {self.elapsed_seconds * 1e3:.0f} ms"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class SpikePublished(ProgressEvent):
    """A streamed tick surfaced a new (or re-bounded) spike."""

    geo: str
    tick: int
    start: str  # ISO timestamps: the event is JSON-safe as-is
    peak: str
    end: str
    magnitude: float
    duration_hours: int

    def describe(self) -> str:
        return (
            f"spike published [{self.geo}] peak {self.peak} "
            f"magnitude {self.magnitude:.1f} ({self.duration_hours}h)"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class StreamResumed(ProgressEvent):
    """A killed watcher picked its stream back up from the columnar store."""

    tick: int
    total_ticks: int
    geo_count: int

    def describe(self) -> str:
        return (
            f"stream resumed at tick {self.tick}/{self.total_ticks} "
            f"({self.geo_count} geographies, zero refetch)"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class DeltaInstalled(ProgressEvent):
    """A delta snapshot was appended into the web serving layer."""

    snapshot: int
    fingerprint: str
    tick: int
    appended_hours: int
    rebuilt_columns: int
    invalidated: int
    retained: int
    published: int

    def describe(self) -> str:
        return (
            f"serving snapshot v{self.snapshot} ({self.fingerprint}): "
            f"delta +{self.appended_hours}h, {self.published} spikes "
            f"published, {self.invalidated} cache entries dropped / "
            f"{self.retained} kept"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class HealthChanged(ProgressEvent):
    """The supervisor's health state machine moved to a new state."""

    state: str  # "healthy" | "degraded" | "halted"
    previous: str
    reason: str
    tick: int
    restarts: int

    def describe(self) -> str:
        return (
            f"health {self.previous} -> {self.state} at tick {self.tick} "
            f"({self.reason}; {self.restarts} restarts so far)"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class TickRestarted(ProgressEvent):
    """A supervised tick failed and is being restarted from checkpoint."""

    tick: int
    attempt: int
    error_class: str  # ErrorClass value: "retryable" | "rate_limited"
    error: str
    backoff_seconds: float

    def describe(self) -> str:
        return (
            f"tick {self.tick} restart #{self.attempt} after "
            f"{self.error_class} failure ({self.error}); "
            f"backing off {self.backoff_seconds:.2f}s"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class PartitionQuarantined(ProgressEvent):
    """An integrity check moved a damaged store partition aside."""

    geo: str
    file: str
    reason: str

    def describe(self) -> str:
        return f"quarantined {self.geo} partition ({self.file}): {self.reason}"


@dataclasses.dataclass(frozen=True, slots=True)
class GeoRecrawled(ProgressEvent):
    """A quarantined geography was re-crawled back to the stream head."""

    geo: str
    ticks: int

    def describe(self) -> str:
        return f"re-crawled quarantined {self.geo} over {self.ticks} ticks"


@dataclasses.dataclass(frozen=True, slots=True)
class Heartbeat(ProgressEvent):
    """Periodic liveness signal from the supervisor (fed to /api/stream)."""

    tick: int
    health: str
    ticks_done: int
    total_ticks: int
    restarts: int

    def describe(self) -> str:
        return (
            f"heartbeat: {self.health}, tick {self.ticks_done}/"
            f"{self.total_ticks}, {self.restarts} restarts"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class StudyFinished(ProgressEvent):
    geo_count: int
    spike_count: int
    outage_count: int
    resumed_geos: tuple[str, ...]

    def describe(self) -> str:
        resumed = f", {len(self.resumed_geos)} resumed" if self.resumed_geos else ""
        return (
            f"study finished: {self.spike_count} spikes across "
            f"{self.geo_count} geographies, {self.outage_count} outages{resumed}"
        )


#: Anything consuming progress events.
ProgressListener = Callable[[ProgressEvent], None]


def text_listener(write: Callable[[str], None]) -> ProgressListener:
    """Adapt a string sink (``print``, a logger method) to a listener."""

    def listen(event: ProgressEvent) -> None:
        write(event.describe())

    return listen


class ProgressLog:
    """A thread-safe in-memory event sink, oldest events evicted first."""

    def __init__(self, capacity: int = 2000) -> None:
        self._events: deque[ProgressEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def __call__(self, event: ProgressEvent) -> None:
        with self._lock:
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> tuple[ProgressEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def of_type(self, *types: type) -> tuple[ProgressEvent, ...]:
        return tuple(event for event in self.events() if isinstance(event, types))

    def describe(self) -> list[str]:
        return [event.describe() for event in self.events()]
