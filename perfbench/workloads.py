"""The benchmark's three workloads over the public ``repro`` API.

Each workload is set up (untimed for ``study_s``, timed for
``setup_s``) and then runs *passes*: one pass turns the workload's
inputs into a served study and reads it back, and is the unit the
runner repeats until its measuring time is used up.

All three use the command line's defaults -- background scale 0.05,
the ``overlap_ratio``/``mean`` reconstruction backends -- with the
study seed taken from the runner and the serial executor, so every
layer runs in this one process where the tracer can see it.

* ``batch_cold``: the paper's 51 geos over the first 26 weeks of its
  window, on a fresh runtime with an in-memory frame database and the sqlite
  checkpoint, every frame crawled from the simulated Trends service;
  then a web app over the result, and one in-process client GETs every
  endpoint once.
* ``batch_warm``: the same study re-analysed from a file-backed frame
  archive that set-up crawls once, in a child process so that the
  crawl's memory does not count in the measuring process's peak RSS;
  checkpointing is off, so nothing resumes and every frame is read from
  the archive instead of fetched.
* ``stream_watch``: the ``sift watch`` tick path over all 51 geos --
  one weekly frame per tick, 2 sample rounds, a columnar store
  checkpointed every tick and a live web app receiving delta installs.
  After each tick one in-process client reads ``/api/timeline`` and
  ``/api/spikes`` for every geo, each read waiting for the previous
  one (a closed loop).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

from repro.core.averaging import AveragingConfig
from repro.core.pipeline import SiftConfig, StudyResult
from repro.core.progress import GeoFinished, GeoStarted
from repro.runtime import ALL_GEOS, STUDY_START, StudyRuntime
from repro.streaming import StreamConfig
from repro.web import SiftWebApp

#: The command line's default background event scale.
SCALE = 0.05
#: Sample rounds fetched per frame by the stream; the batch reference of
#: the stream check uses the same fixed count, which streamed == batch
#: requires.
STREAM_ROUNDS = 2
STREAM_SIFT = SiftConfig(
    annotate=False,
    averaging=AveragingConfig(min_rounds=STREAM_ROUNDS, max_rounds=STREAM_ROUNDS),
)
#: A published spike matches a ground-truth impact when its peak lies
#: within this many hours after the impact's onset.
MATCH_HORIZON_HOURS = 48.0


@dataclasses.dataclass(frozen=True)
class Shape:
    """Which geographies and weeks each workload covers."""

    batch_geos: tuple[str, ...]
    batch_weeks: int
    stream_geos: tuple[str, ...]
    stream_weeks: int

    def batch_window(self) -> tuple[datetime, datetime]:
        return STUDY_START, STUDY_START + timedelta(weeks=self.batch_weeks)

    def stream_window(self) -> tuple[datetime, datetime]:
        return STUDY_START, STUDY_START + timedelta(weeks=self.stream_weeks)


#: The measured shape.  Both keep all 51 geos: the per-geo work is the
#: paper's, and the population's matrix cache holds only about a dozen
#: states, so every stream tick rebuilds every state's matrix.  The
#: window lengths only set how long one pass takes: a quarter of the
#: paper's two years keeps a cold batch pass to a few seconds, so that a
#: run averages many passes over a host whose speed drifts.
FULL = Shape(ALL_GEOS, 26, ALL_GEOS, 10)
#: A few-second shape for the self-test.
SMOKE_GEOS = ("US-TX", "US-CA", "US-AZ", "US-NY")
SMOKE = Shape(SMOKE_GEOS, 8, SMOKE_GEOS, 4)


@dataclasses.dataclass
class PassResult:
    """What one pass measured and produced."""

    wall_s: float  # the pass's study_s
    steps_s: list[float]  # per geography (batch) or per tick (stream)
    reads_s: list[float]
    read_failures: int
    fingerprint: str
    counters: dict[str, float]
    detect_lag_h: list[float]


class StepClock:
    """A progress listener timing each geography of a batch study."""

    def __init__(self) -> None:
        self.steps_s: list[float] = []
        self._started = 0.0

    def __call__(self, event) -> None:
        if isinstance(event, GeoStarted):
            self._started = perf_counter()
        elif isinstance(event, GeoFinished) and not event.from_checkpoint:
            self.steps_s.append(perf_counter() - self._started)


def build_runtime(seed: int, window: tuple[datetime, datetime], **options) -> StudyRuntime:
    """A serial runtime at the command line's scale over *window*."""
    start, end = window
    return StudyRuntime.build(
        background_scale=SCALE, seed=seed, executor="serial", start=start, end=end, **options
    )


def read_paths(app: SiftWebApp, paths: list[str], reads_s: list[float]) -> int:
    """GET each path in turn; returns how many did not answer 200."""
    failures = 0
    for path in paths:
        started = perf_counter()
        response = app.handle_request(path)
        reads_s.append(perf_counter() - started)
        failures += response.status != 200
    return failures


def geo_paths(geos) -> list[str]:
    return [f"/api/{kind}?geo={geo}" for geo in geos for kind in ("timeline", "spikes")]


def ratio(hits: int, lookups: int) -> float:
    """Hits over lookups; 0.0 when nothing was looked up."""
    return hits / lookups if lookups else 0.0


def counters(runtime: StudyRuntime, study: StudyResult, app: SiftWebApp) -> dict[str, float]:
    """The layer counters the program's public stats accessors expose."""
    crawl = runtime.report()
    matrix = runtime.population.cache_stats()
    rising = runtime.sift.rising_cache.stats()
    serving = app.serving_stats()
    return {
        "world.matrix_misses": matrix.misses,
        "world.matrix_hit_ratio": ratio(matrix.hits, matrix.hits + matrix.misses),
        "collection.requests": crawl.requested,
        "collection.fetched": crawl.fetched,
        "collection.db_hit_ratio": ratio(crawl.served_from_cache, crawl.requested),
        "collection.retries": crawl.retries,
        "collection.dead_lettered": crawl.dead_lettered,
        "reconstruct.rounds": sum(
            state.averaging.rounds_used for state in study.states.values()
        ),
        "annotation.rising_cache_hit_ratio": ratio(rising.hits, rising.hits + rising.misses),
        "web.requests": serving.requests,
        "web.cache_hit_ratio": ratio(serving.hits, serving.hits + serving.misses),
        "study.spikes": len(study.spikes),
        "study.outages": len(study.outages),
    }


def detect_lags(runtime: StudyRuntime, geos, publications) -> list[float]:
    """Simulated hours from each ground-truth impact's onset to the first
    publication of a spike in its geo peaking within the match horizon.

    *publications* lists ``(moment, spikes)`` in publication order: each
    stream tick publishes at its frame's end; a batch study publishes
    everything at once when its window ends.
    """
    geo_set = set(geos)
    peaks_by_moment = []
    for moment, spikes in publications:
        peaks: dict[str, list[datetime]] = {}
        for spike in spikes:
            peaks.setdefault(spike.geo, []).append(spike.peak)
        peaks_by_moment.append((moment, peaks))
    horizon = timedelta(hours=MATCH_HORIZON_HOURS)
    lags = []
    for event in runtime.scenario.events:
        for impact in event.impacts:
            geo = f"US-{impact.state}"
            if geo not in geo_set:
                continue
            for moment, peaks in peaks_by_moment:
                if moment > impact.start and any(
                    timedelta(0) <= peak - impact.start <= horizon
                    for peak in peaks.get(geo, ())
                ):
                    lags.append((moment - impact.start).total_seconds() / 3600.0)
                    break
    return lags


def crawl_archive(seed: int, window, archive: str, geos) -> str:
    """Crawl the study over *geos* into the frame archive file *archive*;
    returns the study's fingerprint."""
    with build_runtime(seed, window, database=archive, checkpoint=False) as runtime:
        return runtime.run_study(geos).fingerprint()


def trace_targets(runtime: StudyRuntime) -> list[tuple[object, str, str]]:
    """The layer boundaries the tracer wraps for one runtime's pass.

    Instances the runtime holds are wrapped directly; objects the
    program builds inside a pass (stitchers, annotators, geo streams,
    the web app) through their class; module functions in the namespace
    of the caller named.
    """
    import repro.core.pipeline as pipeline
    import repro.core.reconstruct.base as reconstruct_base
    import repro.streaming.daemon as daemon
    import repro.streaming.detector as stream_detector
    import repro.trends.service as trends_service
    from repro.core.context import SpikeAnnotator

    targets = [
        (runtime.service, "fetch", "trends.fetch"),
        (trends_service, "rising_terms", "trends.rising_terms"),
        (runtime.manager, "interest_over_time", "collection.interest_over_time"),
        (runtime.database, "store_frame", "collection.store_frame"),
        (runtime.database, "load_frame", "collection.load_frame"),
        (runtime.sift, "build_timeline", "reconstruct.build_timeline"),
        (type(runtime.sift.stitcher_factory()), "feed", "reconstruct.stitch_feed"),
        (reconstruct_base, "detect_spikes", "detection.detect_spikes"),
        (stream_detector, "detect_bounds", "detection.detect_bounds"),
        (runtime.sift, "daily_rising", "annotation.daily_rising"),
        (SpikeAnnotator, "annotate_all", "annotation.annotate_all"),
        (pipeline, "group_outages", "area.group_outages"),
        (daemon, "group_outages", "area.group_outages"),
        (daemon.GeoStream, "ingest", "streaming.ingest"),
        (SiftWebApp, "install_study", "web.install_study"),
        (SiftWebApp, "install_delta", "web.install_delta"),
        (SiftWebApp, "handle_request", "web.handle_request"),
    ]
    if runtime.checkpoint is not None:
        targets += [
            (runtime.checkpoint, "save_state", "checkpoint.save_state"),
            (runtime.checkpoint, "save_annotated", "checkpoint.save_annotated"),
        ]
    if runtime.store is not None:
        targets.append((runtime.store, "save_stream", "store.save_stream"))
    return targets


class Batch:
    """``batch_cold`` and ``batch_warm``: one whole study per pass."""

    #: One read per endpoint is too few to report read percentiles on.
    timed_reads = False

    def __init__(self, name: str, seed: int, shape: Shape, work: Path) -> None:
        self.seed = seed
        self.geos = shape.batch_geos
        self.window = shape.batch_window()
        self.warm = name == "batch_warm"
        self.archive = str(work / "archive.db")
        #: The study crawled into the archive (warm only).
        self.archive_fingerprint: str | None = None
        self._clock = StepClock()

    def build(self, **options) -> StudyRuntime:
        return build_runtime(self.seed, self.window, progress=self._clock, **options)

    def prepare(self) -> None:
        """Fill the warm workload's frame archive with a cold crawl, made
        by this file run as a child process that has ended when this
        returns."""
        if not self.warm:
            return
        start, end = (moment.isoformat() for moment in self.window)
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(self.seed), start, end,
             self.archive, *self.geos],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            stdout=subprocess.PIPE, text=True, check=True,
        )
        self.archive_fingerprint = completed.stdout.strip().splitlines()[-1]

    def setup(self) -> StudyRuntime:
        if self.warm:
            return self.build(database=self.archive, checkpoint=False)
        return self.build()

    def targets(self, runtime: StudyRuntime) -> list[tuple[object, str, str]]:
        return trace_targets(runtime)

    def release(self, runtime: StudyRuntime) -> None:
        runtime.close()

    def run_pass(self, runtime: StudyRuntime) -> PassResult:
        self._clock.steps_s = []
        reads_s: list[float] = []
        sweep = ["/", "/api/geos", "/api/summary", "/api/outages"] + geo_paths(self.geos)
        started = perf_counter()
        study = runtime.run_study(self.geos)
        app = SiftWebApp(study)
        failures = read_paths(app, sweep, reads_s)
        result = PassResult(
            wall_s=perf_counter() - started,
            steps_s=self._clock.steps_s,
            reads_s=reads_s,
            read_failures=failures,
            fingerprint=study.fingerprint(),
            counters=counters(runtime, study, app),
            detect_lag_h=detect_lags(runtime, self.geos, [(self.window[1], study.spikes)]),
        )
        runtime.close()
        return result

    def checks(self, passes: list[PassResult]) -> list[tuple[str, bool, str]]:
        found = []
        if self.warm:
            fetched = max(p.counters["collection.fetched"] for p in passes)
            found.append((
                "warm study fetches nothing from the Trends service",
                fetched == 0,
                f"{fetched:g} frames fetched",
            ))
            found.append((
                "warm fingerprint == cold crawl fingerprint",
                all(p.fingerprint == self.archive_fingerprint for p in passes),
                f"cold {self.archive_fingerprint}, warm {passes[0].fingerprint}",
            ))
        return found


class Stream:
    """``stream_watch``: every tick of one window per pass."""

    timed_reads = True

    def __init__(self, name: str, seed: int, shape: Shape, work: Path) -> None:
        self.seed = seed
        self.geos = shape.stream_geos
        self.window = shape.stream_window()
        self.store = work / "store"

    def build(self, **options) -> StudyRuntime:
        return build_runtime(self.seed, self.window, sift=STREAM_SIFT, **options)

    def prepare(self) -> None:
        return None

    def setup(self):
        # A fresh store per pass: an existing one would resume mid-stream.
        # A pass or release removes its store, so that no set-up pays
        # for deleting the previous one.
        shutil.rmtree(self.store, ignore_errors=True)
        runtime = self.build(
            store=str(self.store), stream=StreamConfig(rounds=STREAM_ROUNDS)
        )
        return runtime, runtime.stream_daemon(self.geos)

    def targets(self, prepared) -> list[tuple[object, str, str]]:
        runtime, daemon = prepared
        return trace_targets(runtime) + [(daemon, "tick", "streaming.tick")]

    def release(self, prepared) -> None:
        prepared[0].close()
        shutil.rmtree(self.store)

    def run_pass(self, prepared) -> PassResult:
        runtime, daemon = prepared
        paths = geo_paths(self.geos)
        ticks_s: list[float] = []
        reads_s: list[float] = []
        publications = []
        failures = 0
        app = None
        started = perf_counter()
        while not daemon.done:
            tick_started = perf_counter()
            tick = daemon.tick()
            ticks_s.append(perf_counter() - tick_started)
            if app is None:
                # The first tick's snapshot opens the app; later ticks
                # install their deltas into it.
                app = SiftWebApp(daemon.snapshot_study())
                daemon.app = app
            publications.append((tick.frame.end, tick.published))
            failures += read_paths(app, paths, reads_s)
        wall = perf_counter() - started
        study = daemon.snapshot_study()
        result = PassResult(
            wall_s=wall,
            steps_s=ticks_s,
            reads_s=reads_s,
            read_failures=failures,
            fingerprint=study.fingerprint(),
            counters=counters(runtime, study, app),
            detect_lag_h=detect_lags(runtime, self.geos, publications),
        )
        result.counters["streaming.ticks"] = len(ticks_s)
        self.release(prepared)
        return result

    def checks(self, passes: list[PassResult]) -> list[tuple[str, bool, str]]:
        """The streamed study must equal a batch study of the same window."""
        with self.build(checkpoint=False) as runtime:
            batch = runtime.run_study(self.geos).fingerprint()
        return [(
            "streamed fingerprint == batch run_study fingerprint",
            all(p.fingerprint == batch for p in passes),
            f"batch {batch}, streamed {passes[0].fingerprint}",
        )]


WORKLOADS = {"batch_cold": Batch, "batch_warm": Batch, "stream_watch": Stream}


if __name__ == "__main__":
    # Batch.prepare's child: SEED START END ARCHIVE GEO...; prints the fingerprint.
    seed, start, end, archive, *geos = sys.argv[1:]
    window = (datetime.fromisoformat(start), datetime.fromisoformat(end))
    print(crawl_archive(int(seed), window, archive, geos))
