"""Workload scheduling across fetcher units, and the crawl frontend.

Two layers:

* :class:`CollectionScheduler` — maps a queued workload onto the
  fetcher fleet, executes it (serially or across a crawl thread pool),
  and merges every response into the
  :class:`repro.collection.CollectionDatabase`, the paper's "unified
  database".
* :class:`CollectionManager` — the pipeline-facing frontend.  It
  satisfies the :class:`repro.core.pipeline.FrameSource` protocol and
  serves frames from the database first, dispatching cache misses to
  the fleet.  Running SIFT through a manager therefore crawls each
  frame exactly once, however many pipeline stages ask for it.

Concurrency model: a scheduler serves one calling thread.  Only
:meth:`CollectionScheduler.execute` fans out, over a crawl thread
pool whose threads do nothing but crawl: fetcher units are handed out
through an exclusive **lease** (checkout/checkin over a condition
variable) — the least loaded *idle* unit whose circuit breaker admits
work wins, and a unit is never shared between threads — while the
calling thread deduplicates the workload up front and does every
database write, so each frame is crawled at most once.

Failure model (see DESIGN.md §7): a fetcher that exhausts its retry
budget on a frame raises :class:`~repro.errors.FrameCrawlError` and
the scheduler **reassigns** the frame to another unit; a unit whose
breaker is open is skipped at lease time (and raises
:class:`~repro.errors.CircuitOpenError` if raced).  A frame that
exhausts the reassignment budget too is parked on the **dead-letter
queue** — exactly once per crawl attempt — and surfaces as
:class:`~repro.errors.FrameDeadLettered`, which the pipeline converts
into a missing-frame record instead of crashing the study.  Fatal
errors (malformed requests) are recorded on the DLQ and re-raised as
themselves.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.collection.breaker import BreakerConfig
from repro.collection.database import CollectionDatabase
from repro.collection.fetchers import FetcherUnit, WorkItem, build_fleet
from repro.errors import (
    CircuitOpenError,
    CollectionError,
    FrameCrawlError,
    FrameDeadLettered,
    ReproError,
)
from repro.timeutil import TimeWindow
from repro.trends.client import RetryPolicy, Sleeper
from repro.trends.faults import FaultReport
from repro.trends.records import TimeFrameResponse
from repro.trends.service import TrendsService

#: Frames accumulated per batched database write during bulk crawls.
_WRITE_BATCH = 64

#: Distinct fetcher units allowed to exhaust their retry budget on one
#: frame before it is dead-lettered.
_MAX_UNIT_ATTEMPTS = 3


@dataclasses.dataclass(frozen=True, slots=True)
class CrawlReport:
    """Outcome of a bulk crawl (or of a scheduler's lifetime)."""

    requested: int
    fetched: int
    served_from_cache: int
    retries: int
    per_fetcher: dict[str, int]
    elapsed_seconds: float = 0.0
    dead_lettered: int = 0

    @property
    def frames_per_second(self) -> float:
        """Crawl throughput over the measured wall-clock interval."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.fetched / self.elapsed_seconds


@dataclasses.dataclass(frozen=True, slots=True)
class DeadLetter:
    """One frame the crawl gave up on, with the error that killed it."""

    item: WorkItem
    error: str
    error_type: str


class DeadLetterQueue:
    """Thread-safe parking lot for frames the crawl could not complete."""

    def __init__(self) -> None:
        self._entries: list[DeadLetter] = []
        self._lock = threading.Lock()

    def record(self, item: WorkItem, error: BaseException) -> DeadLetter:
        letter = DeadLetter(
            item=item, error=str(error), error_type=type(error).__name__
        )
        with self._lock:
            self._entries.append(letter)
        return letter

    def entries(self) -> list[DeadLetter]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class CollectionScheduler:
    """Leases fetchers to work items and merges results."""

    def __init__(
        self,
        fleet: list[FetcherUnit],
        database: CollectionDatabase,
        sleep: Sleeper | None = None,
    ) -> None:
        if not fleet:
            raise CollectionError("scheduler needs at least one fetcher")
        self.fleet = fleet
        self.database = database
        #: Spends the wait when every idle unit's breaker is open;
        #: defaults to whatever sleeper the fleet itself runs on so
        #: virtual-time studies stay sleep-free.
        self._sleep = sleep if sleep is not None else fleet[0].sleep
        self.dead_letters = DeadLetterQueue()
        self._fetcher_ready = threading.Condition()
        self._idle: list[FetcherUnit] = list(fleet)
        self._fetched_total = 0
        self._cache_hits = 0
        self._started = time.perf_counter()

    # -- fetcher leasing ---------------------------------------------------------

    @contextmanager
    def lease(self) -> Iterator[FetcherUnit]:
        """Exclusive checkout of the least-loaded admissible idle fetcher.

        Blocks while the whole fleet is busy; skips units whose circuit
        breaker is open, sleeping (virtual time) until the earliest
        half-open probe when every idle unit is dark.  The unit is
        returned to the idle pool (and a waiter woken) on exit, even on
        error.
        """
        while True:
            delay = 0.0
            with self._fetcher_ready:
                while not self._idle:
                    self._fetcher_ready.wait()
                ready = [
                    unit for unit in self._idle if unit.breaker.available()
                ]
                if ready:
                    unit = min(ready, key=lambda candidate: candidate.completed)
                    self._idle.remove(unit)
                    break
                if len(self._idle) < len(self.fleet):
                    # Some units are busy; one may come back healthy.
                    self._fetcher_ready.wait()
                    continue
                # The whole fleet is idle and dark: wait out the
                # shortest cooldown, off the lock so returns can
                # proceed, then re-check.
                now = self.fleet[0].breaker.clock()
                delay = max(
                    min(unit.breaker.retry_at for unit in self._idle) - now,
                    0.0,
                )
            self._sleep(max(delay, 1e-3))
        try:
            yield unit
        finally:
            with self._fetcher_ready:
                self._idle.append(unit)
                self._fetcher_ready.notify()

    # -- crawling ----------------------------------------------------------------

    def _crawl_item(self, item: WorkItem) -> tuple[TimeFrameResponse, str]:
        """Crawl one frame, reassigning across units on failure.

        A unit that gives up (:class:`FrameCrawlError`) or whose breaker
        opens mid-lease (:class:`CircuitOpenError`) costs one slot of
        the respective budget and the frame moves to another unit.
        Exhausting the budgets dead-letters the frame; fatal errors are
        dead-lettered and re-raised as themselves.
        """
        unit_attempts = 0
        breaker_bounces = 0
        max_bounces = 2 * len(self.fleet) + 2
        while True:
            with self.lease() as unit:
                try:
                    response = unit.fetch(item)
                    return response, unit.name
                except CircuitOpenError as error:
                    breaker_bounces += 1
                    if breaker_bounces >= max_bounces:
                        self.dead_letters.record(item, error)
                        raise FrameDeadLettered(
                            f"frame {item.key} dead-lettered after "
                            f"{breaker_bounces} open-breaker bounces: {error}"
                        ) from error
                except FrameCrawlError as error:
                    unit_attempts += 1
                    if unit_attempts >= _MAX_UNIT_ATTEMPTS:
                        self.dead_letters.record(item, error)
                        raise FrameDeadLettered(
                            f"frame {item.key} dead-lettered after "
                            f"{unit_attempts} fetchers gave up: {error}"
                        ) from error
                except ReproError as error:
                    # Fatal: no retry can help.  Record for the
                    # post-mortem and propagate the original.
                    self.dead_letters.record(item, error)
                    raise

    # -- serving -----------------------------------------------------------------

    def fetch_one(self, item: WorkItem) -> TimeFrameResponse:
        """Serve one item through the cache, crawling on a miss."""
        existing = self.database.load_frame(
            item.term, item.geo, item.window, item.sample_round
        )
        if existing is not None:
            self._cache_hits += 1
            return existing
        response, fetched_by = self._crawl_item(item)
        self.database.store_frame(response, fetched_by=fetched_by)
        self._fetched_total += 1
        return response

    def execute(
        self, workload: list[WorkItem], max_workers: int | None = None
    ) -> CrawlReport:
        """Crawl every item not already in the database.

        ``max_workers > 1`` crawls over a thread pool (capped at the
        fleet size — more workers than fetchers would only queue on the
        lease); the pool threads only crawl, and the calling thread
        merges their responses into the database in batches.  Duplicate
        items and database hits count as served from cache; each
        distinct frame is crawled at most once.  Frames the fleet cannot
        complete are dead-lettered and skipped (counted in the report),
        not raised.
        """
        started = time.perf_counter()
        retries_before = sum(unit.retries for unit in self.fleet)
        dead_before = len(self.dead_letters)
        seen: set[tuple] = set()
        unique: list[WorkItem] = []
        for item in workload:
            if item.key not in seen:
                seen.add(item.key)
                unique.append(item)
        to_crawl = [
            item
            for item in unique
            if self.database.load_frame(
                item.term, item.geo, item.window, item.sample_round
            )
            is None
        ]
        cached = len(workload) - len(to_crawl)

        def crawl(item: WorkItem) -> tuple[TimeFrameResponse, str] | None:
            try:
                return self._crawl_item(item)
            except FrameDeadLettered:
                return None

        workers = min(max_workers or 1, len(self.fleet), max(len(to_crawl), 1))
        pool = (
            concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="sift-crawl"
            )
            if workers > 1
            else None
        )
        pending: list[tuple[TimeFrameResponse, str]] = []
        crawled = 0
        try:
            # Executor.map yields in input order and re-raises the first
            # failure; the pool keeps crawling ahead while this thread
            # writes each batch.
            results = (pool.map if pool is not None else map)(crawl, to_crawl)
            for result in results:
                if result is None:
                    continue
                crawled += 1
                pending.append(result)
                if len(pending) >= _WRITE_BATCH:
                    self.database.store_frames(pending)
                    pending = []
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
            self.database.store_frames(pending)
        self._fetched_total += crawled
        self._cache_hits += cached
        return CrawlReport(
            requested=len(workload),
            fetched=crawled,
            served_from_cache=cached,
            retries=sum(unit.retries for unit in self.fleet) - retries_before,
            per_fetcher={unit.name: unit.completed for unit in self.fleet},
            elapsed_seconds=time.perf_counter() - started,
            dead_lettered=len(self.dead_letters) - dead_before,
        )

    def lifetime_report(self) -> CrawlReport:
        """Cumulative accounting since the scheduler was built."""
        fetched = self._fetched_total
        cached = self._cache_hits
        return CrawlReport(
            requested=fetched + cached,
            fetched=fetched,
            served_from_cache=cached,
            retries=sum(unit.retries for unit in self.fleet),
            per_fetcher={unit.name: unit.completed for unit in self.fleet},
            elapsed_seconds=time.perf_counter() - self._started,
            dead_lettered=len(self.dead_letters),
        )

    def fault_report(self) -> FaultReport | None:
        """Chaos accounting, or ``None`` when no fault injector is wired.

        ``injected`` comes from the service wrapper's counters,
        ``observed`` from the fleet clients' per-exception retry
        causes — in a clean run every injected fault is observed (and
        retried) exactly once downstream.
        """
        service = self.fleet[0].client.service
        if not hasattr(service, "injection_counts"):
            return None
        observed: Counter = Counter()
        for unit in self.fleet:
            observed.update(unit.client.retry_causes)
        return FaultReport(
            profile=service.plan.profile.name,
            seed=service.plan.seed,
            injected=service.injection_counts(),
            observed=dict(sorted(observed.items())),
            retries=sum(unit.retries for unit in self.fleet),
            breaker_opened=sum(unit.breaker.opened for unit in self.fleet),
            breaker_half_opened=sum(
                unit.breaker.half_opened for unit in self.fleet
            ),
            breaker_closed=sum(unit.breaker.closed for unit in self.fleet),
            dead_letters=len(self.dead_letters),
            blackout_rejections=dict(
                sorted(service.blackout_rejections.items())
            ),
        )


class CollectionManager:
    """Pipeline-facing crawl frontend (a ``FrameSource``)."""

    def __init__(
        self,
        service: TrendsService,
        sleep: Sleeper,
        fetcher_count: int = 4,
        database: CollectionDatabase | None = None,
        policy: RetryPolicy | None = None,
        latency: float = 0.0,
        clock=time.monotonic,
        breaker_config: BreakerConfig | None = None,
    ) -> None:
        self.database = database or CollectionDatabase()
        fleet = build_fleet(
            service,
            fetcher_count,
            sleep=sleep,
            policy=policy,
            latency=latency,
            clock=clock,
            breaker_config=breaker_config,
        )
        self.scheduler = CollectionScheduler(fleet, self.database, sleep=sleep)

    def interest_over_time(
        self,
        term: str,
        geo: str,
        window: TimeWindow,
        sample_round: int | None = None,
        include_rising: bool = True,
    ) -> TimeFrameResponse:
        item = WorkItem(
            term=term,
            geo=geo,
            window=window,
            sample_round=sample_round if sample_round is not None else 0,
            include_rising=include_rising,
        )
        return self.scheduler.fetch_one(item)

    def prefetch(
        self, workload: list[WorkItem], max_workers: int | None = None
    ) -> CrawlReport:
        """Bulk-crawl a workload ahead of pipeline runs."""
        return self.scheduler.execute(workload, max_workers=max_workers)

    def report(self) -> CrawlReport:
        """Lifetime crawl accounting across every request served."""
        return self.scheduler.lifetime_report()

    def fault_report(self) -> FaultReport | None:
        """Chaos accounting (``None`` without a fault injector)."""
        return self.scheduler.fault_report()

    @property
    def frames_stored(self) -> int:
        return self.database.frame_count()
