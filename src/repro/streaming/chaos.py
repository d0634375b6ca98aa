"""Process-level chaos for the supervised watch loop.

PR 3's fault layer (:mod:`repro.trends.faults`) attacks *requests* —
503s, timeouts, truncated frames — everything the per-frame retry
machinery is built to absorb.  This module attacks the **process**: the
failures that escape every retry budget and land on the supervisor.

* :class:`ProcessFaultProfile` — declarative rates for tick-killing
  crashes, watchdog-tripping stalls, and post-checkpoint partition
  corruption (torn/truncated or bit-flipped stream columns);
* :class:`ProcessChaos` — the seeded decision engine.  Fetch-level
  draws come from a :func:`repro.rand.substream` keyed by the request
  identity plus a per-identity attempt counter (a restarted tick's
  refetch is a *new* attempt and redraws), corruption draws by the tick
  number alone — never by wall time or arrival order, so a chaos soak
  replays bit-exactly from ``(profile, seed)``;
* :class:`ChaoticFrameSource` — a delegating wrapper over the study's
  :class:`~repro.collection.scheduler.CollectionManager`.  It sits
  *above* the fetcher retry loop, so an injected
  :class:`~repro.errors.TickCrashError` kills the tick outright
  (simulating a process death) instead of being retried away; injected
  stalls spend virtual time and then let the armed :class:`Watchdog`
  fire, exactly like a supervisor killing a wedged worker;
* :func:`damage_stream_column` — deterministic on-disk corruption of
  one geo's stream checkpoint column, discovered only by the *next*
  restart's :meth:`~repro.store.columnar.ColumnarStore.verify` pass —
  the same delayed detection a real torn write gets.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter

from repro.errors import ConfigurationError, TickCrashError, WatchdogTimeout
from repro.rand import substream
from repro.store.columnar import SERIES_DIR
from repro.timeutil import TimeWindow


class Watchdog:
    """A cooperative virtual-time deadline for one supervised tick.

    The supervisor arms it before each tick; chaos stalls (and any
    other cooperative checkpoint) call :meth:`check`, which raises
    :class:`~repro.errors.WatchdogTimeout` once the tick has spent more
    virtual seconds than the deadline allows.  Cooperative because the
    whole runtime shares one simulated clock — there is no second
    process to send signals from, and none is needed: everything that
    can wedge a tick (stalls, timeouts, backoff) spends virtual time
    through that clock.
    """

    def __init__(self, clock, deadline_seconds: float) -> None:
        if deadline_seconds <= 0:
            raise ConfigurationError(
                f"watchdog deadline must be positive: {deadline_seconds}"
            )
        self.clock = clock
        self.deadline_seconds = deadline_seconds
        self._armed_at: float | None = None

    def arm(self) -> None:
        self._armed_at = float(self.clock())

    def disarm(self) -> None:
        self._armed_at = None

    def elapsed(self) -> float:
        if self._armed_at is None:
            return 0.0
        return float(self.clock()) - self._armed_at

    def expired(self) -> bool:
        return self._armed_at is not None and (
            self.elapsed() > self.deadline_seconds
        )

    def check(self) -> None:
        """Raise :class:`WatchdogTimeout` if the deadline is spent."""
        if self.expired():
            raise WatchdogTimeout(self.elapsed(), self.deadline_seconds)


#: Corruption kinds :func:`damage_stream_column` can apply.
CORRUPTION_KINDS = ("truncate", "bitflip")


@dataclasses.dataclass(frozen=True, slots=True)
class ProcessFaultProfile:
    """Declarative process chaos: how often the daemon itself suffers.

    ``crash_rate`` and ``stall_rate`` are probabilities per fetch
    attempt (mutually exclusive, crash drawn first); their sum must
    stay below 1 so every tick eventually completes.  ``corrupt_rate``
    is a probability per *completed checkpoint* that one geo's stream
    column gets damaged on disk.
    """

    name: str = "custom"
    #: Per fetch attempt: the tick dies mid-crawl (``TickCrashError``).
    crash_rate: float = 0.0
    #: Per fetch attempt: the fetch wedges for ``stall_seconds`` of
    #: virtual time, tripping any armed watchdog.
    stall_rate: float = 0.0
    stall_seconds: float = 300.0
    #: Per completed checkpoint: one stream column is damaged on disk.
    corrupt_rate: float = 0.0
    #: Bytes cut from the end of a torn ("truncate") column.
    torn_bytes: int = 16
    #: Which corruption kinds the corruption draw chooses between.
    kinds: tuple[str, ...] = CORRUPTION_KINDS

    def __post_init__(self) -> None:
        rates = (self.crash_rate, self.stall_rate, self.corrupt_rate)
        if any(rate < 0.0 for rate in rates):
            raise ConfigurationError(f"fault rates must be >= 0: {rates}")
        if self.crash_rate + self.stall_rate >= 1.0:
            raise ConfigurationError(
                "crash_rate + stall_rate must stay below 1 so every tick "
                f"eventually completes: {self.crash_rate + self.stall_rate}"
            )
        if self.corrupt_rate > 1.0:
            raise ConfigurationError(
                f"corrupt_rate is a probability: {self.corrupt_rate}"
            )
        if self.stall_seconds <= 0 or self.torn_bytes < 1:
            raise ConfigurationError(
                f"stall_seconds must be positive and torn_bytes >= 1: "
                f"{self.stall_seconds}, {self.torn_bytes}"
            )
        if not self.kinds or any(k not in CORRUPTION_KINDS for k in self.kinds):
            raise ConfigurationError(
                f"kinds must be drawn from {CORRUPTION_KINDS}: {self.kinds}"
            )


#: Named profiles: each process failure mode in isolation, plus the
#: kill/corrupt soak the resilience benchmark runs.
PROCESS_PROFILES: dict[str, ProcessFaultProfile] = {
    "none": ProcessFaultProfile(name="none"),
    "crashy": ProcessFaultProfile(name="crashy", crash_rate=0.06),
    "wedged": ProcessFaultProfile(
        name="wedged", stall_rate=0.05, stall_seconds=600.0
    ),
    "torn": ProcessFaultProfile(name="torn", corrupt_rate=0.4),
    "havoc": ProcessFaultProfile(
        name="havoc",
        crash_rate=0.04,
        stall_rate=0.03,
        stall_seconds=600.0,
        corrupt_rate=0.25,
    ),
}


class ProcessChaos:
    """Seeded, order-independent process-fault decisions plus counters."""

    def __init__(self, profile: ProcessFaultProfile, seed: int, clock=None):
        self.profile = profile
        self.seed = seed
        #: The shared virtual clock; stalls spend time through it.
        self.clock = clock
        #: Armed by the supervisor around each tick; stalls check it.
        self.watchdog: Watchdog | None = None
        self.injected: Counter = Counter()
        self._attempts: Counter = Counter()

    def fetch_fault(
        self, term: str, geo: str, window: TimeWindow, sample_round: int
    ) -> str | None:
        """The planned fault for one fetch attempt: "crash", "stall", None.

        Keyed by request identity + per-identity attempt count, so the
        decision is independent of crawl order, and a restarted tick's
        refetch of the same frame draws fresh.
        """
        identity = (
            term,
            geo,
            window.start.isoformat(),
            window.end.isoformat(),
            sample_round,
        )
        attempt = self._attempts[identity]
        self._attempts[identity] += 1
        if not (self.profile.crash_rate or self.profile.stall_rate):
            return None
        rng = substream(self.seed, "process", *identity, attempt)
        draw = float(rng.random())
        if draw < self.profile.crash_rate:
            return "crash"
        if draw < self.profile.crash_rate + self.profile.stall_rate:
            return "stall"
        return None

    def corruption(self, tick: int, geos) -> tuple[str, str] | None:
        """What to damage after *tick*'s checkpoint: (geo, kind) or None."""
        if self.profile.corrupt_rate <= 0.0:
            return None
        rng = substream(self.seed, "corrupt", tick)
        if float(rng.random()) >= self.profile.corrupt_rate:
            return None
        ordered = sorted(geos)
        geo = ordered[int(rng.integers(len(ordered)))]
        kind = self.profile.kinds[int(rng.integers(len(self.profile.kinds)))]
        return geo, kind

    def injection_counts(self) -> dict[str, int]:
        return {
            kind: self.injected.get(kind, 0)
            for kind in ("crash", "stall", "truncate", "bitflip")
        }


class ChaoticFrameSource:
    """A frame source that dies and wedges exactly as planned.

    Wraps the study's ``CollectionManager`` *above* the per-frame retry
    loop: an injected crash is a process death, not a 503, so nothing
    below the supervisor may absorb it.  All other attributes delegate
    to the wrapped manager, so the daemon's crawl accounting, caching,
    and dead-letter handling are untouched.
    """

    def __init__(self, inner, chaos: ProcessChaos) -> None:
        self.inner = inner
        self.chaos = chaos

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def interest_over_time(
        self,
        term: str,
        geo: str,
        window: TimeWindow,
        sample_round: int | None = None,
        include_rising: bool = True,
    ):
        fault = self.chaos.fetch_fault(
            term, geo, window, sample_round if sample_round is not None else 0
        )
        if fault == "crash":
            self.chaos.injected["crash"] += 1
            raise TickCrashError(
                f"injected process crash mid-crawl ({geo}, "
                f"..{window.end:%Y-%m-%d}, round {sample_round})"
            )
        if fault == "stall":
            self.chaos.injected["stall"] += 1
            if self.chaos.clock is not None:
                self.chaos.clock.sleep(self.chaos.profile.stall_seconds)
            if self.chaos.watchdog is not None:
                self.chaos.watchdog.check()
        return self.inner.interest_over_time(
            term,
            geo,
            window,
            sample_round=sample_round,
            include_rising=include_rising,
        )


def damage_stream_column(
    store, geo: str, kind: str, seed: int, tick: int, torn_bytes: int = 16
) -> str | None:
    """Corrupt one geo's stream column on disk; returns the file path.

    ``truncate`` tears the configured tail bytes off (a short write);
    ``bitflip`` flips one bit at a seeded offset (silent media rot).
    Both leave the manifest digest stale, which is the point: the
    damage is invisible until the next restart's ``verify`` pass.
    Returns ``None`` (no damage) when the column does not exist —
    e.g. it is already quarantined.
    """
    path = os.path.join(store.root, SERIES_DIR, f"{geo}.stream.npy")
    if not os.path.exists(path):
        return None
    size = os.path.getsize(path)
    rng = substream(seed, "damage", geo, tick)
    if kind == "truncate":
        torn = min(max(1, size - 1), torn_bytes)
        with open(path, "r+b") as handle:
            handle.truncate(size - torn)
    elif kind == "bitflip":
        offset = int(rng.integers(size))
        bit = 1 << int(rng.integers(8))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ bit]))
    else:
        raise ConfigurationError(f"unknown corruption kind: {kind!r}")
    return path
