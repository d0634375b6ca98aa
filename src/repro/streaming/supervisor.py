"""The daemon supervisor: a self-healing harness around the watch loop.

The streaming daemon made the repo a long-running service; this module
makes it an *unattended* one.  :class:`DaemonSupervisor` runs
:class:`~repro.streaming.daemon.StudyDaemon` ticks under a virtual-time
watchdog and owns every failure the per-frame retry machinery cannot:

* a tick failure is classified with :func:`repro.errors.classify_error`
  — retryable failures (crashes, watchdog timeouts, transient storms
  that escaped the fetcher budget) trigger a **restart from the
  columnar stream checkpoint** after seeded-jitter exponential backoff;
  fatal ones (and an exhausted restart budget) **halt**;
* every restart first runs the store's integrity pass
  (:meth:`~repro.store.columnar.ColumnarStore.verify` with quarantine),
  so torn or bit-flipped partitions are moved aside and the rebuilt
  daemon re-crawls exactly the quarantined geographies;
* health is an explicit three-state machine — ``healthy`` → ``degraded``
  on the first failure, back to ``healthy`` after
  ``recovery_ticks`` consecutive clean ticks, ``halted`` terminally —
  emitted as :class:`~repro.core.progress.HealthChanged` progress
  events and served by the web layer's ``/healthz`` / ``/readyz``;
* the serving layer degrades instead of dying: while the daemon is
  down the attached app keeps answering from its last installed
  snapshot, and after any rebuild the supervisor resynchronizes it
  with a full snapshot install before re-attaching delta installs
  (a rebuilt daemon and a stale app index must never splice).

Everything is virtual-time and seeded: backoff jitter comes from a
:func:`repro.rand.substream` keyed by ``(tick, attempt)``, chaos from
:class:`~repro.streaming.chaos.ProcessChaos` — a supervised soak
replays bit-exactly, which is what lets the resilience benchmark
commit recovery-time numbers as portable floors.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

from repro.core.progress import (
    HealthChanged,
    Heartbeat,
    PartitionQuarantined,
    TickRestarted,
)
from repro.errors import (
    ConfigurationError,
    ErrorClass,
    ReproError,
    SupervisorHalted,
    classify_error,
)
from repro.rand import substream
from repro.streaming.chaos import (
    ChaoticFrameSource,
    ProcessChaos,
    Watchdog,
    damage_stream_column,
)
from repro.streaming.config import StreamConfig

if TYPE_CHECKING:
    from repro.runtime.study import StudyRuntime
    from repro.streaming.daemon import StudyDaemon, TickResult
    from repro.web.app import SiftWebApp


class HealthState(enum.Enum):
    """The supervisor's externally-visible condition."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    HALTED = "halted"


@dataclasses.dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Restart policy knobs (all time in virtual seconds)."""

    #: Watchdog deadline per tick; a tick spending more virtual time
    #: than this is killed (cooperatively — see ``chaos.Watchdog``).
    watchdog_seconds: float = 3600.0
    #: Consecutive-failure budget: the supervisor halts when one tick
    #: fails this many times in a row (success resets the count).
    max_restarts: int = 8
    #: Exponential backoff before each restart:
    #: ``min(cap, base * factor**(attempt-1))`` scaled by seeded jitter
    #: drawn uniformly from [0.5, 1.0].
    backoff_base: float = 2.0
    backoff_factor: float = 2.0
    backoff_cap: float = 600.0
    backoff_seed: int = 99
    #: Clean ticks required before ``degraded`` recovers to ``healthy``.
    recovery_ticks: int = 2
    #: Emit a :class:`Heartbeat` every N successful ticks (0 disables).
    heartbeat_every: int = 1

    def __post_init__(self) -> None:
        if self.watchdog_seconds <= 0:
            raise ConfigurationError(
                f"watchdog_seconds must be positive: {self.watchdog_seconds}"
            )
        if self.max_restarts < 1:
            raise ConfigurationError(
                f"max_restarts must be >= 1: {self.max_restarts}"
            )
        if (
            self.backoff_base <= 0
            or self.backoff_factor < 1
            or self.backoff_cap < self.backoff_base
        ):
            raise ConfigurationError(
                f"invalid backoff geometry: base={self.backoff_base}, "
                f"factor={self.backoff_factor}, cap={self.backoff_cap}"
            )
        if self.recovery_ticks < 1:
            raise ConfigurationError(
                f"recovery_ticks must be >= 1: {self.recovery_ticks}"
            )
        if self.heartbeat_every < 0:
            raise ConfigurationError(
                f"heartbeat_every must be >= 0: {self.heartbeat_every}"
            )


class DaemonSupervisor:
    """Runs daemon ticks, restarts from checkpoint, reports health."""

    def __init__(
        self,
        runtime: "StudyRuntime",
        geos,
        *,
        config: SupervisorConfig | None = None,
        stream: StreamConfig | None = None,
        app: "SiftWebApp | None" = None,
        chaos: ProcessChaos | None = None,
    ) -> None:
        self.runtime = runtime
        self.geos = tuple(geos)
        self.config = config or SupervisorConfig()
        self.stream = stream
        self.app = app
        self.chaos = chaos
        self.state = HealthState.HEALTHY
        #: Lifetime restart count (never resets; health_payload reports it).
        self.restarts = 0
        #: Geographies quarantined by integrity passes, in order.
        self.quarantined: list[str] = []
        #: One entry per degraded incident that recovered: tick indices,
        #: failure count, and virtual seconds from first failure to the
        #: recovery transition.
        self.recovery_log: list[dict] = []
        self._consecutive_failures = 0
        self._clean_streak = 0
        self._incident: dict | None = None
        self._last_error: str | None = None
        self.watchdog = Watchdog(runtime.clock, self.config.watchdog_seconds)
        if chaos is not None:
            chaos.clock = runtime.clock
            chaos.watchdog = self.watchdog
            if not isinstance(runtime.sift.source, ChaoticFrameSource):
                runtime.sift.source = ChaoticFrameSource(
                    runtime.sift.source, chaos
                )
        self.daemon: "StudyDaemon | None" = self._spawn()
        self._sync_app()

    # -- daemon lifecycle ------------------------------------------------------

    def _spawn(self) -> "StudyDaemon":
        """Verify the store, quarantine damage, build a fresh daemon.

        The daemon's own resume then restores every intact geography
        from the stream checkpoint and re-crawls exactly the
        quarantined ones.
        """
        if self.runtime.store is not None:
            verification = self.runtime.store.verify(quarantine=True)
            for item in verification.damage:
                self._emit(
                    PartitionQuarantined(
                        geo=item.geo, file=item.file, reason=item.kind
                    )
                )
            self.quarantined.extend(verification.quarantined)
        return self.runtime.stream_daemon(self.geos, stream=self.stream)

    def _sync_app(self) -> None:
        """Resynchronize the serving app with the (re)built daemon.

        Delta installs splice onto the app's current index position, so
        after any rebuild the app gets one full snapshot install at the
        daemon's position before delta installs re-attach.  A daemon
        with no completed tick has no snapshot yet; the attach then
        happens on its first success.
        """
        if self.app is None or self.daemon is None:
            return
        self.daemon.app = None
        if self.daemon.ticks_done > 0:
            self.app.install_study(
                self.daemon.snapshot_study(),
                stream_tick=self.daemon.ticks_done - 1,
            )
            self.daemon.app = self.app

    def attach_app(self, app: "SiftWebApp") -> None:
        """Wire a serving app in after construction (e.g. once the first
        tick has produced a snapshot to build it from)."""
        self.app = app
        self._sync_app()

    # -- geometry --------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.daemon is not None and self.daemon.done

    @property
    def ticks_done(self) -> int:
        return self.daemon.ticks_done if self.daemon is not None else 0

    @property
    def total_ticks(self) -> int:
        return self.daemon.total_ticks if self.daemon is not None else 0

    # -- the supervised tick ---------------------------------------------------

    def tick(self) -> "TickResult":
        """Run one tick to completion, restarting through failures.

        Returns the successful :class:`TickResult`; raises
        :class:`SupervisorHalted` when the restart budget is spent or a
        fatal error surfaces.
        """
        while True:
            if self.state is HealthState.HALTED:
                raise SupervisorHalted(
                    "supervisor is halted", restarts=self.restarts
                )
            if self.daemon is None:
                try:
                    self.daemon = self._spawn()
                    self._sync_app()
                except SupervisorHalted:
                    raise
                except Exception as error:  # rebuild failed: same policy
                    self._failure(error)
                    continue
            tick_index = self.daemon.ticks_done
            self.watchdog.arm()
            try:
                result = self.daemon.tick()
            except SupervisorHalted:
                raise
            except Exception as error:
                self._failure(error, tick_index)
                continue
            finally:
                self.watchdog.disarm()
            self._success(result)
            return result

    def run(self, max_ticks: int | None = None):
        """Supervised ticks to the stream's end; finalize when done."""
        ran = 0
        while not self.done and (max_ticks is None or ran < max_ticks):
            self.tick()
            ran += 1
        return self.finalize() if self.done else None

    def finalize(self):
        return self.daemon.finalize()

    # -- failure policy --------------------------------------------------------

    def _failure(self, error: Exception, tick_index: int | None = None) -> None:
        tick = self.ticks_done if tick_index is None else tick_index
        self._last_error = f"{type(error).__name__}: {error}"
        if isinstance(error, ReproError):
            error_class = classify_error(error)
        else:
            # Anything foreign (a real bug, an OS error) is treated as
            # a process crash: restartable, budget permitting.
            error_class = ErrorClass.RETRYABLE
        if error_class is ErrorClass.FATAL:
            self._halt(f"fatal error at tick {tick}: {self._last_error}", error)
        self._consecutive_failures += 1
        self._clean_streak = 0
        if self._consecutive_failures > self.config.max_restarts:
            self._halt(
                f"restart budget exhausted: tick {tick} failed "
                f"{self._consecutive_failures} times in a row "
                f"(last: {self._last_error})",
                error,
            )
        self.restarts += 1
        self._transition(
            HealthState.DEGRADED, f"tick failed: {self._last_error}", tick
        )
        if self._incident is None:
            self._incident = {
                "tick": tick,
                "started": float(self.runtime.clock()),
                "failures": 0,
            }
        self._incident["failures"] += 1
        backoff = self._backoff(tick, self._consecutive_failures)
        self._emit(
            TickRestarted(
                tick=tick,
                attempt=self._consecutive_failures,
                error_class=error_class.value,
                error=self._last_error,
                backoff_seconds=round(backoff, 3),
            )
        )
        self.runtime.clock.sleep(backoff)
        if self.runtime.store is not None:
            # A real restart loses the process: rebuild the daemon from
            # the stream checkpoint (running the integrity pass on the
            # way) instead of reusing in-memory state.
            self.daemon = None
        # Without a store there is no checkpoint to rebuild from; the
        # tick itself is retry-safe, so the same daemon just tries again.

    def _backoff(self, tick: int, attempt: int) -> float:
        base = min(
            self.config.backoff_cap,
            self.config.backoff_base
            * self.config.backoff_factor ** (attempt - 1),
        )
        rng = substream(
            self.config.backoff_seed, "supervisor-backoff", tick, attempt
        )
        return base * (0.5 + 0.5 * float(rng.random()))

    def _halt(self, reason: str, error: Exception | None = None) -> None:
        self._transition(HealthState.HALTED, reason, self.ticks_done)
        raise SupervisorHalted(reason, restarts=self.restarts, last_error=error)

    # -- success path ----------------------------------------------------------

    def _success(self, result: "TickResult") -> None:
        self._consecutive_failures = 0
        if self.state is HealthState.DEGRADED:
            self._clean_streak += 1
            if self._clean_streak >= self.config.recovery_ticks:
                incident = self._incident or {}
                self.recovery_log.append(
                    {
                        "tick": incident.get("tick", result.tick),
                        "failures": incident.get("failures", 0),
                        "recovered_tick": result.tick,
                        "ticks_degraded": result.tick
                        - incident.get("tick", result.tick),
                        "virtual_seconds": round(
                            float(self.runtime.clock())
                            - incident.get(
                                "started", float(self.runtime.clock())
                            ),
                            3,
                        ),
                    }
                )
                self._incident = None
                self._transition(
                    HealthState.HEALTHY,
                    f"{self._clean_streak} consecutive clean ticks",
                    result.tick,
                )
                self._clean_streak = 0
        if self.app is not None and self.daemon.app is None:
            # First success of an app that could not attach at spawn.
            self._sync_app()
        if (
            self.config.heartbeat_every
            and self.daemon.ticks_done % self.config.heartbeat_every == 0
        ):
            beat = Heartbeat(
                tick=result.tick,
                health=self.state.value,
                ticks_done=self.daemon.ticks_done,
                total_ticks=self.daemon.total_ticks,
                restarts=self.restarts,
            )
            self._emit(beat)
            if self.app is not None:
                self.app.publish_stream_events([beat])
        self._corrupt_after(result.tick)

    def _corrupt_after(self, tick: int) -> None:
        """Apply planned chaos corruption to the freshly-written checkpoint.

        The damage lands *after* the tick completes — like a torn write
        racing a crash — and goes undetected until the next restart's
        verify pass, which is exactly how real corruption behaves.
        """
        if self.chaos is None or self.runtime.store is None:
            return
        if self.daemon is None or self.runtime.store.load_stream() is None:
            return
        planned = self.chaos.corruption(tick, self.geos)
        if planned is None:
            return
        geo, kind = planned
        damaged = damage_stream_column(
            self.runtime.store,
            geo,
            kind,
            self.chaos.seed,
            tick,
            torn_bytes=self.chaos.profile.torn_bytes,
        )
        if damaged is not None:
            self.chaos.injected[kind] += 1

    # -- health ----------------------------------------------------------------

    def _transition(self, state: HealthState, reason: str, tick: int) -> None:
        if state is self.state:
            return
        previous = self.state
        self.state = state
        self._emit(
            HealthChanged(
                state=state.value,
                previous=previous.value,
                reason=reason,
                tick=tick,
                restarts=self.restarts,
            )
        )

    def health_payload(self) -> dict:
        """What ``/healthz`` (and ``/api/runtime``'s health field) serves."""
        return {
            "state": self.state.value,
            "restarts": self.restarts,
            "consecutive_failures": self._consecutive_failures,
            "ticks_done": self.ticks_done,
            "total_ticks": self.total_ticks,
            "quarantined": list(self.quarantined),
            "recoveries": len(self.recovery_log),
            "last_error": self._last_error,
        }

    # -- progress --------------------------------------------------------------

    def _emit(self, event) -> None:
        self.runtime.sift._emit(event)
