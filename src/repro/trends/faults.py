"""Deterministic fault injection for the simulated Trends service.

The real Google Trends is hostile in more ways than rate limiting: it
times out, drops requests, answers with truncated or below-threshold
frames, resets quotas, and occasionally blacklists an IP outright
(paper §4; Trinocular and ThunderPing treat the same measurement-channel
unreliability as a first-class modeling concern).  This module makes
the simulator hostile *on demand*:

* :class:`FaultProfile` — declarative per-request fault rates plus
  per-IP blackout scheduling (the named :data:`PROFILES` cover each
  failure mode in isolation and one "hostile" kitchen sink);
* :class:`FaultPlan` — the seeded decision engine.  Every draw comes
  from a :func:`repro.rand.substream` keyed by the *request identity*
  (term, geo, window, round, attempt) — never by arrival order — so a
  chaos run is bit-reproducible from ``(seed, profile)`` and identical
  whether the study runs serially or sharded across worker processes;
* :class:`FaultyTrendsService` — a drop-in wrapper over
  :class:`repro.trends.service.TrendsService` that injects the planned
  faults and counts every injection, per kind and per IP.

Faults surface exactly the way the consumers must handle them:
exceptions (:class:`~repro.errors.TransientServiceError`,
:class:`~repro.errors.RequestTimeout`, rate limiting after a quota
reset) or damaged responses (truncated windows, degraded all-zero
frames) that :class:`repro.trends.client.TrendsClient` detects by
validation.  Timeouts spend virtual time through the injected sleeper —
nothing in this module ever really sleeps.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from collections import Counter
from datetime import timedelta

import numpy as np

from repro.errors import (
    ConfigurationError,
    RequestTimeout,
    TransientServiceError,
)
from repro.rand import substream
from repro.timeutil import TimeWindow
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse
from repro.trends.service import TrendsService


class FaultKind(enum.Enum):
    """Every failure mode the injector can produce."""

    TRANSIENT = "transient"  # 503-style exception, retryable
    TIMEOUT = "timeout"  # request deadline spent (virtual), then error
    TRUNCATED = "truncated"  # response missing trailing hours
    DEGRADED = "degraded"  # below-privacy-threshold all-zero frame
    QUOTA_RESET = "quota_reset"  # server drops the IP's token bucket
    BLACKOUT = "blackout"  # the IP is dark for a scheduled interval


#: Draw order for per-request faults (fixed: changing it changes seeds).
_DRAWN_KINDS: tuple[FaultKind, ...] = (
    FaultKind.TRANSIENT,
    FaultKind.TIMEOUT,
    FaultKind.TRUNCATED,
    FaultKind.DEGRADED,
    FaultKind.QUOTA_RESET,
)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultProfile:
    """Declarative chaos: how often each fault fires.

    Per-request rates are probabilities per *attempt* (retries draw
    again), mutually exclusive in :data:`_DRAWN_KINDS` order; their sum
    must stay below 1 so every frame eventually succeeds.  Blackouts
    are scheduled per IP in virtual time: every IP named in
    ``blackout_ips`` (plus each IP passing the ``blackout_probability``
    coin flip) goes dark for one drawn interval and recovers.
    """

    name: str = "custom"
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    truncate_rate: float = 0.0
    degrade_rate: float = 0.0
    quota_reset_rate: float = 0.0
    #: Virtual seconds spent waiting for a request that times out.
    timeout_seconds: float = 30.0
    #: Hours cut from the end of a truncated frame (drawn uniformly).
    truncate_min_hours: int = 1
    truncate_max_hours: int = 24
    #: IPs guaranteed to suffer one blackout interval.
    blackout_ips: tuple[str, ...] = ()
    #: Chance any other IP also gets a blackout interval.
    blackout_probability: float = 0.0
    #: Blackout start is drawn from [0, blackout_start_max) virtual
    #: seconds; duration from [blackout_min_s, blackout_max_s).
    blackout_start_max: float = 120.0
    blackout_min_s: float = 30.0
    blackout_max_s: float = 90.0

    def __post_init__(self) -> None:
        rates = (
            self.transient_rate,
            self.timeout_rate,
            self.truncate_rate,
            self.degrade_rate,
            self.quota_reset_rate,
        )
        if any(rate < 0.0 for rate in rates) or sum(rates) >= 1.0:
            raise ConfigurationError(
                f"per-request fault rates must be >= 0 and sum below 1: {rates}"
            )
        if not 0.0 <= self.blackout_probability <= 1.0:
            raise ConfigurationError(
                f"blackout_probability must be in [0, 1]: "
                f"{self.blackout_probability}"
            )
        if self.truncate_min_hours < 1 or (
            self.truncate_max_hours < self.truncate_min_hours
        ):
            raise ConfigurationError(
                f"invalid truncate hour range: {self.truncate_min_hours}"
                f"..{self.truncate_max_hours}"
            )

    @property
    def rates(self) -> tuple[tuple[FaultKind, float], ...]:
        return tuple(
            zip(
                _DRAWN_KINDS,
                (
                    self.transient_rate,
                    self.timeout_rate,
                    self.truncate_rate,
                    self.degrade_rate,
                    self.quota_reset_rate,
                ),
            )
        )


#: Named profiles for the CLI and the chaos test matrix: every failure
#: mode in isolation, plus the kitchen sink.
PROFILES: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "transient": FaultProfile(name="transient", transient_rate=0.2),
    "timeouts": FaultProfile(
        name="timeouts", timeout_rate=0.15, timeout_seconds=20.0
    ),
    "truncated": FaultProfile(name="truncated", truncate_rate=0.2),
    "degraded": FaultProfile(name="degraded", degrade_rate=0.2),
    "quota": FaultProfile(name="quota", quota_reset_rate=0.05),
    # Blackouts start at t=0 so they bite even when nothing else
    # advances the virtual clock; recovery rides on retry backoff and
    # breaker cooldowns spending virtual time.
    "blackout": FaultProfile(
        name="blackout", blackout_probability=1.0, blackout_start_max=0.0
    ),
    "hostile": FaultProfile(
        name="hostile",
        transient_rate=0.08,
        timeout_rate=0.05,
        truncate_rate=0.05,
        degrade_rate=0.05,
        quota_reset_rate=0.02,
        timeout_seconds=15.0,
        blackout_probability=0.5,
    ),
}


@dataclasses.dataclass(frozen=True, slots=True)
class FaultReport:
    """Everything a chaos run did to (and through) the collection layer.

    ``injected`` counts what the service wrapper actually produced;
    ``observed`` counts what the fetcher clients saw and retried.  In a
    healthy run the two agree per kind — the exactly-once accounting
    the chaos soak asserts.  Dict fields compare by value, so two runs
    of the same seeded profile produce ``==`` reports.
    """

    profile: str
    seed: int
    injected: dict[str, int]
    observed: dict[str, int]
    retries: int
    breaker_opened: int
    breaker_half_opened: int
    breaker_closed: int
    dead_letters: int
    blackout_rejections: dict[str, int]

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def describe(self) -> str:
        return (
            f"faults[{self.profile}/{self.seed}]: "
            f"{self.total_injected} injected, {self.retries} retries, "
            f"breaker {self.breaker_opened} opens, "
            f"{self.dead_letters} dead-lettered"
        )

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "injected": dict(self.injected),
            "observed": dict(self.observed),
            "retries": self.retries,
            "breaker_opened": self.breaker_opened,
            "breaker_half_opened": self.breaker_half_opened,
            "breaker_closed": self.breaker_closed,
            "dead_letters": self.dead_letters,
            "blackout_rejections": dict(self.blackout_rejections),
        }

    def plus(self, others) -> "FaultReport":
        """This report with the counters of *others* added in.

        *others* are reports (or :class:`~repro.core.progress.FaultStats`
        events, which carry the same fields) of the same profile and
        seed — e.g. the per-shard accounting of a process-sharded study.
        """
        merged = self
        for other in others:
            merged = FaultReport(
                profile=merged.profile,
                seed=merged.seed,
                injected=_add_counts(merged.injected, other.injected),
                observed=_add_counts(merged.observed, other.observed),
                retries=merged.retries + other.retries,
                breaker_opened=merged.breaker_opened + other.breaker_opened,
                breaker_half_opened=merged.breaker_half_opened
                + other.breaker_half_opened,
                breaker_closed=merged.breaker_closed + other.breaker_closed,
                dead_letters=merged.dead_letters + other.dead_letters,
                blackout_rejections=_add_counts(
                    merged.blackout_rejections, other.blackout_rejections
                ),
            )
        return merged


def _add_counts(first: dict[str, int], second: dict[str, int]) -> dict[str, int]:
    """Per-key sum of two counter dicts (zero counts are kept)."""
    merged = dict(first)
    for key, count in second.items():
        merged[key] = merged.get(key, 0) + count
    return merged


class FaultPlan:
    """Seeded, order-independent fault decisions.

    Per-request draws are keyed by (request identity, sample round,
    attempt number); per-IP blackout schedules by the IP alone.  Either
    way a decision never depends on when — or on which thread — the
    request arrives, which is what keeps chaos runs reproducible and
    parallel runs equal to serial ones.
    """

    def __init__(self, profile: FaultProfile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self._blackouts: dict[str, tuple[float, float] | None] = {}
        self._lock = threading.Lock()

    def draw(
        self, cache_key: tuple, sample_round: object, attempt: int
    ) -> tuple[FaultKind | None, int]:
        """The planned fault for one fetch attempt.

        Returns ``(kind, truncate_hours)``; *kind* is ``None`` for a
        clean attempt and ``truncate_hours`` only meaningful for
        :data:`FaultKind.TRUNCATED`.
        """
        rates = self.profile.rates
        if not any(rate for _, rate in rates):
            return None, 0
        rng = substream(
            self.seed, "fault", *cache_key, sample_round, attempt
        )
        draw = float(rng.random())
        cumulative = 0.0
        for kind, rate in rates:
            cumulative += rate
            if draw < cumulative:
                hours = 0
                if kind is FaultKind.TRUNCATED:
                    hours = int(
                        rng.integers(
                            self.profile.truncate_min_hours,
                            self.profile.truncate_max_hours + 1,
                        )
                    )
                return kind, hours
        return None, 0

    def blackout_window(self, ip: str) -> tuple[float, float] | None:
        """The (start, end) virtual-time blackout for *ip*, if any.

        Deterministic per (seed, ip); memoized so repeated requests do
        not redraw.
        """
        with self._lock:
            if ip in self._blackouts:
                return self._blackouts[ip]
        rng = substream(self.seed, "blackout", ip)
        scheduled = ip in self.profile.blackout_ips
        if not scheduled and self.profile.blackout_probability > 0.0:
            scheduled = float(rng.random()) < self.profile.blackout_probability
        window: tuple[float, float] | None = None
        if scheduled:
            start = float(rng.random()) * self.profile.blackout_start_max
            duration = self.profile.blackout_min_s + float(rng.random()) * (
                self.profile.blackout_max_s - self.profile.blackout_min_s
            )
            window = (start, start + duration)
        with self._lock:
            self._blackouts.setdefault(ip, window)
            return self._blackouts[ip]


class FaultyTrendsService:
    """A :class:`TrendsService` that misbehaves exactly as planned.

    Duck-types the service's ``fetch`` and forwards ``population`` /
    ``config`` / ``stats`` / ``limiter``, so every consumer — client,
    fleet, scheduler, runtime — works unchanged.  Injection counters
    live in ``injected`` (per kind) and ``blackout_rejections`` (per
    IP); both feed the :class:`FaultReport`.
    """

    def __init__(
        self,
        service: TrendsService,
        plan: FaultPlan,
        sleep=None,
    ) -> None:
        self.inner = service
        self.plan = plan
        #: Spends a timed-out request's deadline (virtual time).
        self._sleep = sleep if sleep is not None else (lambda seconds: None)
        self.injected: Counter = Counter()
        self.blackout_rejections: Counter = Counter()
        self._attempts: Counter = Counter()
        self._lock = threading.Lock()

    # -- passthroughs --------------------------------------------------------

    @property
    def population(self):
        return self.inner.population

    @property
    def config(self):
        return self.inner.config

    @property
    def stats(self):
        return self.inner.stats

    @property
    def limiter(self):
        return self.inner.limiter

    # -- the hostile fetch ---------------------------------------------------

    def fetch(
        self,
        request: TimeFrameRequest,
        ip: str = "198.51.100.1",
        sample_round: int | None = None,
        include_rising: bool = True,
    ) -> TimeFrameResponse:
        cache_key = request.cache_key
        round_label: object = sample_round if sample_round is not None else "auto"
        attempt_key = (cache_key, round_label)
        with self._lock:
            attempt = self._attempts[attempt_key]
            self._attempts[attempt_key] += 1

        window = self.plan.blackout_window(ip)
        if window is not None:
            now = self.inner.limiter.clock()
            if window[0] <= now < window[1]:
                with self._lock:
                    self.injected[FaultKind.BLACKOUT.value] += 1
                    self.blackout_rejections[ip] += 1
                raise TransientServiceError(
                    f"{ip} is dark until t={window[1]:.1f} "
                    f"(now t={now:.1f})"
                )

        kind, truncate_hours = self.plan.draw(cache_key, round_label, attempt)
        if kind is FaultKind.TRANSIENT:
            with self._lock:
                self.injected[kind.value] += 1
            raise TransientServiceError(
                f"service unavailable for {ip} (injected, attempt {attempt})"
            )
        if kind is FaultKind.TIMEOUT:
            with self._lock:
                self.injected[kind.value] += 1
            self._sleep(self.plan.profile.timeout_seconds)
            raise RequestTimeout(ip, self.plan.profile.timeout_seconds)
        if kind is FaultKind.QUOTA_RESET:
            with self._lock:
                self.injected[kind.value] += 1
            self.inner.limiter.reset_quota(ip)
            # Fall through: the fetch below observes the empty bucket.

        response = self.inner.fetch(
            request,
            ip=ip,
            sample_round=sample_round,
            include_rising=include_rising,
        )
        if kind is FaultKind.TRUNCATED:
            truncated = self._truncate(response, truncate_hours)
            if truncated is not None:
                with self._lock:
                    self.injected[kind.value] += 1
                return truncated
        if kind is FaultKind.DEGRADED:
            with self._lock:
                self.injected[kind.value] += 1
            return dataclasses.replace(
                response,
                values=np.zeros(response.values.shape, dtype=np.int16),
                rising=(),
                degraded=True,
            )
        return response

    @staticmethod
    def _truncate(
        response: TimeFrameResponse, hours: int
    ) -> TimeFrameResponse | None:
        """Drop *hours* trailing hours; ``None`` if the frame is too
        short to truncate (sub-day daily frames stay whole)."""
        window = response.request.window
        keep = window.hours - hours
        if keep < 1:
            return None
        short = TimeWindow(window.start, window.end - timedelta(hours=hours))
        request = dataclasses.replace(response.request, window=short)
        return TimeFrameResponse(
            request=request,
            values=response.values[:keep],
            rising=response.rising,
            sample_round=response.sample_round,
            degraded=response.degraded,
        )

    def injection_counts(self) -> dict[str, int]:
        """Stable snapshot of injected-fault counters (all kinds)."""
        with self._lock:
            return {
                kind.value: self.injected.get(kind.value, 0)
                for kind in FaultKind
            }
