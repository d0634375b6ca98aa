"""Chaos soaks over the fault-injecting Trends service.

Every test here runs on virtual time (:class:`SimulatedClock`) — a
soak that injects minutes of timeouts and blackouts finishes in well
under a second of wall clock.  The properties proved:

* every named fault profile completes the study, in serial and
  sharded across worker processes;
* chaos runs are bit-reproducible: ``(profile, seed)`` determines the
  injected faults, the fault report, and the study output exactly;
* when nothing is dead-lettered the spike set is *identical* to the
  fault-free golden run — retries and reassignment fully absorb the
  injected faults;
* every injected fault is observed exactly once by a client retry
  (exactly-once accounting between injector and crawl), and a sharded
  study's fault report covers the crawls inside its worker processes;
* per-IP blackouts trip the circuit breaker within its failure
  threshold, work is reassigned, and the breaker recovers through
  half-open probes once the IP comes back;
* the pipeline degrades gracefully under dead letters (bounded frame
  loss, progress events) instead of dying.

``CHAOS_SEED`` in the environment re-runs the soaks under a different
fault schedule (the CI matrix does this); every property is seed-
independent.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.collection.breaker import BreakerConfig
from repro.core import SiftConfig
from repro.core.averaging import AveragingConfig
from repro.core.progress import CrawlStats, FaultStats, FramesDropped, ProgressLog
from repro.runtime.study import StudyRuntime
from repro.timeutil import utc
from repro.trends.faults import PROFILES, FaultProfile
from repro.web.app import SiftWebApp

#: Overridable by the CI chaos-smoke matrix; every assertion below is
#: a property of *any* seed, not of one blessed schedule.
SEED = int(os.environ.get("CHAOS_SEED", "7"))
GEOS = ("US-TX", "US-CA")
START, END = utc(2021, 1, 1), utc(2021, 2, 1)
SIFT = SiftConfig(annotate=False)
PROFILE_NAMES = tuple(sorted(PROFILES))


@pytest.fixture(autouse=True)
def _hang_guard():
    """Fail loudly instead of hanging if virtual time ever regresses.

    A scheduling bug under chaos shows up as a deadlocked lease or an
    endless retry loop; without a guard that reads as a frozen test
    run.  (CI additionally runs this file under pytest-timeout.)
    """
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum, frame):
        raise RuntimeError("chaos test exceeded the 120 s hang guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_chaos(
    profile, seed=SEED, workers=1, fetchers=4, sift=SIFT, progress=None,
    executor="auto",
):
    """One small study under the given fault profile; returns (study, report)."""
    runtime = StudyRuntime.build(
        background_scale=0.3,
        start=START,
        end=END,
        fetcher_count=fetchers,
        max_workers=workers,
        executor=executor,
        checkpoint=False,
        sift=sift,
        faults=profile,
        fault_seed=seed,
        progress=progress,
    )
    try:
        study = runtime.run_study(GEOS)
        return study, runtime.fault_report()
    finally:
        runtime.close()


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


def assert_every_fault_observed_once(report) -> None:
    """Each injected fault kind matches the client retries it causes."""
    injected, observed = dict(report.injected), dict(report.observed)
    # Blackout rejections surface to the client as 503-style errors.
    assert observed.get("TransientServiceError", 0) == (
        injected["transient"] + injected["blackout"]
    )
    assert observed.get("RequestTimeout", 0) == injected["timeout"]
    assert observed.get("TruncatedFrameError", 0) == injected["truncated"]
    assert observed.get("DegradedFrameError", 0) == injected["degraded"]
    # A quota reset drains the bucket, so the very request that
    # triggered it is rate-limited at least once.
    assert observed.get("RateLimitError", 0) >= injected["quota_reset"]
    # Nothing is double-counted and nothing vanishes.
    assert sum(observed.values()) == report.retries


@pytest.fixture(scope="module")
def golden_spikes():
    """The fault-free study output every absorbed-chaos run must match."""
    study, report = run_chaos(None)
    assert report is None  # no injector configured at all
    return spike_dicts(study)


class TestChaosSoak:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_every_profile_completes_and_matches_golden(
        self, profile, workers, golden_spikes
    ):
        """Absorbed faults leave no trace on the study output."""
        study, report = run_chaos(profile, workers=workers)
        assert report is not None
        assert report.profile == profile
        assert report.seed == SEED
        assert report.dead_letters == 0  # these profiles are absorbable
        assert spike_dicts(study) == golden_spikes

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_chaos_runs_are_bit_reproducible(self, profile):
        """Same (profile, seed) ⇒ identical faults, report, and spikes."""
        first_study, first_report = run_chaos(profile)
        second_study, second_report = run_chaos(profile)
        assert first_report.to_dict() == second_report.to_dict()
        assert spike_dicts(first_study) == spike_dicts(second_study)

    def test_parallel_spikes_match_serial(self):
        """Worker processes perturb neither the detected spikes nor the
        chaos accounting: the shards' fault reports fold into the
        parent's, so injected faults are counted and observed."""
        serial, _ = run_chaos("hostile", workers=1)
        parallel, parallel_report = run_chaos(
            "hostile", workers=2, executor="process"
        )
        assert spike_dicts(parallel) == spike_dicts(serial)
        assert parallel_report.dead_letters == 0
        assert parallel_report.total_injected > 0
        assert_every_fault_observed_once(parallel_report)

    def test_seed_changes_the_injection_schedule(self):
        _, first = run_chaos("hostile", seed=SEED)
        _, second = run_chaos("hostile", seed=SEED + 1)
        assert first.to_dict() != second.to_dict()

    def test_none_profile_is_transparent(self):
        """The wrapper with the null profile injects exactly nothing."""
        _, report = run_chaos("none")
        assert report.total_injected == 0
        assert report.retries == 0
        assert report.dead_letters == 0
        assert report.breaker_opened == 0

    def test_chaos_spends_no_real_time_sleeping(self, monkeypatch):
        """Timeouts, backoff, and cooldowns all ride the virtual clock."""

        def _real_sleep_is_a_bug(seconds):
            raise AssertionError(f"real time.sleep({seconds!r}) during a chaos soak")

        monkeypatch.setattr(time, "sleep", _real_sleep_is_a_bug)
        _, report = run_chaos("hostile")
        assert report.total_injected > 0


class TestExactlyOnceAccounting:
    """Every injected fault surfaces as exactly one observed retry cause."""

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_observed_retries_match_injected_faults(self, profile):
        _, report = run_chaos(profile)
        assert_every_fault_observed_once(report)


class TestBreakerShedsLoad:
    THRESHOLD = BreakerConfig().failure_threshold

    def test_dark_ips_stop_receiving_requests(self):
        """A blacked-out IP sees at most threshold + probe requests."""
        study, report = run_chaos("blackout")
        assert report.injected["blackout"] > 0
        assert report.breaker_opened >= 1
        assert report.blackout_rejections  # at least one IP went dark
        for ip, rejected in report.blackout_rejections.items():
            # The breaker opens after THRESHOLD consecutive failures;
            # each later hit is a single half-open probe.
            assert rejected <= self.THRESHOLD + report.breaker_half_opened, ip
        # The rest of the fleet absorbed the reassigned work.
        assert report.dead_letters == 0
        assert study.spike_count > 0

    def test_breaker_recovers_once_the_blackout_lifts(self, golden_spikes):
        """With a single unit the crawl *must* ride out the blackout:
        open, wait out the cooldown on virtual time, half-open probe,
        close, finish — and still produce the golden spikes."""
        study, report = run_chaos("blackout", fetchers=1)
        assert report.breaker_opened >= 1
        assert report.breaker_half_opened >= 1
        assert report.breaker_closed >= 1  # a probe succeeded: recovery
        for rejected in report.blackout_rejections.values():
            assert rejected <= self.THRESHOLD + report.breaker_half_opened
        assert report.dead_letters == 0
        assert spike_dicts(study) == golden_spikes


class TestDeadLetters:
    def test_pipeline_survives_dead_letters_with_bounded_loss(self):
        """An unabsorbable profile degrades the study, never kills it.

        The profile and seed here are a tuned fixture (not CHAOS_SEED):
        transient_rate=0.8 is hot enough that a few frames exhaust the
        retry budget on every unit and dead-letter, while the averaging
        layer's missing-frame tolerance keeps each round alive.
        """
        brutal = FaultProfile(name="brutal", transient_rate=0.8)
        sift = SiftConfig(
            annotate=False,
            averaging=AveragingConfig(max_missing_fraction=0.4),
        )
        log = ProgressLog()
        study, report = run_chaos(brutal, seed=7, sift=sift, progress=log)

        assert report.dead_letters > 0  # the chaos was not absorbable
        missing = sum(
            len(state.averaging.missing_frames) for state in study.states.values()
        )
        assert missing == report.dead_letters  # one MissingFrame per DLQ record
        assert study.spike_count > 0  # detection still works on partial data

        dropped_events = log.of_type(FramesDropped)
        assert sum(event.dropped for event in dropped_events) == report.dead_letters
        crawl_events = log.of_type(CrawlStats)
        assert sum(event.dead_lettered for event in crawl_events) == report.dead_letters
        fault_events = log.of_type(FaultStats)
        assert fault_events, "chaos runs must surface FaultStats progress events"
        assert fault_events[-1].dead_letters == report.dead_letters
        assert fault_events[-1].profile == "brutal"


class TestRuntimeTelemetry:
    def test_web_runtime_endpoint_reports_chaos_accounting(self):
        study, report = run_chaos("hostile")
        app = SiftWebApp(study, fault_report=report)
        status, content_type, body = app.handle_path("/api/runtime")
        assert status == 200
        payload = json.loads(body)
        assert payload["faults"]["profile"] == "hostile"
        assert payload["faults"]["seed"] == SEED
        assert payload["faults"]["dead_letters"] == 0
        assert payload["faults"]["retries"] == report.retries

    def test_faultless_runtime_payload_has_no_faults(self):
        study, report = run_chaos(None)
        assert report is None
        app = SiftWebApp(study)
        _, _, body = app.handle_path("/api/runtime")
        assert json.loads(body)["faults"] is None
