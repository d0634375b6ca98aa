"""Streamed-equals-batch: the correctness bar of the watch loop.

The :class:`~repro.streaming.daemon.StudyDaemon` claims byte-identity
with batch SIFT — not just at the end of the stream, but at *every*
tick: the streamed study after tick ``t`` must equal a batch
``run_study`` restricted to the prefix window ``[start, frames[t].end)``
(DESIGN.md §12).  The tests here prove that claim across stitcher
backends and executors, prove a killed daemon resumes from the columnar
store without refetching a single frame, and soak the tick loop under
injected faults: a tick that dies mid-crawl retries without
double-feeding any stitcher.
"""

from __future__ import annotations

import pytest

from repro.core import SiftConfig
from repro.core.averaging import AveragingConfig
from repro.core.detection import DetectionConfig
from repro.errors import CheckpointMismatchError, ConfigurationError
from repro.runtime.study import StudyRuntime
from repro.streaming import StreamConfig
from repro.timeutil import utc

GEOS = ("US-TX", "US-CA", "US-OK")
START, END = utc(2021, 1, 1), utc(2021, 2, 7)  # six weekly ticks
ROUNDS = 2
SEED = 11


def build_runtime(
    stitcher: str = "overlap_ratio",
    workers: int = 1,
    executor: str = "auto",
    faults=None,
    fault_seed: int = 7,
    store: str | None = None,
):
    """A small deployment with the fixed round count streaming needs."""
    return StudyRuntime.build(
        background_scale=0.3,
        seed=SEED,
        start=START,
        end=END,
        max_workers=workers,
        executor=executor,
        sift=SiftConfig(
            annotate=False,
            stitcher=stitcher,
            averaging=AveragingConfig(min_rounds=ROUNDS, max_rounds=ROUNDS),
        ),
        checkpoint=False,
        store=store,
        faults=faults,
        fault_seed=fault_seed,
    )


def spike_dicts(study) -> list[dict]:
    return [spike.to_dict() for spike in study.spikes]


class TestPrefixParity:
    """Every prefix tick equals batch restricted to that window."""

    @pytest.mark.parametrize("stitcher", ["overlap_ratio", "calibrated"])
    # A runtime whose batch studies shard across processes still
    # streams: the daemon ingests every geo in-process.
    @pytest.mark.parametrize(
        "workers,executor", [(1, "serial"), (3, "process")]
    )
    def test_streamed_prefix_equals_batch(self, stitcher, workers, executor):
        runtime = build_runtime(
            stitcher=stitcher, workers=workers, executor=executor
        )
        daemon = runtime.stream_daemon(GEOS)
        while not daemon.done:
            result = daemon.tick()
            # Every second tick (and always the final one) pays for a
            # batch study over the same prefix; the crawl cache makes
            # the comparison runs cheap.
            if result.tick % 2 == 0 and result.tick != daemon.total_ticks - 1:
                continue
            batch = runtime.sift.run_study(
                GEOS, daemon.prefix_window(result.tick)
            )
            assert result.fingerprint == batch.fingerprint(), (
                f"tick {result.tick}: streamed prefix diverged from batch "
                f"({stitcher}, {executor})"
            )
        streamed = daemon.snapshot_study()
        batch = runtime.sift.run_study(GEOS, runtime.window)
        assert streamed.fingerprint() == batch.fingerprint()
        assert spike_dicts(streamed) == spike_dicts(batch)

    def test_tick_results_are_cumulative(self):
        runtime = build_runtime()
        daemon = runtime.stream_daemon(GEOS)
        counts = []
        while not daemon.done:
            counts.append(daemon.tick().spike_count)
        assert counts[-1] == len(daemon.snapshot_study().spikes)
        assert daemon.ticks_done == daemon.total_ticks


class TestConfigGuards:
    """Configurations that cannot stream fail loudly at construction."""

    def test_nonzero_min_peak_is_rejected(self):
        runtime = StudyRuntime.build(
            start=START,
            end=END,
            sift=SiftConfig(
                annotate=False,
                detection=DetectionConfig(min_peak=5.0),
                averaging=AveragingConfig(min_rounds=1, max_rounds=1),
            ),
            checkpoint=False,
        )
        with pytest.raises(ConfigurationError, match="min_peak"):
            runtime.stream_daemon(GEOS)

    def test_adaptive_rounds_are_rejected(self):
        runtime = StudyRuntime.build(
            start=START,
            end=END,
            sift=SiftConfig(
                annotate=False,
                averaging=AveragingConfig(min_rounds=1, max_rounds=3),
            ),
            checkpoint=False,
        )
        with pytest.raises(ConfigurationError, match="fixed fetch-round"):
            runtime.stream_daemon(GEOS)

    def test_explicit_stream_rounds_override_adaptive(self):
        runtime = StudyRuntime.build(
            start=START,
            end=END,
            sift=SiftConfig(
                annotate=False,
                averaging=AveragingConfig(min_rounds=1, max_rounds=3),
            ),
            checkpoint=False,
        )
        daemon = runtime.stream_daemon(GEOS, stream=StreamConfig(rounds=2))
        assert daemon.rounds == 2


class _CountingSource:
    """Delegating wrapper that counts interest_over_time calls."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def interest_over_time(self, *args, **kwargs):
        self.calls += 1
        return self._inner.interest_over_time(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestResume:
    """A killed daemon resumes from the store with zero refetch."""

    def test_resume_skips_completed_ticks_and_refetches_nothing(
        self, tmp_path
    ):
        store_dir = str(tmp_path / "stream-store")
        first = build_runtime(store=store_dir)
        daemon = first.stream_daemon(GEOS)
        total = daemon.total_ticks
        for _ in range(3):
            daemon.tick()

        second = build_runtime(store=store_dir)
        counter = _CountingSource(second.sift.source)
        second.sift.source = counter
        resumed = second.stream_daemon(GEOS)
        assert resumed.ticks_done == 3
        # Resume rebuilds per-geo state from the columnar checkpoint —
        # stitcher scalars, spike bounds, raw series — not from refetch.
        assert counter.calls == 0
        while not resumed.done:
            resumed.tick()
        # Only the remaining ticks hit the source.
        assert counter.calls == (total - 3) * len(GEOS) * ROUNDS

        batch = build_runtime().run_study(GEOS)
        assert resumed.snapshot_study().fingerprint() == batch.fingerprint()

    def test_resumed_snapshot_matches_prefix_batch(self, tmp_path):
        store_dir = str(tmp_path / "stream-store")
        first = build_runtime(store=store_dir)
        daemon = first.stream_daemon(GEOS)
        for _ in range(2):
            daemon.tick()
        expected = daemon.snapshot_study().fingerprint()

        resumed = build_runtime(store=store_dir).stream_daemon(GEOS)
        assert resumed.snapshot_study().fingerprint() == expected

    def test_checkpoint_from_other_stitcher_is_rejected(self, tmp_path):
        store_dir = str(tmp_path / "stream-store")
        daemon = build_runtime(store=store_dir).stream_daemon(GEOS)
        daemon.tick()
        with pytest.raises(CheckpointMismatchError):
            build_runtime(stitcher="calibrated", store=store_dir).stream_daemon(
                GEOS
            )

    def test_window_mismatch_starts_fresh(self, tmp_path):
        store_dir = str(tmp_path / "stream-store")
        daemon = build_runtime(store=store_dir).stream_daemon(GEOS)
        daemon.tick()
        other = StudyRuntime.build(
            background_scale=0.3,
            seed=SEED,
            start=START,
            end=utc(2021, 1, 31),
            sift=SiftConfig(
                annotate=False,
                averaging=AveragingConfig(min_rounds=ROUNDS, max_rounds=ROUNDS),
            ),
            checkpoint=False,
            store=store_dir,
        )
        fresh = other.stream_daemon(GEOS)
        assert fresh.ticks_done == 0


class _ExplodingSource:
    """Blows up on the Nth fetch, once; then delegates cleanly."""

    def __init__(self, inner, explode_at: int):
        self._inner = inner
        self._explode_at = explode_at
        self.calls = 0

    def interest_over_time(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self._explode_at:
            raise RuntimeError("injected mid-tick crash")
        return self._inner.interest_over_time(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestChaos:
    """Fault-absorbing retries leave no trace on the streamed study."""

    @pytest.mark.parametrize("profile", ["transient", "timeouts"])
    def test_absorbed_faults_keep_byte_identity(self, profile):
        runtime = build_runtime(faults=profile)
        daemon = runtime.stream_daemon(GEOS)
        while not daemon.done:
            daemon.tick()
        report = runtime.fault_report()
        assert report is not None
        assert report.total_injected > 0
        assert report.dead_letters == 0  # these profiles are absorbable
        clean = build_runtime().run_study(GEOS)
        assert daemon.snapshot_study().fingerprint() == clean.fingerprint()

    def test_failed_tick_retries_without_double_feeding(self):
        runtime = build_runtime()
        # Explode mid-tick: after the first geo's rounds completed but
        # before the tick could finish — the already-fed geo must be
        # skipped by the retry, not folded twice.
        bomb = _ExplodingSource(runtime.sift.source, explode_at=ROUNDS + 1)
        runtime.sift.source = bomb
        daemon = runtime.stream_daemon(GEOS)
        with pytest.raises(RuntimeError, match="injected mid-tick crash"):
            daemon.tick()
        assert daemon.ticks_done == 0  # the tick did not commit
        result = daemon.tick()  # retry succeeds
        assert result.tick == 0
        while not daemon.done:
            daemon.tick()
        batch = build_runtime().run_study(GEOS)
        assert daemon.snapshot_study().fingerprint() == batch.fingerprint()
