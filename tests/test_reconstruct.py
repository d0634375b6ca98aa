"""Tests for the pluggable reconstruction backends.

Three contracts are guarded here:

* **bit-identity** — the default ``overlap_ratio``/``mean`` backend is
  the pre-strategy pipeline, byte for byte: a frozen copy of the
  original batch stitching loop lives in this file and every stitcher
  output is compared against it;
* **the incremental contract** — for every registered stitcher,
  ``feed()``-ing frames one at a time equals batch stitching of the
  same prefix (hypothesis-checked), which is what lets a streaming
  stitcher slot in behind the same interface;
* **diagnostics** — carried positions mark exactly the non-estimated
  ratios and are excluded from ``ratio_spread``.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.averaging import AveragingConfig, average_until_convergence
from repro.core.reconstruct import (
    AVERAGERS,
    STITCHERS,
    CalibratedStitcher,
    MeanAverager,
    NoiseAwareAverager,
    OverlapRatioStitcher,
    VarianceWeightedAccumulator,
    averager_names,
    make_averager,
    make_stitcher,
    stitcher_factory,
    stitcher_names,
)
from repro.core.series import HourlyTimeline
from repro.core.stitching import StitchReport, estimate_ratio, stitch_frames
from repro.errors import ConfigurationError, ConvergenceError, StitchingError
from repro.timeutil import TimeWindow, hour_index, utc
from repro.trends.records import TimeFrameRequest, TimeFrameResponse
from repro.trends.sampling import index_frame

# --------------------------------------------------------------------------
# Frame helpers (mirrors test_core_stitching)
# --------------------------------------------------------------------------


def _hours(count: int) -> timedelta:
    return timedelta(hours=count)


def frame(start, values, geo="US-TX", term="Internet outage"):
    values = np.asarray(values)
    window = TimeWindow(start, start + _hours(len(values)))
    request = TimeFrameRequest(term=term, geo=geo, window=window)
    return TimeFrameResponse(
        request=request, values=index_frame(values), rising=(), sample_round=0
    )


def make_signal(hours: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signal = np.where(rng.random(hours) < 0.3, rng.integers(3, 8, hours), 0).astype(
        float
    )
    signal[hours // 4] = 60.0
    signal[hours // 2] = 120.0
    return signal


def split_into_frames(signal: np.ndarray, frame_hours: int, overlap: int):
    start = utc(2021, 1, 1)
    frames = []
    position = 0
    while position + frame_hours < signal.size:
        frames.append(
            frame(start + _hours(position), signal[position : position + frame_hours])
        )
        position += frame_hours - overlap
    frames.append(
        frame(start + _hours(signal.size - frame_hours), signal[-frame_hours:])
    )
    return frames


#: Random sparse signals split into weekly frames with a day's overlap.
signals = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=200, max_value=500),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


def _legacy_stitch_frames(responses, renormalize=True):
    """Frozen copy of the pre-strategy batch loop (bit-identity oracle).

    Verbatim from ``repro.core.stitching.stitch_frames`` before the
    strategy refactor; do not modify — the default backend must keep
    matching it byte for byte.
    """
    if not responses:
        raise StitchingError("no frames to stitch")
    first = responses[0]
    term = first.request.term
    geo = first.request.geo
    for response in responses[1:]:
        if response.request.term != term or response.request.geo != geo:
            raise StitchingError(
                "cannot stitch frames of different terms or geographies"
            )
    series = responses[0].values.astype(np.float64)
    origin = first.window.start
    ratios = []
    carried = 0
    last_ratio = 1.0
    for previous, current in zip(responses, responses[1:]):
        offset = hour_index(origin, current.window.start)
        if offset < 0 or offset > series.size:
            raise StitchingError("not contiguous")
        overlap = series.size - offset
        if overlap <= 0:
            raise StitchingError("no overlap")
        if overlap >= current.values.size:
            ratios.append(last_ratio)
            continue
        current_values = current.values.astype(np.float64)
        ratio = estimate_ratio(series[offset:], current_values[:overlap])
        if ratio is None:
            ratio = 1.0
            carried += 1
        else:
            last_ratio = ratio
        ratios.append(ratio)
        series = np.concatenate([series, current_values[overlap:] * ratio])
    timeline = HourlyTimeline(term=term, geo=geo, start=origin, values=series)
    if renormalize:
        timeline = timeline.renormalized()
    return timeline, (len(responses), carried, tuple(ratios))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


class TestRegistry:
    def test_names_cover_the_backends(self):
        assert stitcher_names() == ("calibrated", "overlap_ratio")
        assert averager_names() == ("mean", "noise_aware")

    def test_factories_build_fresh_instances(self):
        assert isinstance(make_stitcher("overlap_ratio"), OverlapRatioStitcher)
        assert isinstance(make_stitcher("calibrated"), CalibratedStitcher)
        assert isinstance(make_averager("mean"), MeanAverager)
        assert isinstance(make_averager("noise_aware"), NoiseAwareAverager)
        factory = stitcher_factory("overlap_ratio")
        assert factory() is not factory()

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            make_stitcher("bogus")
        with pytest.raises(ConfigurationError):
            make_averager("bogus")
        with pytest.raises(ConfigurationError):
            stitcher_factory("bogus")

    def test_params_pass_through(self):
        stitcher = make_stitcher("calibrated", min_anchor_hours=5)
        assert stitcher.params() == {"min_anchor_hours": 5}
        averager = make_averager("noise_aware", epsilon=2.0)
        assert averager.params() == {"epsilon": 2.0}

    def test_bad_params_rejected(self):
        with pytest.raises(StitchingError):
            CalibratedStitcher(min_anchor_hours=0)
        with pytest.raises(ConvergenceError):
            NoiseAwareAverager(epsilon=0.0)


# --------------------------------------------------------------------------
# Bit-identity of the default backend
# --------------------------------------------------------------------------


class TestDefaultBackendBitIdentity:
    def test_stitch_frames_matches_frozen_legacy_loop(self):
        frames = split_into_frames(make_signal(600, seed=3), 168, 48)
        timeline, report = stitch_frames(frames)
        legacy_timeline, (frames_n, carried, ratios) = _legacy_stitch_frames(frames)
        assert timeline.values.tobytes() == legacy_timeline.values.tobytes()
        assert (report.frames, report.carried_ratios, report.ratios) == (
            frames_n,
            carried,
            ratios,
        )

    @given(signal=signals)
    @settings(max_examples=30, deadline=None)
    def test_legacy_identity_holds_for_arbitrary_signals(self, signal):
        frames = split_into_frames(signal, 168, 24)
        timeline, report = stitch_frames(frames)
        legacy_timeline, (_, carried, ratios) = _legacy_stitch_frames(frames)
        assert timeline.values.tobytes() == legacy_timeline.values.tobytes()
        assert report.ratios == ratios
        assert report.carried_ratios == carried

    def test_mean_averager_is_average_until_convergence(self):
        truth = np.zeros(300)
        truth[40] = 30.0
        truth[140] = 80.0

        def fetch_round(round_index):
            rng = np.random.default_rng(100 + round_index)
            sampled = np.maximum(truth + rng.normal(0, 6.0, truth.size), 0)
            sampled[truth == 0] = 0.0
            return split_into_frames(sampled, 168, 24)

        config = AveragingConfig(min_rounds=2, max_rounds=5)
        legacy = average_until_convergence(fetch_round, config)
        strategic = MeanAverager().average(
            fetch_round, config, stitcher_factory=OverlapRatioStitcher
        )
        assert (
            legacy.timeline.values.tobytes() == strategic.timeline.values.tobytes()
        )
        assert legacy.rounds_used == strategic.rounds_used
        assert legacy.similarity_history == strategic.similarity_history
        assert [s.to_dict() for s in legacy.spikes] == [
            s.to_dict() for s in strategic.spikes
        ]
        assert strategic.stitcher == "overlap_ratio"
        assert strategic.averager == "mean"


# --------------------------------------------------------------------------
# The incremental feed()/finalize() contract — every registered stitcher
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", stitcher_names())
class TestIncrementalContract:
    @given(signal=signals)
    @settings(max_examples=15, deadline=None)
    def test_incremental_equals_batch_at_every_prefix(self, name, signal):
        """finalize() after k feeds == a fresh stitcher fed the k-prefix."""
        frames = split_into_frames(signal, 168, 24)
        incremental = STITCHERS[name]()
        for count, response in enumerate(frames, start=1):
            incremental.feed(response)
            batch = STITCHERS[name]()
            for prefix_response in frames[:count]:
                batch.feed(prefix_response)
            live_timeline, live_report = incremental.finalize()
            batch_timeline, batch_report = batch.finalize()
            assert (
                live_timeline.values.tobytes() == batch_timeline.values.tobytes()
            )
            assert live_report == batch_report

    @given(signal=signals)
    @settings(max_examples=15, deadline=None)
    def test_order_deterministic(self, name, signal):
        """Two instances fed the same frames agree byte for byte, and
        finalize() is repeatable (non-destructive)."""
        frames = split_into_frames(signal, 168, 24)
        first, second = STITCHERS[name](), STITCHERS[name]()
        for response in frames:
            first.feed(response)
            second.feed(response)
        timeline_a, report_a = first.finalize()
        timeline_b, report_b = second.finalize()
        assert timeline_a.values.tobytes() == timeline_b.values.tobytes()
        assert report_a == report_b
        again, report_again = first.finalize()
        assert again.values.tobytes() == timeline_a.values.tobytes()
        assert report_again == report_a

    def test_finalize_without_frames_raises(self, name):
        with pytest.raises(StitchingError):
            STITCHERS[name]().finalize()

    def test_mixed_geo_rejected(self, name):
        stitcher = STITCHERS[name]()
        stitcher.feed(frame(utc(2021, 1, 1), make_signal(168)))
        with pytest.raises(StitchingError):
            stitcher.feed(frame(utc(2021, 1, 7), make_signal(168), geo="US-CA"))

    def test_disjoint_frames_rejected(self, name):
        stitcher = STITCHERS[name]()
        stitcher.feed(frame(utc(2021, 1, 1), make_signal(168)))
        with pytest.raises(StitchingError):
            stitcher.feed(frame(utc(2021, 2, 1), make_signal(168)))

    def test_recovers_relative_spike_heights(self, name):
        """Every backend must do stitching's actual job: the 120-spike
        reads about twice the 60-spike across frame boundaries."""
        signal = make_signal(600)
        frames = split_into_frames(signal, 168, 48)
        stitcher = STITCHERS[name]()
        for response in frames:
            stitcher.feed(response)
        timeline, report = stitcher.finalize()
        measured = timeline.values[300] / timeline.values[150]
        assert measured == pytest.approx(2.0, rel=0.35)
        assert report.frames == len(frames)


# --------------------------------------------------------------------------
# CalibratedStitcher specifics
# --------------------------------------------------------------------------


class TestCalibratedStitcher:
    def test_recovers_known_scale_exactly(self):
        """Two noiseless renditions of the same overlap differing by a
        known scale: the log-space anchor estimate recovers it."""
        signal = np.full(300, 10.0)  # a baseline anchor through the overlap
        signal[20] = 40.0
        signal[180] = 80.0
        frames = split_into_frames(signal, 168, 48)
        stitcher = CalibratedStitcher()
        for response in frames:
            stitcher.feed(response)
        timeline, _ = stitcher.finalize()
        assert timeline.values[180] / timeline.values[20] == pytest.approx(
            2.0, rel=0.2
        )

    def test_privacy_zeros_survive(self):
        signal = make_signal(400)
        frames = split_into_frames(signal, 168, 48)
        stitcher = CalibratedStitcher()
        for response in frames:
            stitcher.feed(response)
        timeline, _ = stitcher.finalize()
        # Blending only touches hours positive in both renditions, so
        # an hour the series had at zero stays at zero.
        assert not np.any(timeline.values[signal == 0] > 0)

    def test_quiet_overlap_falls_back_to_sum_estimate(self):
        """Below min_anchor_hours shared-signal hours, the calibrated
        ratio degrades to the overlap-sum estimator, not to garbage."""
        values = np.zeros(168)
        values[10] = 50.0  # signal only outside the overlap
        a = frame(utc(2021, 1, 1), values)
        tail = np.zeros(168)
        tail[150] = 25.0
        b = frame(utc(2021, 1, 7), tail)
        calibrated = CalibratedStitcher()
        default = OverlapRatioStitcher()
        for stitcher in (calibrated, default):
            stitcher.feed(a)
            stitcher.feed(b)
        _, calibrated_report = calibrated.finalize()
        _, default_report = default.finalize()
        assert calibrated_report.ratios == default_report.ratios

    def test_silent_overlap_carries_neutral_ratio(self):
        zero = np.zeros(168)
        frames = [frame(utc(2021, 1, 1), zero), frame(utc(2021, 1, 7), zero)]
        stitcher = CalibratedStitcher()
        for response in frames:
            stitcher.feed(response)
        _, report = stitcher.finalize()
        assert report.carried_ratios == 1
        assert report.carried_positions == (0,)


# --------------------------------------------------------------------------
# NoiseAwareAverager specifics
# --------------------------------------------------------------------------


class TestNoiseAwareAverager:
    def _entries(self, values: np.ndarray):
        return [frame(utc(2021, 1, 1), values)]

    def test_two_rounds_match_flat_mean(self):
        """With fewer than three rounds there is no outlier evidence;
        the weighted merge must equal the flat mean."""
        truth = np.zeros(168)
        truth[50] = 60.0
        noise_aware = NoiseAwareAverager().make_accumulator(self._entries(truth))
        mean = MeanAverager().make_accumulator(self._entries(truth))
        rng = np.random.default_rng(5)
        for _ in range(2):
            sampled = np.maximum(truth + rng.normal(0, 5, truth.size), 0)
            entries = self._entries(sampled)
            noise_aware.fold(entries)
            mean.fold(entries)
        assert np.array_equal(
            noise_aware.to_responses()[0].values, mean.to_responses()[0].values
        )

    def test_outlier_round_downweighted(self):
        """Four faithful rounds plus one wildly-off round: the weighted
        merge lands closer to truth than the flat mean."""
        truth = np.zeros(168)
        truth[50] = 60.0
        truth[90] = 30.0
        rng = np.random.default_rng(11)
        rounds = [
            np.maximum(truth + rng.normal(0, 1.0, truth.size), 0) for _ in range(4)
        ]
        outlier = truth + rng.uniform(20, 40, truth.size)  # garbage rendition
        rounds.append(outlier)

        weighted = VarianceWeightedAccumulator(self._entries(truth), epsilon=0.5)
        flat = MeanAverager().make_accumulator(self._entries(truth))
        for sampled in rounds:
            weighted.fold(self._entries(sampled))
            flat.fold(self._entries(sampled))
        normalized_truth = 100.0 * truth / truth.max()
        weighted_error = np.abs(
            weighted.to_responses()[0].values - normalized_truth
        ).mean()
        flat_error = np.abs(flat.to_responses()[0].values - normalized_truth).mean()
        assert weighted_error < flat_error

    def test_round_shape_guards_match_mean_backend(self):
        truth = np.zeros(168)
        accumulator = NoiseAwareAverager().make_accumulator(self._entries(truth))
        with pytest.raises(ConvergenceError):
            accumulator.fold(self._entries(truth) * 2)
        with pytest.raises(ConvergenceError):
            accumulator.fold([frame(utc(2021, 1, 1), np.zeros(100))])

    def test_full_loop_converges(self):
        truth = np.zeros(300)
        truth[40] = 30.0
        truth[141] = 80.0

        def fetch_round(round_index):
            rng = np.random.default_rng(200 + round_index)
            sampled = np.maximum(truth + rng.normal(0, 4.0, truth.size), 0)
            sampled[truth == 0] = 0.0
            return split_into_frames(sampled, 168, 24)

        result = NoiseAwareAverager().average(
            fetch_round, AveragingConfig(min_rounds=2, max_rounds=8)
        )
        assert result.converged
        assert result.averager == "noise_aware"
        assert result.stitcher == "overlap_ratio"


# --------------------------------------------------------------------------
# StitchReport diagnostics (carried positions vs ratio_spread)
# --------------------------------------------------------------------------


class TestStitchReportDiagnostics:
    def test_carried_positions_mark_silent_overlaps(self):
        loud = np.zeros(168)
        loud[10] = 40.0
        quiet = np.zeros(168)
        frames = [
            frame(utc(2021, 1, 1), loud),  # signal in frame 1
            frame(utc(2021, 1, 7), quiet),  # silent overlap with frame 1? no:
        ]
        # frame 1's tail (the overlap) is zero and frame 2 is zero, so
        # the ratio is carried.
        timeline, report = stitch_frames(frames)
        assert report.carried_ratios == 1
        assert report.carried_positions == (0,)
        assert report.ratios == (1.0,)

    def test_ratio_spread_excludes_carried(self):
        report = StitchReport(
            frames=4,
            carried_ratios=1,
            ratios=(4.0, 1.0, 5.0),
            carried_positions=(1,),
        )
        assert report.ratio_spread == pytest.approx(5.0 / 4.0)
        # The pre-fix spread would have been 5.0 (masking drift).

    def test_all_carried_spread_is_neutral(self):
        report = StitchReport(
            frames=2, carried_ratios=1, ratios=(1.0,), carried_positions=(0,)
        )
        assert report.ratio_spread == 1.0

    def test_roundtrip_through_dict(self):
        report = StitchReport(
            frames=3,
            carried_ratios=1,
            ratios=(2.0, 1.0),
            carried_positions=(1,),
        )
        payload = report.to_dict()
        assert payload["ratio_spread"] == report.ratio_spread
        assert StitchReport.from_dict(payload) == report

    def test_contained_frame_repeat_is_carried_position(self):
        signal = make_signal(200)
        outer = frame(utc(2021, 1, 1), signal[:168])
        inner = frame(utc(2021, 1, 2), signal[24:96])  # fully contained
        _, report = stitch_frames([outer, inner])
        assert report.carried_positions == (0,)
        assert report.carried_ratios == 0  # count semantics unchanged


# --------------------------------------------------------------------------
# Backend choice threaded through the pipeline
# --------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_sift_rejects_unknown_backends(self):
        from repro.core.pipeline import Sift, SiftConfig

        with pytest.raises(ConfigurationError):
            Sift(source=None, config=SiftConfig(stitcher="bogus"))
        with pytest.raises(ConfigurationError):
            Sift(source=None, config=SiftConfig(averager="bogus"))

    @pytest.mark.parametrize("stitcher", stitcher_names())
    @pytest.mark.parametrize("averager", averager_names())
    def test_every_backend_combination_runs_end_to_end(
        self, stitcher, averager, small_population
    ):
        from repro.core.pipeline import SiftConfig
        from repro.runtime import StudyRuntime

        runtime = StudyRuntime.build(
            population=small_population,
            sift=SiftConfig(
                stitcher=stitcher,
                averager=averager,
                averaging=AveragingConfig(min_rounds=2, max_rounds=3),
                annotate=False,
            ),
            checkpoint=False,
        )
        result = runtime.analyze_state("US-WY")
        assert result.averaging.stitcher == stitcher
        assert result.averaging.averager == averager
        assert len(result.timeline) > 0

    def test_default_backend_study_is_byte_identical_at_any_worker_count(
        self, small_population
    ):
        """The acceptance bar: an explicitly-selected default backend
        reproduces the implicit default byte for byte.  An injected
        population always runs in-process; worker-count independence is
        pinned by the process-executor tests (test_process_runtime)."""
        from repro.core.pipeline import SiftConfig
        from repro.runtime import StudyRuntime

        config = AveragingConfig(min_rounds=2, max_rounds=3)
        geos = ("US-TX", "US-WY")

        def run(explicit: bool):
            runtime = StudyRuntime.build(
                population=small_population,
                sift=(
                    SiftConfig(
                        stitcher="overlap_ratio",
                        averager="mean",
                        averaging=config,
                        annotate=False,
                    )
                    if explicit
                    else SiftConfig(averaging=config, annotate=False)
                ),
                checkpoint=False,
            )
            return runtime.run_study(geos=geos)

        reference = run(explicit=False)
        study = run(explicit=True)
        assert study.fingerprint() == reference.fingerprint()
        for geo in geos:
            assert (
                study.states[geo].timeline.values.tobytes()
                == reference.states[geo].timeline.values.tobytes()
            )

    def test_alternate_backend_changes_the_name_not_the_contract(
        self, small_population
    ):
        from repro.core.pipeline import SiftConfig
        from repro.runtime import StudyRuntime

        runtime = StudyRuntime.build(
            population=small_population,
            sift=SiftConfig(
                stitcher="calibrated",
                averager="noise_aware",
                averaging=AveragingConfig(min_rounds=2, max_rounds=3),
                annotate=False,
            ),
            checkpoint=False,
        )
        study = runtime.run_study(geos=("US-WY",))
        averaging = study.states["US-WY"].averaging
        assert averaging.stitcher == "calibrated"
        assert averaging.averager == "noise_aware"
        assert study.states["US-WY"].timeline.peak_value == pytest.approx(100.0)


# --------------------------------------------------------------------------
# Averager registry coverage
# --------------------------------------------------------------------------


class TestAveragerRegistry:
    def test_every_registered_averager_satisfies_the_loop(self):
        truth = np.zeros(300)
        truth[100] = 70.0

        def fetch_round(round_index):
            rng = np.random.default_rng(300 + round_index)
            sampled = np.maximum(truth + rng.normal(0, 2.0, truth.size), 0)
            sampled[truth == 0] = 0.0
            return split_into_frames(sampled, 168, 24)

        for name, cls in AVERAGERS.items():
            result = cls().average(
                fetch_round, AveragingConfig(min_rounds=2, max_rounds=4)
            )
            assert result.averager == name
            assert result.rounds_used >= 2
