"""Hot-path perf bench: frames/sec, rising/sec, and study wall-clock.

The paper's crawl serves ~160k hourly frames (51 states x six averaging
rounds), so the simulated service's per-frame cost bounds every full
study.  This bench measures the three rates that matter and writes them
to ``BENCH_service.json`` (see :mod:`benchmarks.perf` for the layout):

* ``frames_per_sec`` — full ``TrendsService.fetch`` calls with rising
  suggestions enabled, over a rotation of geographies, weekly frames
  and sample rounds;
* ``rising_per_sec`` — the rising-suggestion computation alone;
* ``study_serial_s`` — wall-clock of a complete serial SIFT study
  (crawl -> stitch -> detect -> annotate) over the bench geographies;
* ``big_study_serial_s`` / ``big_study_process4_s`` and
  ``speedup_process_vs_serial`` — the paper-scale workload (all 51
  geographies over the full two-year window; annotation off, since the
  sharded stage is what the process executor parallelizes) serial vs
  four geography-sharded worker processes.  On a single-core machine
  the comparison is skipped (recorded as ``null`` plus a reason):
  processes time-slicing one CPU measure only sharding overhead;
* ``scalar_ref_frames_per_sec`` — the same fetch workload served by the
  frozen scalar reference implementation (:mod:`repro._reference`), and
  ``speedup_vs_scalar`` — the hardware-independent ratio CI guards.

The workload shape (geos × weeks × terms) is recorded next to the
metrics, so numbers taken on different workload sizes are never
silently compared (see :func:`benchmarks.perf.write_bench`).

Usage::

    PYTHONPATH=src python benchmarks/bench_service_hotpath.py [--smoke]
        [--as-baseline]   # record the pre-change numbers
        [--check]         # fail when speedup_vs_scalar regressed >30%
                          # against the committed BENCH_service.json,
                          # or (on 4+ cores) when the process executor
                          # is not >=2x serial on the big workload
"""

from __future__ import annotations

import argparse
import sys

from repro._reference import ReferencePopulation, reference_fetch
from repro.rand import substream
from repro.timeutil import TimeWindow, utc, weekly_frames
from repro.trends.ratelimit import RateLimitConfig
from repro.trends.records import TimeFrameRequest
from repro.trends.rising import rising_terms
from repro.trends.service import TrendsConfig, TrendsService
from repro.world.population import SearchPopulation
from repro.world.scenarios import Scenario, ScenarioConfig

try:  # runnable both as a script and under the benchmarks package
    from perf import measure_rate, measure_seconds, read_bench, write_bench
except ImportError:  # pragma: no cover
    from benchmarks.perf import measure_rate, measure_seconds, read_bench, write_bench

BENCH_NAME = "service"

#: Default scenario: two months around the Texas winter storm, the
#: same world the test suite exercises, over a timezone-diverse
#: geography rotation (Eastern/Central/Mountain/Pacific/Arizona/
#: Hawaii/Alaska are all represented).
SCENARIO_START = utc(2021, 1, 1)
SCENARIO_END = utc(2021, 3, 1)
BACKGROUND_SCALE = 0.3
GEOS = (
    "US-TX", "US-CA", "US-NY", "US-FL", "US-AZ", "US-HI",
    "US-AK", "US-CO", "US-IL", "US-WA", "US-GA", "US-MI",
)
SMOKE_GEOS = ("US-TX", "US-CA", "US-AZ", "US-NY")

#: Frames start one week into the scenario so every frame has a full
#: preceding window for the rising computation.
FRAME_SPAN = TimeWindow(utc(2021, 1, 8), utc(2021, 2, 19))

#: Regression gate: fail CI when the measured speedup-vs-scalar drops
#: below this fraction of the committed value (the "30% frames/sec
#: regression" budget, expressed hardware-independently).
CHECK_RATIO = 0.7

#: The scaled study workload: every geography of the paper's study over
#: its full two-year window.  The background scale is kept low so the
#: bench measures the pipeline, not event generation; annotation is off
#: because the process executor parallelizes the per-geography stage
#: and the (serial, parent-side) annotation crawl would Amdahl-cap the
#: measured speedup.
BIG_START = utc(2020, 1, 1)
BIG_END = utc(2022, 1, 1)
BIG_SCALE = 0.05
#: Smoke variant: a timezone-diverse 16-geography slice over 6 months.
BIG_SMOKE_END = utc(2020, 7, 1)
BIG_SMOKE_GEOS = (
    "US-TX", "US-CA", "US-NY", "US-FL", "US-AZ", "US-HI",
    "US-AK", "US-CO", "US-IL", "US-WA", "US-GA", "US-MI",
    "US-OR", "US-MA", "US-OK", "US-WY",
)

#: Hardware-portable floor for the process executor on the big
#: workload: >=2x over serial, demanded only on machines with at least
#: four cores (CI runners qualify; a one-core container cannot
#: demonstrate any parallel speedup).
PROCESS_FLOOR = 2.0
PROCESS_FLOOR_MIN_CORES = 4


def build_requests(smoke: bool) -> list[TimeFrameRequest]:
    geos = SMOKE_GEOS if smoke else GEOS
    frames = weekly_frames(FRAME_SPAN)
    return [
        TimeFrameRequest("Internet outage", geo, frame)
        for geo in geos
        for frame in frames
    ]


def build_service(population: SearchPopulation) -> TrendsService:
    config = TrendsConfig(
        rate_limit=RateLimitConfig(burst=10**9, refill_per_second=10**9)
    )
    return TrendsService(population, config)


def bench_frames(service, requests, rounds) -> tuple[float, float]:
    def one_pass() -> int:
        served = 0
        for sample_round in range(rounds):
            for request in requests:
                service.fetch(request, sample_round=sample_round)
                served += 1
        return served

    return measure_rate(one_pass)


def bench_rising(population, requests, rounds) -> tuple[float, float]:
    def one_pass() -> int:
        computed = 0
        for sample_round in range(rounds):
            for request in requests:
                rng = substream(99, "rising", request.cache_key, sample_round)
                rising_terms(population, request, rng, 0.03)
                computed += 1
        return computed

    return measure_rate(one_pass)


def bench_scalar_reference(scenario, requests, rounds) -> tuple[float, float]:
    """Reference fetches over the frozen scalar implementation."""
    population = ReferencePopulation(scenario, noise_seed=20221026)

    def one_pass() -> int:
        served = 0
        for sample_round in range(rounds):
            for request in requests:
                reference_fetch(population, request, sample_round)
                served += 1
        return served

    # The scalar path is slow; a single timed repeat keeps the bench fast.
    return measure_rate(one_pass, repeats=1, warmup=1)


def bench_study(smoke: bool) -> float:
    from repro.runtime import StudyRuntime

    geos = SMOKE_GEOS if smoke else GEOS

    def run() -> None:
        with StudyRuntime.build(
            background_scale=BACKGROUND_SCALE,
            start=SCENARIO_START,
            end=SCENARIO_END,
        ) as runtime:
            runtime.run_study(geos=geos)

    return measure_seconds(run, repeats=1, warmup=0)


def big_workload(smoke: bool) -> tuple[tuple[str, ...], "object", "object"]:
    """(geos, start, end) of the scaled study workload."""
    from repro.runtime import ALL_GEOS

    if smoke:
        return BIG_SMOKE_GEOS, BIG_START, BIG_SMOKE_END
    return ALL_GEOS, BIG_START, BIG_END


def workload_shape(geos, start, end) -> dict:
    """The apples-to-apples key recorded beside the metrics."""
    weeks = int((end - start).total_seconds() // (7 * 24 * 3600))
    return {"geos": len(geos), "weeks": weeks, "terms": 1}


def bench_big_study(smoke: bool, executor: str, max_workers: int) -> float:
    """Wall-clock of the scaled study under one executor."""
    from repro.core.pipeline import SiftConfig
    from repro.runtime import StudyRuntime

    geos, start, end = big_workload(smoke)

    def run() -> None:
        with StudyRuntime.build(
            background_scale=BIG_SCALE,
            start=start,
            end=end,
            max_workers=max_workers,
            executor=executor,
            sift=SiftConfig(annotate=False),
        ) as runtime:
            runtime.run_study(geos=geos)

    return measure_seconds(run, repeats=1, warmup=0)


def run_bench(smoke: bool) -> dict:
    scenario = Scenario.build(
        ScenarioConfig(
            start=SCENARIO_START,
            end=SCENARIO_END,
            background_scale=BACKGROUND_SCALE,
        )
    )
    population = SearchPopulation(scenario, noise_seed=20221026)
    service = build_service(population)
    requests = build_requests(smoke)
    rounds = 1 if smoke else 3
    ref_rounds = 1

    frames_rate, _ = bench_frames(service, requests, rounds)
    rising_rate, _ = bench_rising(population, requests, rounds)
    scalar_rate, _ = bench_scalar_reference(
        scenario, requests[: len(requests) if smoke else len(requests) // 2],
        ref_rounds,
    )
    serial_s = bench_study(smoke)
    big_serial_s = bench_big_study(smoke, executor="serial", max_workers=1)

    # The process-vs-serial comparison is meaningless without a second
    # core: four worker processes time-slicing one CPU measure only the
    # sharding overhead, and the resulting sub-1x "speedup" reads as a
    # regression it is not.  Record null plus the reason instead.
    import os

    cores = os.cpu_count() or 1
    if cores < 2:
        big_process4_s = None
        speedup_process = None
        process_skip_reason = (
            f"skipped: {cores} CPU core(s); a process pool cannot "
            f"demonstrate parallel speedup on this machine"
        )
    else:
        big_process4_s = round(
            bench_big_study(smoke, executor="process", max_workers=4), 3
        )
        speedup_process = round(big_serial_s / big_process4_s, 2)
        process_skip_reason = None

    return {
        "frames_per_sec": round(frames_rate, 1),
        "rising_per_sec": round(rising_rate, 1),
        "study_serial_s": round(serial_s, 3),
        "big_study_serial_s": round(big_serial_s, 3),
        "big_study_process4_s": big_process4_s,
        "speedup_process_vs_serial": speedup_process,
        "process_comparison_skipped": process_skip_reason,
        "scalar_ref_frames_per_sec": round(scalar_rate, 1),
        "speedup_vs_scalar": round(frames_rate / scalar_rate, 2),
        "frames_measured": len(requests) * rounds,
        "smoke": smoke,
    }


def check_regression(metrics: dict) -> int:
    """Compare against the committed results; return an exit code."""
    import os

    exit_code = 0
    committed = read_bench(BENCH_NAME)
    if not committed or "current" not in committed:
        print("check: no committed BENCH_service.json current section; skipping")
    else:
        committed_ratio = committed["current"].get("speedup_vs_scalar")
        measured_ratio = metrics["speedup_vs_scalar"]
        if not committed_ratio:
            print("check: committed results carry no speedup_vs_scalar; skipping")
        else:
            floor = CHECK_RATIO * committed_ratio
            verdict = "ok" if measured_ratio >= floor else "REGRESSION"
            print(
                f"check: speedup_vs_scalar measured {measured_ratio:.2f}x, "
                f"committed {committed_ratio:.2f}x, floor {floor:.2f}x -> {verdict}"
            )
            if measured_ratio < floor:
                exit_code = 1

    # Process-executor floor: hardware-portable (a ratio, not a
    # duration), but meaningless without cores to parallelize over.
    cores = os.cpu_count() or 1
    process_ratio = metrics.get("speedup_process_vs_serial")
    if cores < PROCESS_FLOOR_MIN_CORES:
        print(
            f"check: speedup_process_vs_serial {process_ratio}x not enforced "
            f"({cores} cores < {PROCESS_FLOOR_MIN_CORES})"
        )
    elif process_ratio is not None:
        verdict = "ok" if process_ratio >= PROCESS_FLOOR else "REGRESSION"
        print(
            f"check: speedup_process_vs_serial measured {process_ratio:.2f}x, "
            f"floor {PROCESS_FLOOR:.2f}x ({cores} cores) -> {verdict}"
        )
        if process_ratio < PROCESS_FLOOR:
            exit_code = 1
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI scenario")
    parser.add_argument(
        "--as-baseline",
        action="store_true",
        help="record results as the pre-change baseline",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when the speedup regressed >30%% vs committed results",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="persist results even for a smoke run (CI artifact upload)",
    )
    args = parser.parse_args(argv)

    metrics = run_bench(smoke=args.smoke)
    for key, value in metrics.items():
        print(f"{key}: {value}")

    exit_code = check_regression(metrics) if args.check else 0
    # A smoke run only persists on request: the committed numbers should
    # come from the full workload, but CI wants the fresh measurements
    # in its artifact (the check above reads the committed file first).
    if args.as_baseline or args.write or not args.smoke:
        big_geos, big_start, big_end = big_workload(args.smoke)
        write_bench(
            BENCH_NAME,
            metrics,
            as_baseline=args.as_baseline,
            workload_shape={
                "hotpath": workload_shape(
                    SMOKE_GEOS if args.smoke else GEOS,
                    SCENARIO_START,
                    SCENARIO_END,
                ),
                "big_study": workload_shape(big_geos, big_start, big_end),
            },
            extra={
                "workload": {
                    "scenario": {
                        "start": SCENARIO_START.isoformat(),
                        "end": SCENARIO_END.isoformat(),
                        "background_scale": BACKGROUND_SCALE,
                    },
                    "geos": list(SMOKE_GEOS if args.smoke else GEOS),
                    "frame_span": [
                        FRAME_SPAN.start.isoformat(),
                        FRAME_SPAN.end.isoformat(),
                    ],
                    "big_study": {
                        "start": big_start.isoformat(),
                        "end": big_end.isoformat(),
                        "background_scale": BIG_SCALE,
                        "geo_count": len(big_geos),
                        "annotate": False,
                        "executor_compared": ["serial", "process"],
                    },
                },
            },
        )
        print(f"wrote BENCH_{BENCH_NAME}.json")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
