"""Run one workload of the SIFT benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

``--trace 0`` measures: after one untimed warm-up pass it repeats the
workload's pass until ``--seconds`` are used (at least
:data:`MIN_PASSES` passes and :data:`MIN_TICKS` ticks) and reports the
end-to-end metrics over the timed passes.  ``--trace 1`` makes the
separate traced run: passes with every layer boundary wrapped in a
timing span alternate with untraced ones, and it reports the per-layer
metrics of the first traced pass; the difference of the two kinds'
median wall times is the tracing overhead.  Either way every output is
checked, the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and full details
(counters, checks, tail percentiles; spans when traced) are written
under ``.perfbench/`` in the checkout.

The program is imported from ``src/`` of the checkout; without it the
runner fails before printing a result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("batch_cold", "batch_warm", "stream_watch")
DEFAULT_SEED = 20221025
#: Set-ups timed per run at least; ``setup_s`` is their median (plus
#: the one-off preparation, if the workload has one).  A set-up takes
#: 20-100 ms, short enough to be swayed by a shared host, so a run
#: makes many, spread over its measuring time.
SETUP_SAMPLES = 30
#: Ticks a run pools at least, so that ``tick_tail_ms`` can be the 75th
#: percentile with ten ticks beyond it.
MIN_TICKS = 40
#: Timed passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few geos and weeks instead of the measured shape")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Measured:
    """What :func:`measure` timed in one run."""

    prepare_s: float  # the workload's one-off preparation
    setups_s: list[float]  # set-up times
    warmup: object  # the untimed first pass
    passes: list  # the timed passes


def measure(workload, seconds: float) -> Measured:
    """Passes until *seconds* are used.

    The first pass warms the process up (imports, first-use caches) and
    is checked but not timed; it counts against *seconds*.  Another
    timed pass starts if it still fits, taking as long as the last one
    did, or while there are fewer than :data:`MIN_PASSES` passes or
    :data:`MIN_TICKS` ticks.  Set-ups are timed once per timed pass,
    and extra ones, released unused, reach :data:`SETUP_SAMPLES`.
    """
    started = perf_counter()
    workload.prepare()
    run = Measured(perf_counter() - started, [], None, [])
    begin = perf_counter()
    deadline = begin + seconds
    run.warmup = workload.run_pass(workload.setup())

    def timed_setup():
        started = perf_counter()
        prepared = workload.setup()
        run.setups_s.append(perf_counter() - started)
        return prepared

    while True:
        # The garbage of earlier passes and set-ups is collected between
        # them, so that neither a pass's time nor the peak RSS depends on
        # when the collector last ran.
        gc.collect()
        started = perf_counter()
        # The extra set-ups keep pace with the run, so that their median
        # covers all of it rather than one moment of the host.
        while len(run.setups_s) < SETUP_SAMPLES * (started - begin) / seconds:
            workload.release(timed_setup())
        run.passes.append(workload.run_pass(timed_setup()))
        step_s = perf_counter() - started
        ticks = sum(len(p.steps_s) for p in run.passes)
        enough = len(run.passes) >= MIN_PASSES and ticks >= MIN_TICKS
        if enough and perf_counter() + step_s > deadline:
            break
    while len(run.setups_s) < SETUP_SAMPLES:
        workload.release(timed_setup())
    return run


def traced_run(workload, seconds: float, trace_path: Path):
    """Traced and untraced passes of the same workload, alternating.

    The first traced pass gives the spans; it goes first, so it sees a
    fresh process as the first pass of a timed run does.  More pairs
    follow while they fit in *seconds*, and the tracing overhead is the
    median traced pass minus the median untraced one.
    """
    from spans import Tracer

    workload.prepare()
    tracer = Tracer()
    traced, untraced = [], []
    started = perf_counter()
    while True:
        prepared = workload.setup()
        with (tracer if not traced else Tracer()).patched(workload.targets(prepared)):
            traced.append(workload.run_pass(prepared))
        untraced.append(workload.run_pass(workload.setup()))
        used = perf_counter() - started
        if used + used / len(traced) > seconds:
            break
    tracer.write(trace_path)
    top_level_s = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    return tracer.layers(), top_level_s, traced, untraced


def run_checks(workload, passes) -> list[tuple[str, bool, str]]:
    """Checks every run makes, plus the workload's own."""
    first = passes[0]
    checks = [
        (
            "every read answered 200",
            all(p.read_failures == 0 for p in passes),
            f"{sum(p.read_failures for p in passes)} failed reads",
        ),
        (
            "no frame dead-lettered",
            all(p.counters["collection.dead_lettered"] == 0 for p in passes),
            f"{sum(p.counters['collection.dead_lettered'] for p in passes):g} dead letters",
        ),
        (
            "every pass yields the same fingerprint",
            all(p.fingerprint == first.fingerprint for p in passes),
            ", ".join(sorted({p.fingerprint for p in passes})),
        ),
        (
            "layer counters repeat exactly across passes",
            all(p.counters == first.counters for p in passes),
            f"{len(passes)} passes",
        ),
    ]
    return checks + workload.checks(passes)


def run_workload(args) -> dict:
    import metrics
    import workloads

    shape = workloads.SMOKE if args.smoke else workloads.FULL
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Temporary files of Python and sqlite stay inside the checkout.
    tempfile.tempdir = os.environ["TMPDIR"] = str(work)
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, shape, work)
    detail: dict = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke}
    try:
        if args.trace:
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            layers, top_level_s, traced, untraced = traced_run(
                workload, args.seconds, trace_path
            )
            passes = traced + untraced
            overhead_s = (statistics.median(p.wall_s for p in traced)
                          - statistics.median(p.wall_s for p in untraced))
            values = metrics.per_layer(layers, top_level_s, traced[0], overhead_s)
            detail["layers"] = {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(layers.items())
            }
            detail["traced_wall_s"] = [p.wall_s for p in traced]
            detail["untraced_wall_s"] = [p.wall_s for p in untraced]
            detail["spans_file"] = str(trace_path.relative_to(ROOT))
            units = metrics.PER_LAYER
        else:
            run = measure(workload, args.seconds)
            detail["prepare_s"], detail["setups_s"] = run.prepare_s, run.setups_s
            values, detail["tails"] = metrics.end_to_end(
                run.prepare_s + statistics.median(run.setups_s), run.passes,
                peak_rss_mb(), workload.timed_reads,
            )
            detail["reported"] = {
                name: {"value": values.pop(name), "unit": unit}
                for name, unit in metrics.REPORTED.items() if name in values
            }
            units = metrics.END_TO_END
            # The warm-up pass is checked and counted, though not timed.
            passes = [run.warmup, *run.passes]
        checks = run_checks(workload, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reads = sum(len(p.reads_s) for p in passes)
    requests = sum(p.counters["collection.requests"] for p in passes)
    failed_checks = sum(not ok for _, ok, _ in checks)
    attempted = int(reads + requests + len(checks))
    failed = int(
        sum(p.read_failures for p in passes)
        + sum(p.counters["collection.dead_lettered"] for p in passes)
        + failed_checks
    )
    lags = passes[0].detect_lag_h
    detail.update(
        passes=len(passes),
        pass_wall_s=[p.wall_s for p in passes],
        fingerprint=passes[0].fingerprint,
        counters=passes[0].counters,
        detect_lag_p50_h=statistics.median(lags) if lags else None,
        matched_impacts=len(lags),
        checks=[{"check": name, "ok": ok, "detail": info} for name, ok, info in checks],
        error_rate=failed / attempted,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    detail["result"] = result
    return detail


def report(detail: dict) -> None:
    """Human-readable lines before the JSON result."""
    import metrics

    result = detail["result"]
    print(f"workload {detail['workload']} seed {detail['seed']}: {detail['passes']} passes, "
          f"fingerprint {detail['fingerprint']}")
    reported = detail.get("reported", {})
    for name, metric in (result["metrics"] | reported).items():
        tail = detail.get("tails", {}).get(name)
        note = f"  (p{tail['percentile']:g} of {tail['samples']})" if tail else ""
        note += "  (reported, not gated)" if name in reported else ""
        moves = metrics.MOVES.get(name)
        note += f"  -> {moves}" if moves else ""
        print(f"  {name:36s} {metric['value']:14.6f} {metric['unit']}{note}")
    if "prepare_s" in detail:
        print(f"  setup_s = preparation {detail['prepare_s']:.4f} s + median of "
              f"{len(detail['setups_s'])} set-ups")
    for name, value in detail["counters"].items():
        print(f"  counter {name:28s} {value:g}")
    if detail["detect_lag_p50_h"] is not None:
        print(f"  detect lag p50 {detail['detect_lag_p50_h']:.1f} h over "
              f"{detail['matched_impacts']} matched impacts")
    if "layers" in detail:
        busy = detail["traced_wall_s"][0]
        walls = " / ".join(
            " ".join(f"{wall:.3f}" for wall in detail[key])
            for key in ("traced_wall_s", "untraced_wall_s")
        )
        print(f"  layer spans of the first traced pass ({busy:.3f} s); "
              f"study_s traced / untraced: {walls}")
        print(f"    {'span':34s} {'calls':>8s} {'total s':>10s} {'self s':>10s} {'self %':>7s}")
        rows = sorted(detail["layers"].items(), key=lambda item: -item[1]["self_s"])
        for name, row in rows:
            print(f"    {name:34s} {row['calls']:8d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {100 * row['self_s'] / busy:6.1f}%")
    for check in detail["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['check']}: {check['detail']}")
    print(f"  error_rate {detail['error_rate']:.6f} "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload);
    prints their results' correctness and counts as one JSON line."""
    summary = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(completed.stdout, end="")
        if completed.returncode != 0:
            print(f"{name}: exited with {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        summary[name] = {key: result[key] for key in ("correct", "attempted", "failed")}
    correct = all(result["correct"] for result in summary.values())
    print(json.dumps(summary | {"correct": correct}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    detail = run_workload(args)
    report(detail)
    smoke = "-smoke" if args.smoke else ""
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=2, default=str) + "\n")
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
