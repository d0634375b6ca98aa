"""The benchmark's metrics: what each means and how it is derived.

``BENCHMARK.json`` lists the names, units and directions; this module
holds what the JSON cannot: how each metric is computed, and for each
per-layer metric the end-to-end metric and workload it should move.

Every workload reports every gated end-to-end metric.  ``study_s`` is
the wall time of one pass: from ``run_study()`` to the last rendered
payload on the batch workloads, from the first tick to the last read on
``stream_watch``.  A *tick* is one weekly tick over all geos on
``stream_watch``, timed from outside ``StudyDaemon.tick`` so that it
includes the store checkpoint; on a batch workload it is one geography's
analysis (crawl, average, detect, checkpoint), the unit a serial batch
study advances by.  ``tick_p50_ms`` is the median tick, and
``tick_tail_ms`` the highest percentile of :data:`TAIL_LADDER` with at
least ten ticks beyond it; the results file records its percentile and
sample count.  ``study_s`` is the mean over a run's timed passes, not
their median: a shared host's speed drifts over tens of seconds, and the
mean weighs every stretch of the run where a median of a few passes
follows one of them.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics ``BENCHMARK.json`` gates: name -> unit.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: End-to-end metrics every run prints and records but that are not
#: gated, because over ten seeds on a shared 2-core host their spread
#: reached or passed the largest bound a gated metric may have: the tick
#: tail, set by a workload's ten slowest ticks, spread 0.23-0.26 on the
#: batch workloads.  The read percentiles are reported on
#: ``stream_watch`` only, whose ~100 reads per tick are enough for a p99.
REPORTED = {
    "tick_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: ``_s`` metrics are self time (span minus child spans) unless marked
#: total; counters come from public stats accessors.
MOVES = {
    "trends.fetch_calls": "study_s on batch_cold, tick_p50_ms on stream_watch; 0 on batch_warm",
    "trends.fetch_s": "study_s on batch_cold, tick_p50_ms on stream_watch",
    "trends.rising_s": "study_s on batch_cold",
    "world.matrix_misses": "tick_p50_ms on stream_watch; batch_cold is the control",
    "world.matrix_hit_ratio": "tick_p50_ms on stream_watch",
    "collection.requests": "study_s on batch_cold and batch_warm",
    "collection.fetched": "study_s on batch_cold",
    "collection.db_hit_ratio": "study_s on batch_warm",
    "collection.retries": "study_s on batch_cold",
    "collection.dead_lettered": "none: any is a failure",
    "collection.self_s": "study_s on batch_cold and batch_warm, tick_p50_ms on stream_watch",
    "collection.db_store_s": "study_s on batch_cold, tick_p50_ms on stream_watch",
    "collection.db_store_calls": "study_s on batch_cold, tick_p50_ms on stream_watch",
    "collection.db_load_s": "study_s on batch_warm",
    "collection.db_load_calls": "study_s on batch_warm",
    "reconstruct.average_self_s": "study_s on batch_warm, tick_p50_ms on stream_watch",
    "reconstruct.rounds": "study_s on batch_cold and batch_warm",
    "reconstruct.stitch_feed_s": "study_s on batch_warm, tick_p50_ms on stream_watch",
    "reconstruct.stitch_frames": "study_s on batch_warm, tick_p50_ms on stream_watch",
    "detection.s": "study_s on batch_warm",
    "detection.calls": "study_s on batch_warm",
    "annotation.rising_fetch_s": "study_s on batch_cold (total time)",
    "annotation.cluster_s": "study_s on batch_warm",
    "annotation.rising_cache_hit_ratio": "study_s on batch_cold",
    "area.group_s": "study_s on batch_warm, tick_p50_ms on stream_watch",
    "checkpoint.save_s": "study_s on batch_cold (total time)",
    "store.save_stream_s": "tick_p50_ms on stream_watch",
    "store.save_stream_calls": "tick_p50_ms on stream_watch",
    "streaming.ingest_s": "tick_p50_ms on stream_watch",
    "streaming.tick_self_s": "tick_p50_ms on stream_watch",
    "streaming.detect_lag_p50_h": "none: a faster tick must not publish later",
    "web.install_s": "tick_p50_ms on stream_watch, study_s on batch_cold and batch_warm",
    "web.render_s": "read_p50_ms and read_p99_ms on stream_watch",
    "web.requests": "read_p50_ms on stream_watch",
    "web.cache_hit_ratio": "read_p50_ms and read_p99_ms on stream_watch",
    "bench.unattributed_s": "whichever end-to-end metric the pass times",
    "bench.trace_overhead_s": "none: end-to-end metrics come untraced",
}

#: Percentiles a tail metric may use, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with >= ten samples beyond it (else 50)."""
    for percent in TAIL_LADDER:
        if count * (100.0 - percent) / 100.0 >= TAIL_BEYOND:
            return percent
    return 50.0


def percentile(values: list[float], percent: float) -> float:
    return float(np.percentile(values, percent))


def end_to_end(setup_s: float, passes, peak_rss_mb: float,
               timed_reads: bool) -> tuple[dict, dict]:
    """The end-to-end metrics of a run's passes, gated and reported alike,
    plus how their tails were cut.  Read percentiles only if
    *timed_reads*."""
    steps = [step for p in passes for step in p.steps_s]
    step_tail = tail_percentile(len(steps))
    values = {
        "setup_s": setup_s,
        "study_s": statistics.fmean(p.wall_s for p in passes),
        "tick_p50_ms": statistics.median(steps) * 1e3,
        "tick_tail_ms": percentile(steps, step_tail) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    tails = {"tick_tail_ms": {"percentile": step_tail, "samples": len(steps)}}
    if timed_reads:
        reads = [read for p in passes for read in p.reads_s]
        values["read_p50_ms"] = statistics.median(reads) * 1e3
        values["read_p99_ms"] = percentile(reads, 99.0) * 1e3
        tails["read_p99_ms"] = {"percentile": 99.0, "samples": len(reads)}
    return values, tails


def per_layer(layers: dict, top_level_s: float, traced, overhead_s: float) -> dict:
    """Per-layer metrics from a traced pass's spans and counters.

    *top_level_s* is the time the traced pass spent inside any span; the
    rest of the pass is ``bench.unattributed_s``.
    """

    def calls(*names):
        return sum(layers.get(name, (0, 0.0, 0.0))[0] for name in names)

    def total(*names):
        return sum(layers.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(layers.get(name, (0, 0.0, 0.0))[2] for name in names)

    counters = traced.counters
    lags = traced.detect_lag_h
    values = {
        "trends.fetch_calls": calls("trends.fetch"),
        "trends.fetch_s": own("trends.fetch"),
        "trends.rising_s": own("trends.rising_terms"),
        "collection.self_s": own("collection.interest_over_time"),
        "collection.db_store_s": own("collection.store_frame"),
        "collection.db_store_calls": calls("collection.store_frame"),
        "collection.db_load_s": own("collection.load_frame"),
        "collection.db_load_calls": calls("collection.load_frame"),
        "reconstruct.average_self_s": own("reconstruct.build_timeline"),
        "reconstruct.stitch_feed_s": own("reconstruct.stitch_feed"),
        "reconstruct.stitch_frames": calls("reconstruct.stitch_feed"),
        "detection.s": own("detection.detect_spikes", "detection.detect_bounds"),
        "detection.calls": calls("detection.detect_spikes", "detection.detect_bounds"),
        "annotation.rising_fetch_s": total("annotation.daily_rising"),
        "annotation.cluster_s": own("annotation.annotate_all"),
        "area.group_s": total("area.group_outages"),
        "checkpoint.save_s": total("checkpoint.save_state", "checkpoint.save_annotated"),
        "store.save_stream_s": own("store.save_stream"),
        "store.save_stream_calls": calls("store.save_stream"),
        "streaming.ingest_s": own("streaming.ingest"),
        "streaming.tick_self_s": own("streaming.tick"),
        "streaming.detect_lag_p50_h": statistics.median(lags) if lags else 0.0,
        "web.install_s": total("web.install_study", "web.install_delta"),
        "web.render_s": own("web.handle_request"),
        "bench.unattributed_s": traced.wall_s - top_level_s,
        "bench.trace_overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
    return {name: values[name] for name in PER_LAYER}
