#!/usr/bin/env python3
"""The paper's two-year, 51-geography study, end to end.

Runs the complete evaluation — every state, the full 2020-2021 window —
and prints the headline numbers next to the paper's.  The background
event scale is configurable: the default (0.1) finishes in about a
minute; 1.0 is the full paper-scale study (expect several minutes and
on the order of 49 000 spikes).

Run:  python examples/two_year_study.py [scale] [workers]
      python examples/two_year_study.py 1.0 4   # paper scale, 4 processes
"""

import sys
import time

from repro import StudyRuntime
from repro.analysis import (
    daily_distribution,
    duration_cdf,
    footprint_cdf,
    most_impactful,
    paper_vs_measured,
    power_share_of_long_spikes,
    render_table,
    state_cdf,
    yearly_counts,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    print(f"building the 2020-2021 world at background scale {scale} "
          f"({workers} workers) ...")
    env = StudyRuntime.build(background_scale=scale, max_workers=workers)

    started = time.time()
    study = env.run_study(geos=None)  # all 51 geographies
    elapsed = time.time() - started

    states = state_cdf(study.spikes)
    durations = duration_cdf(study.spikes)
    footprints = footprint_cdf(study.outages)
    daily = daily_distribution(study.spikes)
    counts = yearly_counts(study.spikes)

    print()
    print(paper_vs_measured(
        [
            ("spikes total", "49 189", study.spike_count),
            ("2020 / 2021 spikes", "25 494 / 23 695", f"{counts[2020]} / {counts[2021]}"),
            ("top-10-state share", "51%", f"{states.share_of_top(10):.0%}"),
            ("spikes >= 3 h", "10%", f"{durations.fraction_at_least(3):.1%}"),
            ("outages >= 10 states", "11%", f"{footprints.fraction_at_least(10):.1%}"),
            ("weekday/weekend ratio", "> 1", f"{daily.weekend_dip:.2f}"),
            ("power share of >= 5 h spikes", "73%", f"{power_share_of_long_spikes(study.spikes):.0%}"),
            ("frames crawled", "160 238", env.service.stats.frames_served),
        ],
        title=f"Two-year study at scale {scale} ({elapsed:.0f}s)",
    ))

    print()
    rows = [
        (row.label, row.state, row.duration_hours, ", ".join(row.spike.annotations[:3]))
        for row in most_impactful(study.spikes, 7)
    ]
    print(render_table(
        ("spike time", "state", "duration (h)", "annotations"),
        rows,
        title="Table 1 - most impactful spikes",
    ))

    print()
    print(
        "note: spike counts scale with the background events; the paper-"
        "scale numbers need scale=1.0 (see EXPERIMENTS.md for a recorded run)."
    )


if __name__ == "__main__":
    main()
