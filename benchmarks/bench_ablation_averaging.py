"""Ablation: iterative re-fetch averaging (paper §3.2).

The paper reports that averaging independent re-fetches until the
detected spike set converges "takes six rounds of re-fetches to
conclude".  This ablation runs the averaging loop with round budgets
1..8 over a noisy state and measures (a) agreement with the asymptotic
spike set and (b) where convergence actually triggers.
"""

from repro import StudyRuntime, utc
from repro.analysis import paper_vs_measured, render_table
from repro.core.averaging import AveragingConfig, average_until_convergence


def test_averaging_rounds_convergence(benchmark, emit):
    runtime = StudyRuntime.build(
        background_scale=0.3, start=utc(2021, 1, 1), end=utc(2021, 3, 1)
    )
    sift = runtime.sift
    window = runtime.window

    def run(max_rounds: int, min_rounds: int | None = None):
        return average_until_convergence(
            lambda k: sift.fetch_week_frames("US-CA", window, k),
            AveragingConfig(
                max_rounds=max_rounds,
                # With min_rounds == max_rounds the loop always runs the
                # whole budget, giving fixed-round reference points.
                min_rounds=min_rounds or max_rounds,
                similarity_threshold=1.0 if min_rounds is None else 0.93,
            ),
        )

    # Asymptote: force eight full rounds.
    reference = run(8).spikes
    rows = []
    for budget in (1, 2, 3, 4, 6, 8):
        result = run(budget)
        rows.append(
            (
                budget,
                len(result.spikes),
                f"{result.spikes.weighted_match_similarity(reference):.3f}",
            )
        )

    adaptive = benchmark.pedantic(
        lambda: run(8, min_rounds=3), rounds=1, iterations=1
    )
    emit(
        render_table(
            ("rounds", "spikes", "agreement with 8-round set"),
            rows,
            title="Ablation: averaging round budget (US-CA, Jan-Feb 2021)",
        ),
        paper_vs_measured(
            [
                ("rounds to converge", "~6", adaptive.rounds_used),
                ("converged", True, adaptive.converged),
                (
                    "final agreement",
                    "high",
                    f"{adaptive.spikes.weighted_match_similarity(reference):.3f}",
                ),
            ]
        ),
    )
    assert adaptive.converged
    assert adaptive.rounds_used <= 6
    # more rounds -> closer to the asymptote (first vs last row)
    assert float(rows[-1][2]) >= float(rows[0][2])
