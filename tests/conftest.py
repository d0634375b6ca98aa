"""Shared fixtures: a small but complete simulated deployment.

Session-scoped fixtures build one compact world (first months of 2021,
containing the Texas winter storm and the Verizon East Coast outage)
and run the pipeline over it once; the many tests that only *read*
results share that work.  Tests that need mutation or special
configurations build their own throwaway environments.
"""

from __future__ import annotations

import pytest

from repro import StudyRuntime, utc
from repro.ant import AntDataset
from repro.core import SiftConfig
from repro.timeutil import TimeWindow
from repro.world import Scenario, ScenarioConfig, SearchPopulation

WINDOW_START = utc(2021, 1, 1)
WINDOW_END = utc(2021, 3, 1)

#: Geographies covered by the shared mini study: a huge state with the
#: storm, a huge quiet-ish state, a storm-adjacent state, a tiny state.
MINI_GEOS = ("US-TX", "US-CA", "US-OK", "US-WY")


@pytest.fixture(scope="session")
def small_env():
    """Two months around the Texas winter storm, moderate background."""
    return StudyRuntime.build(
        background_scale=0.3, start=WINDOW_START, end=WINDOW_END
    )


@pytest.fixture(scope="session")
def small_window(small_env) -> TimeWindow:
    return small_env.window


@pytest.fixture(scope="session")
def tx_result(small_env):
    """Full single-geography pipeline result for Texas."""
    return small_env.sift.analyze_state("US-TX", small_env.window)


@pytest.fixture(scope="session")
def mini_study(small_env):
    """A small multi-geography study (annotated, grouped)."""
    return small_env.run_study(geos=MINI_GEOS)


@pytest.fixture(scope="session")
def small_scenario() -> Scenario:
    return Scenario.build(
        ScenarioConfig(
            start=WINDOW_START, end=WINDOW_END, background_scale=0.3
        )
    )


@pytest.fixture(scope="session")
def small_population(small_scenario) -> SearchPopulation:
    return SearchPopulation(small_scenario)


@pytest.fixture(scope="session")
def small_ant(small_scenario) -> AntDataset:
    return AntDataset.build(small_scenario)


@pytest.fixture()
def fast_sift_config() -> SiftConfig:
    """Single-round, unannotated config for tests probing one stage."""
    from repro.core import AveragingConfig

    return SiftConfig(
        averaging=AveragingConfig(max_rounds=1, min_rounds=1),
        annotate=False,
    )
