"""SIFT reproduction: user-affecting Internet outage detection via search trends.

A full, self-contained reproduction of *"Is my Internet down?": Sifting
through User-Affecting Outages with Google Trends* (Kirci, Vahlensieck,
Vanbever — IMC 2022), including every substrate the paper depends on:

* :mod:`repro.world` — a ground-truth model of the 2020-2021 US outage
  landscape and the search behaviour it drives;
* :mod:`repro.trends` — a Google Trends service simulator with the real
  service's sampling, anonymity, indexing, and rate-limit semantics;
* :mod:`repro.collection` — the fetcher-fleet crawler and its database;
* :mod:`repro.core` — SIFT itself: stitching, re-fetch averaging, spike
  detection, area grouping, and context annotation;
* :mod:`repro.ant` — an ANT-outages-style active-probing data set for
  cross-validation;
* :mod:`repro.analysis` — the evaluation figures and tables as code.

Quickstart::

    from repro import StudyRuntime

    runtime = StudyRuntime.build(background_scale=0.05)
    result = runtime.run_study(geos=("US-TX",))
    for spike in result.spikes.top_by_duration(3):
        print(spike.label, spike.duration_hours, spike.annotations)
"""

from repro.runtime import (
    ALL_GEOS,
    STUDY_END,
    STUDY_START,
    RuntimeConfig,
    StudyRuntime,
)
from repro.timeutil import TimeWindow, utc

__version__ = "1.0.0"

__all__ = [
    "ALL_GEOS",
    "RuntimeConfig",
    "STUDY_END",
    "STUDY_START",
    "StudyRuntime",
    "TimeWindow",
    "utc",
    "__version__",
]
