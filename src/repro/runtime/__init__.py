"""The execution layer of the reproduction.

Everything about *how* a study runs — as opposed to *what* it computes
— lives here:

* :class:`StudyRuntime` / :func:`StudyRuntime.build` — the single
  factory that wires world, service, crawler, and pipeline together
  for the CLI, the web app, the benchmarks, and the examples;
* :class:`ProcessPoolStudyExecutor` / :func:`make_executor` —
  per-geography parallelism with deterministic ordering, across
  geography-sharded worker processes (``None`` runs in-process);
* :class:`DatabaseCheckpoint` — durable per-geography resume through
  the collection database (the columnar alternative lives in
  :mod:`repro.store`);
* the structured progress events of :mod:`repro.core.progress`,
  re-exported for convenience.
"""

from repro.core.progress import (
    AnnotationStarted,
    CacheStats,
    CheckpointHit,
    CrawlStats,
    FaultStats,
    FramesDropped,
    GeoFinished,
    GeoStarted,
    ProgressEvent,
    ProgressListener,
    ProgressLog,
    ServingStats,
    ShardStats,
    SnapshotInstalled,
    StudyFinished,
    StudyStarted,
    text_listener,
)
from repro.runtime.checkpoint import DatabaseCheckpoint
from repro.runtime.executor import (
    EXECUTOR_KINDS,
    ProcessPoolStudyExecutor,
    make_executor,
)
from repro.runtime.study import (
    ALL_GEOS,
    STUDY_END,
    STUDY_START,
    RuntimeConfig,
    StudyRuntime,
)

__all__ = [
    "ALL_GEOS",
    "AnnotationStarted",
    "CacheStats",
    "CheckpointHit",
    "CrawlStats",
    "DatabaseCheckpoint",
    "EXECUTOR_KINDS",
    "FaultStats",
    "FramesDropped",
    "GeoFinished",
    "GeoStarted",
    "ProcessPoolStudyExecutor",
    "ProgressEvent",
    "ProgressListener",
    "ProgressLog",
    "RuntimeConfig",
    "STUDY_END",
    "STUDY_START",
    "ServingStats",
    "ShardStats",
    "SnapshotInstalled",
    "StudyFinished",
    "StudyRuntime",
    "StudyStarted",
    "make_executor",
    "text_listener",
]
