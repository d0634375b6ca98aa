"""Study execution: in-process, or sharded across worker processes.

The paper's study is embarrassingly parallel — each geography's
collect → stitch → average → detect chain is independent until area
grouping — so a study runs one of two ways:

* **in-process** — the study driver walks the geographies itself
  (``Sift.executor is None``);
* :class:`ProcessPoolStudyExecutor` — geography-sharded worker
  *processes*, each rebuilding the seeded deployment and analyzing its
  shard with no shared interpreter (see :mod:`repro.runtime.shard`).

Both return results **in input order**, so a seeded study produces
byte-identical results regardless of worker count or executor kind
(the frames themselves are deterministic per ``(request,
sample_round)``; only wall-clock interleaving varies).

Executor choice threads through :class:`repro.runtime.RuntimeConfig`
(``executor="auto"|"serial"|"process"``), the CLI (``--executor``),
and ``/api/runtime``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.collection.database import CollectionDatabase
    from repro.core.pipeline import Sift, StateResult
    from repro.timeutil import TimeWindow

#: Executor kinds accepted by :func:`make_executor` (and the CLI).
EXECUTOR_KINDS: tuple[str, ...] = ("auto", "serial", "process")


class ProcessPoolStudyExecutor:
    """Geography-sharded worker processes with deterministic reassembly.

    The per-geography stage cannot ship closures across a process
    boundary, so the study driver hands the whole stage to
    :meth:`run_sharded_study`, which

    1. serves already-checkpointed geographies from the **parent**
       checkpoint first (zero-refetch resume works across executor
       switches),
    2. deals the remaining geographies round-robin into
       ``max_workers`` shards and runs each shard in its own process
       via the picklable :func:`repro.runtime.shard.run_shard`,
    3. forwards the workers' structured progress events to the parent
       listener through a manager queue as they happen,
    4. gives each shard a private sqlite partition
       (``<db>.shard<k>``) and/or columnar partition
       (``<store>/.shard-<k>``) and merges them into the parent stores
       **in shard order** on finalize, and
    5. reassembles results in input-geography order.

    Every per-geography result is fully determined by the (seeded)
    runtime configuration, so the study is byte-identical to a serial
    run at any worker count.

    The executor must be bound to a runtime via :meth:`configure`
    before it can shard a study (``StudyRuntime`` does this).
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be positive: {max_workers}")
        self.max_workers = max_workers
        self._config = None  # RuntimeConfig template for shard workers
        self._database: CollectionDatabase | None = None
        self._store = None  # parent ColumnarStore, when configured
        #: CrawlStats and FaultStats forwarded by worker processes,
        #: accumulated across runs; the parent's collection layer never
        #: sees the workers' crawls, so ``StudyRuntime.report`` and
        #: ``StudyRuntime.fault_report`` fold these in to keep lifetime
        #: accounting executor-independent.
        self.worker_crawl: list = []
        self.worker_faults: list = []

    def configure(self, config, database=None, store=None) -> None:
        """Bind the runtime pieces shard workers are rebuilt from."""
        self._config = config
        self._database = database
        self._store = store

    def run_sharded_study(
        self,
        sift: "Sift",
        geos: tuple[str, ...],
        window: "TimeWindow",
    ) -> list[tuple["StateResult", bool]]:
        """Run the per-geography stage of a study, sharded by geography."""
        if self._config is None:
            raise ConfigurationError(
                "ProcessPoolStudyExecutor is not bound to a runtime; "
                "construct it through StudyRuntime (or call configure())"
            )
        from repro.runtime.shard import run_sharded_study

        return run_sharded_study(
            self, sift, geos, window,
            config=self._config,
            database=self._database,
            store=self._store,
        )


def make_executor(
    max_workers: int | None, kind: str = "auto"
) -> ProcessPoolStudyExecutor | None:
    """The executor for a worker count and kind; ``None`` means in-process.

    ``kind="auto"`` runs in-process for ``None``/0/1 workers and
    shards across worker processes otherwise; ``"serial"`` always runs
    in-process and ``"process"`` always shards.  Negative worker counts
    raise for every kind.
    """
    if max_workers is not None and max_workers < 0:
        raise ConfigurationError(f"max_workers cannot be negative: {max_workers}")
    if kind not in EXECUTOR_KINDS:
        raise ConfigurationError(
            f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}"
        )
    if kind == "process" or (kind == "auto" and (max_workers or 1) > 1):
        return ProcessPoolStudyExecutor(max_workers or 1)
    return None
