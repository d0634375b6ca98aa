"""Backend database for the collection module.

The paper's implementation keeps a backend database into which the
responses gathered by the fetcher units are merged.  This is a thin
sqlite3 layer (``:memory:`` by default, a file path for persistence)
storing raw frame responses, reconstructed series, and detected spikes,
so a crawl can be interrupted, resumed, and analyzed offline.

Concurrency model: one connection, owned by the thread that opened
the database.  sqlite's ``check_same_thread`` stays on, so any use
from another thread fails loudly instead of racing.  Worker processes
of a sharded study open their own partition databases; file-backed
databases use WAL journaling and a generous busy timeout so those
separate writers never fail on a locked file.

``store_frames`` batches many frame inserts into one transaction —
the fast path for bulk crawls — and ``store_checkpoint`` persists a
geography's series + spikes atomically, which is what makes interrupted
studies resumable: the series row only appears once the whole
geography committed.
"""

from __future__ import annotations

import json
import os
import sqlite3
from datetime import datetime
from types import TracebackType

import numpy as np

from repro.core.spikes import Spike
from repro.errors import DatabaseError
from repro.timeutil import TimeWindow
from repro.trends.records import RisingTerm, TimeFrameRequest, TimeFrameResponse

_SCHEMA = """
CREATE TABLE IF NOT EXISTS frames (
    term TEXT NOT NULL,
    geo TEXT NOT NULL,
    start TEXT NOT NULL,
    end TEXT NOT NULL,
    sample_round INTEGER NOT NULL,
    values_json TEXT NOT NULL,
    rising_json TEXT NOT NULL,
    fetched_by TEXT NOT NULL,
    PRIMARY KEY (term, geo, start, end, sample_round)
);
CREATE TABLE IF NOT EXISTS series (
    term TEXT NOT NULL,
    geo TEXT NOT NULL,
    start TEXT NOT NULL,
    values_json TEXT NOT NULL,
    meta_json TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (term, geo)
);
CREATE TABLE IF NOT EXISTS spikes (
    term TEXT NOT NULL,
    geo TEXT NOT NULL,
    start TEXT NOT NULL,
    peak TEXT NOT NULL,
    end TEXT NOT NULL,
    magnitude REAL NOT NULL,
    magnitude_rank INTEGER NOT NULL,
    annotations_json TEXT NOT NULL,
    PRIMARY KEY (term, geo, peak)
);
"""

_BUSY_TIMEOUT_MS = 30_000


class CollectionDatabase:
    """Stores crawled frames, stitched series, and detected spikes."""

    def __init__(self, path: str = ":memory:") -> None:
        self._path = path
        try:
            conn = sqlite3.connect(path)
        except sqlite3.OperationalError as error:
            raise DatabaseError(f"cannot open database {path!r}: {error}") from error
        if ":memory:" not in path and path != "":
            conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        conn.commit()
        self._conn: sqlite3.Connection | None = conn

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise DatabaseError(f"database {self._path} is closed")
        return self._conn

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CollectionDatabase":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # -- frames ------------------------------------------------------------------

    @staticmethod
    def _frame_row(response: TimeFrameResponse, fetched_by: str) -> tuple:
        request = response.request
        rising = [[term.phrase, term.weight] for term in response.rising]
        return (
            request.term,
            request.geo,
            request.window.start.isoformat(),
            request.window.end.isoformat(),
            response.sample_round,
            json.dumps(response.values.tolist()),
            json.dumps(rising),
            fetched_by,
        )

    def store_frame(self, response: TimeFrameResponse, fetched_by: str) -> None:
        try:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO frames VALUES (?,?,?,?,?,?,?,?)",
                self._frame_row(response, fetched_by),
            )
            conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(f"failed to store frame: {error}") from error

    def store_frames(
        self, batch: list[tuple[TimeFrameResponse, str]]
    ) -> None:
        """Merge many ``(response, fetched_by)`` pairs in one transaction."""
        if not batch:
            return
        rows = [self._frame_row(response, fetched_by) for response, fetched_by in batch]
        try:
            conn = self._connection()
            conn.executemany(
                "INSERT OR REPLACE INTO frames VALUES (?,?,?,?,?,?,?,?)", rows
            )
            conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(f"failed to store frame batch: {error}") from error

    def load_frame(
        self, term: str, geo: str, window: TimeWindow, sample_round: int
    ) -> TimeFrameResponse | None:
        conn = self._connection()
        row = conn.execute(
            "SELECT values_json, rising_json, sample_round FROM frames "
            "WHERE term=? AND geo=? AND start=? AND end=? AND sample_round=?",
            (
                term,
                geo,
                window.start.isoformat(),
                window.end.isoformat(),
                sample_round,
            ),
        ).fetchone()
        if row is None:
            return None
        values_json, rising_json, stored_round = row
        request = TimeFrameRequest(term=term, geo=geo, window=window)
        rising = tuple(
            RisingTerm(phrase=phrase, weight=weight)
            for phrase, weight in json.loads(rising_json)
        )
        return TimeFrameResponse(
            request=request,
            values=np.array(json.loads(values_json), dtype=np.int16),
            rising=rising,
            sample_round=stored_round,
        )

    def frame_count(self) -> int:
        conn = self._connection()
        (count,) = conn.execute("SELECT COUNT(*) FROM frames").fetchone()
        return int(count)

    def frames_by_fetcher(self) -> dict[str, int]:
        conn = self._connection()
        rows = conn.execute(
            "SELECT fetched_by, COUNT(*) FROM frames GROUP BY fetched_by"
        ).fetchall()
        return {fetcher: int(count) for fetcher, count in rows}

    # -- series -----------------------------------------------------------------

    def store_series(
        self,
        term: str,
        geo: str,
        start: datetime,
        values: np.ndarray,
        meta: dict | None = None,
    ) -> None:
        conn = self._connection()
        conn.execute(
            "INSERT OR REPLACE INTO series VALUES (?,?,?,?,?)",
            (
                term,
                geo,
                start.isoformat(),
                json.dumps(values.tolist()),
                json.dumps(meta or {}),
            ),
        )
        conn.commit()

    def load_series(self, term: str, geo: str) -> tuple[datetime, np.ndarray] | None:
        conn = self._connection()
        row = conn.execute(
            "SELECT start, values_json FROM series WHERE term=? AND geo=?",
            (term, geo),
        ).fetchone()
        if row is None:
            return None
        start_iso, values_json = row
        return (
            datetime.fromisoformat(start_iso),
            np.array(json.loads(values_json), dtype=np.float64),
        )

    def series_geos(self, term: str) -> list[str]:
        """Geographies with a stored series for *term*, sorted."""
        conn = self._connection()
        rows = conn.execute(
            "SELECT geo FROM series WHERE term=? ORDER BY geo", (term,)
        ).fetchall()
        return [geo for (geo,) in rows]

    def load_series_meta(self, term: str, geo: str) -> dict | None:
        conn = self._connection()
        row = conn.execute(
            "SELECT meta_json FROM series WHERE term=? AND geo=?",
            (term, geo),
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    # -- spikes ------------------------------------------------------------------

    @staticmethod
    def _spike_row(spike: Spike) -> tuple:
        return (
            spike.term,
            spike.geo,
            spike.start.isoformat(),
            spike.peak.isoformat(),
            spike.end.isoformat(),
            spike.magnitude,
            spike.magnitude_rank,
            json.dumps(list(spike.annotations)),
        )

    def store_spikes(self, spikes: list[Spike] | tuple[Spike, ...]) -> None:
        rows = [self._spike_row(spike) for spike in spikes]
        conn = self._connection()
        conn.executemany(
            "INSERT OR REPLACE INTO spikes VALUES (?,?,?,?,?,?,?,?)", rows
        )
        conn.commit()

    def load_spikes(self, term: str | None = None, geo: str | None = None) -> list[Spike]:
        query = (
            "SELECT term, geo, start, peak, end, magnitude, magnitude_rank, "
            "annotations_json FROM spikes"
        )
        clauses = []
        params: list[str] = []
        if term is not None:
            clauses.append("term=?")
            params.append(term)
        if geo is not None:
            clauses.append("geo=?")
            params.append(geo)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        conn = self._connection()
        rows = conn.execute(query, params).fetchall()
        spikes = []
        for row in rows:
            term_, geo_, start, peak, end, magnitude, rank, annotations_json = row
            spikes.append(
                Spike(
                    term=term_,
                    geo=geo_,
                    start=datetime.fromisoformat(start),
                    peak=datetime.fromisoformat(peak),
                    end=datetime.fromisoformat(end),
                    magnitude=magnitude,
                    magnitude_rank=rank,
                    annotations=tuple(json.loads(annotations_json)),
                )
            )
        return spikes

    def spike_count(self) -> int:
        conn = self._connection()
        (count,) = conn.execute("SELECT COUNT(*) FROM spikes").fetchone()
        return int(count)

    # -- shard partitions --------------------------------------------------------

    def merge_partition(self, path: str) -> None:
        """Merge a shard partition database (see :mod:`repro.runtime.shard`)
        into this one, in one transaction.

        Rows are copied in primary-key order — partitions shard by
        geography, so the copy is conflict-free and the merged tables
        are byte-for-byte what a serial run would have written,
        whatever order the shards finished in.
        """
        if not os.path.exists(path):
            return  # a shard that resumed everything writes nothing
        try:
            conn = self._connection()
            conn.execute("ATTACH DATABASE ? AS shard", (path,))
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO frames SELECT * FROM shard.frames "
                    "ORDER BY term, geo, start, end, sample_round"
                )
                conn.execute(
                    "INSERT OR REPLACE INTO series SELECT * FROM shard.series "
                    "ORDER BY term, geo"
                )
                conn.execute(
                    "INSERT OR REPLACE INTO spikes SELECT * FROM shard.spikes "
                    "ORDER BY term, geo, peak"
                )
                conn.commit()
            finally:
                conn.execute("DETACH DATABASE shard")
        except sqlite3.Error as error:
            raise DatabaseError(
                f"failed to merge shard partition {path!r}: {error}"
            ) from error

    # -- checkpoints -------------------------------------------------------------

    def store_checkpoint(
        self,
        term: str,
        geo: str,
        start: datetime,
        values: np.ndarray,
        meta: dict,
        spikes: list[Spike] | tuple[Spike, ...],
    ) -> None:
        """Persist one geography's series + spikes in a single transaction.

        The series row doubles as the completion marker: a resuming
        study treats a geography as done only when its series row (with
        a matching study window in the meta) exists, and this method
        commits spikes and series together, so an interrupt can never
        leave a half-written checkpoint that looks complete.
        """
        try:
            conn = self._connection()
            conn.execute(
                "DELETE FROM spikes WHERE term=? AND geo=?", (term, geo)
            )
            conn.executemany(
                "INSERT OR REPLACE INTO spikes VALUES (?,?,?,?,?,?,?,?)",
                [self._spike_row(spike) for spike in spikes],
            )
            conn.execute(
                "INSERT OR REPLACE INTO series VALUES (?,?,?,?,?)",
                (
                    term,
                    geo,
                    start.isoformat(),
                    json.dumps(values.tolist()),
                    json.dumps(meta),
                ),
            )
            conn.commit()
        except sqlite3.Error as error:
            raise DatabaseError(
                f"failed to store checkpoint for {geo}: {error}"
            ) from error
