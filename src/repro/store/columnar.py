"""Partitioned columnar study store: per-geo ``.npy`` columns + manifest.

Per-study sqlite keeps whole series as JSON text — loading one is a
parse-and-materialize of every value, and the web index then copies
the floats again.  At the target scale (51 geographies × 2 years ×
the full term catalog) that materialization is the dominant load cost,
so this store keeps each geography's hourly series as a raw
little-endian ``.npy`` column file that :func:`numpy.load` can
**memory-map zero-copy**, plus one small JSON manifest holding
everything else (study window, reconstruction backend, averaging
diagnostics, spikes):

```
<root>/
  manifest.json          # format, term, per-geo entries, study summary
  series/
    US-TX.npy            # float64 hourly column, mmap-loadable
    US-CA.npy
    ...
```

The store implements the study-checkpoint protocol
(:class:`repro.core.pipeline.StudyCheckpoint`), so a runtime can
checkpoint into it directly (``RuntimeConfig.store``), resume from it
with zero refetches, and hand it to the serving layer where
:class:`repro.web.index.QueryIndex` builds its read artifacts over the
memory-mapped columns without materializing the raw series.

Interop with the sqlite format is first-class:
:meth:`ColumnarStore.import_database` / :meth:`export_database` copy
checkpoints between formats losslessly (both stamp the shared metadata
record of :mod:`repro.store.meta`), so a study checkpointed in one
format resumes from the other.

Process-sharded studies write one private partition per shard
(``<root>/.shard-<k>``) and the parent merges them deterministically —
shard order, geo-sorted manifest — via :meth:`merge_partition`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from datetime import datetime

import numpy as np

from repro.core.area import AreaConfig, group_outages
from repro.core.pipeline import StateResult, StudyCheckpoint, StudyResult
from repro.core.reconstruct import DEFAULT_AVERAGER, DEFAULT_STITCHER
from repro.core.spikes import SpikeSet
from repro.errors import DatabaseError
from repro.store.integrity import (
    PartitionDamage,
    StoreVerification,
    digest_file,
    fsync_directory,
)
from repro.store.meta import (
    require_backend,
    restore_state,
    spikes_from_dicts,
    spikes_to_dicts,
    state_meta,
    window_matches,
)
from repro.timeutil import TimeWindow

FORMAT = "sift-columnar/1"
MANIFEST = "manifest.json"
SERIES_DIR = "series"


class ColumnarStore(StudyCheckpoint):
    """A directory of memory-mapped per-geo series + a JSON manifest."""

    def __init__(
        self,
        root: str,
        term: str = "Internet outage",
        stitcher: str = DEFAULT_STITCHER,
        averager: str = DEFAULT_AVERAGER,
        mmap: bool = True,
    ) -> None:
        self.root = root
        self.term = term
        self.stitcher = stitcher
        self.averager = averager
        #: ``False`` loads materialized copies (for callers that must
        #: outlive the store directory); the default maps pages lazily.
        self.mmap = mmap
        os.makedirs(os.path.join(root, SERIES_DIR), exist_ok=True)
        #: ``*.tmp`` leftovers from interrupted writes, removed on open
        #: before they can ever be mistaken for partitions.
        self.swept = self.sweep_tmp()

    # -- manifest ------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST)

    def _read_manifest(self) -> dict:
        path = self._manifest_path()
        if not os.path.exists(path):
            return {"format": FORMAT, "term": self.term, "geos": {}}
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != FORMAT:
            raise DatabaseError(
                f"{path} is not a {FORMAT} manifest "
                f"(found {manifest.get('format')!r})"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        """Durable atomic replace: tmp → fsync → rename → dir fsync.

        A reader never sees a half-written manifest, and a crash at any
        point leaves either the old manifest or the new one on disk —
        never a torn blend, never a rename rolled back by a power cut.
        """
        path = self._manifest_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(self.root)

    def _column_path(self, geo: str) -> str:
        return os.path.join(self.root, SERIES_DIR, f"{geo}.npy")

    def _write_npy(self, path: str, values: np.ndarray) -> tuple[str, int]:
        """Durably write one ``.npy`` column; return (digest, bytes).

        The digest is taken over the fsynced tmp bytes *before* the
        rename, so the manifest entry that follows describes exactly
        the bytes that became the partition.
        """
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            np.save(handle, np.ascontiguousarray(values, dtype=np.float64))
            handle.flush()
            os.fsync(handle.fileno())
        checksum, size = digest_file(tmp)
        os.replace(tmp, path)
        fsync_directory(os.path.dirname(path))
        return checksum, size

    def _write_column(self, geo: str, values: np.ndarray) -> tuple[str, int]:
        return self._write_npy(self._column_path(geo), values)

    def _load_column(self, geo: str) -> np.ndarray:
        return np.load(
            self._column_path(geo), mmap_mode="r" if self.mmap else None
        )

    # -- the StudyCheckpoint protocol ----------------------------------------

    def save_state(self, result: StateResult, window: TimeWindow) -> None:
        """Persist one geography: column file first, then the manifest.

        The manifest entry doubles as the completion marker (exactly
        like the sqlite series row), so an interrupt between the two
        writes can never leave a checkpoint that looks complete.
        """
        digest, nbytes = self._write_column(result.geo, result.timeline.values)
        manifest = self._read_manifest()
        manifest["geos"][result.geo] = {
            "file": f"{SERIES_DIR}/{result.geo}.npy",
            "start": result.timeline.start.isoformat(),
            "hours": len(result.timeline),
            "dtype": "float64",
            "digest": digest,
            "bytes": nbytes,
            "meta": state_meta(result, window),
            "spikes": spikes_to_dicts(result.spikes),
        }
        self._write_manifest(manifest)

    def load_state(self, geo: str, window: TimeWindow) -> StateResult | None:
        entry = self._read_manifest()["geos"].get(geo)
        if entry is None:
            return None
        meta = entry["meta"]
        if not window_matches(meta, window):
            return None
        stitcher, averager = require_backend(
            meta, geo, self.stitcher, self.averager,
            DEFAULT_STITCHER, DEFAULT_AVERAGER,
        )
        return restore_state(
            term=self.term,
            geo=geo,
            start=datetime.fromisoformat(entry["start"]),
            values=self._load_column(geo),
            meta=meta,
            spikes=spikes_from_dicts(entry["spikes"]),
            stitcher=stitcher,
            averager=averager,
        )

    def save_annotated(self, spikes: SpikeSet) -> None:
        """Overwrite stored spikes with their final annotated versions."""
        manifest = self._read_manifest()
        by_geo: dict[str, list[dict]] = {}
        for spike in spikes:
            by_geo.setdefault(spike.geo, []).append(spike.to_dict())
        for geo, rows in by_geo.items():
            entry = manifest["geos"].get(geo)
            if entry is not None:
                entry["spikes"] = rows
        self._write_manifest(manifest)

    def completed_geos(self, window: TimeWindow) -> tuple[str, ...]:
        """Geographies checkpointed for *window* (sorted, manifest-only)."""
        manifest = self._read_manifest()
        return tuple(
            geo
            for geo in sorted(manifest["geos"])
            if window_matches(manifest["geos"][geo]["meta"], window)
        )

    # -- study-level summary --------------------------------------------------

    def record_summary(self, study: StudyResult) -> None:
        """Stamp study-wide results the per-geo entries cannot carry.

        With a summary recorded, :meth:`load_study` reproduces the
        original :class:`StudyResult` fingerprint exactly (annotated
        spikes, heavy hitters, resumed geographies and all).
        """
        manifest = self._read_manifest()
        manifest["study"] = {
            "window_start": study.window.start.isoformat(),
            "window_end": study.window.end.isoformat(),
            "heavy_hitters": list(study.heavy_hitters),
            "suggestion_stats": list(study.suggestion_stats),
            "resumed_geos": list(study.resumed_geos),
        }
        self._write_manifest(manifest)

    def load_study(
        self, window: TimeWindow | None = None, area: AreaConfig | None = None
    ) -> StudyResult:
        """Rebuild a full :class:`StudyResult` over memory-mapped columns.

        Outage grouping re-runs over the stored spikes (it is a pure
        deterministic function of them); timelines stay memory-mapped,
        so the load materializes no series values.
        """
        manifest = self._read_manifest()
        if not manifest["geos"]:
            raise DatabaseError(f"columnar store {self.root} holds no geographies")
        summary = manifest.get("study", {})
        if window is None:
            if "window_start" in summary:
                window = TimeWindow(
                    datetime.fromisoformat(summary["window_start"]),
                    datetime.fromisoformat(summary["window_end"]),
                )
            else:
                first = next(iter(sorted(manifest["geos"])))
                meta = manifest["geos"][first]["meta"]
                window = TimeWindow(
                    datetime.fromisoformat(meta["window_start"]),
                    datetime.fromisoformat(meta["window_end"]),
                )
        states: dict[str, StateResult] = {}
        all_spikes = []
        for geo in sorted(manifest["geos"]):
            result = self.load_state(geo, window)
            if result is None:
                raise DatabaseError(
                    f"geography {geo} in {self.root} does not cover "
                    f"{window.start.isoformat()}..{window.end.isoformat()}"
                )
            states[geo] = result
            all_spikes.extend(result.spikes)
        spike_set = SpikeSet(all_spikes)
        outages = group_outages(spike_set, area or AreaConfig())
        return StudyResult(
            window=window,
            spikes=spike_set,
            outages=outages,
            states=states,
            heavy_hitters=tuple(summary.get("heavy_hitters", ())),
            suggestion_stats=tuple(summary.get("suggestion_stats", (0, 0))),
            resumed_geos=tuple(summary.get("resumed_geos", ())),
        )

    # -- streaming checkpoints -------------------------------------------------

    def _stream_column_path(self, geo: str) -> str:
        return os.path.join(self.root, SERIES_DIR, f"{geo}.stream.npy")

    def save_stream(self, state: dict, columns: dict[str, np.ndarray]) -> None:
        """Persist a mid-stream daemon checkpoint: raw columns + state.

        The raw (pre-renormalization) stitched series land as
        ``series/<geo>.stream.npy`` side files; the JSON-safe *state*
        dict (stitcher export, claimed spike bounds, tick watermark)
        goes under the manifest's ``stream`` key.  Columns are written
        before the manifest, so — exactly like :meth:`save_state` — an
        interrupt can never leave a stream entry pointing at a missing
        or stale column.
        """
        manifest = self._read_manifest()
        stream_columns = dict(manifest.get("stream_columns", {}))
        for geo in sorted(columns):
            digest, nbytes = self._write_npy(
                self._stream_column_path(geo), columns[geo]
            )
            stream_columns[geo] = {
                "file": f"{SERIES_DIR}/{geo}.stream.npy",
                "digest": digest,
                "bytes": nbytes,
            }
        # Entries for geos absent from the new state are stale
        # (e.g. a narrowed stream): drop them with their state.
        stream_columns = {
            geo: info
            for geo, info in stream_columns.items()
            if geo in state.get("geos", {})
        }
        manifest["stream"] = state
        manifest["stream_columns"] = stream_columns
        self._write_manifest(manifest)

    def load_stream(self) -> dict | None:
        """The last streamed checkpoint state, or ``None`` when fresh."""
        return self._read_manifest().get("stream")

    def load_stream_column(self, geo: str) -> np.ndarray:
        """A materialized copy of one mid-stream raw series.

        Always a private in-memory array (never a memory map): the
        resumed stitcher takes ownership and keeps appending to it
        long after the store may have rewritten the side file.
        """
        values = np.load(self._stream_column_path(geo))
        return np.ascontiguousarray(values, dtype=np.float64)

    def clear_stream(self) -> None:
        """Drop the stream checkpoint (a finished stream needs none)."""
        manifest = self._read_manifest()
        dropped = manifest.pop("stream", None) is not None
        dropped |= manifest.pop("stream_columns", None) is not None
        if dropped:
            self._write_manifest(manifest)
        stream_dir = os.path.join(self.root, SERIES_DIR)
        for name in os.listdir(stream_dir):
            if name.endswith(".stream.npy"):
                os.remove(os.path.join(stream_dir, name))

    # -- integrity -------------------------------------------------------------

    def sweep_tmp(self) -> tuple[str, ...]:
        """Remove stale ``*.tmp`` files left behind by interrupted writes.

        Runs on open (crash recovery is the *normal* startup path, not
        an exceptional one): a tmp file that never reached its rename
        holds torn bytes and must not survive to confuse anything that
        globs the series directory.  Returns the store-relative paths
        removed.
        """
        swept: list[str] = []
        for directory in (self.root, os.path.join(self.root, SERIES_DIR)):
            if not os.path.isdir(directory):
                continue
            removed = False
            for name in sorted(os.listdir(directory)):
                if name.endswith(".tmp"):
                    os.remove(os.path.join(directory, name))
                    swept.append(
                        os.path.relpath(os.path.join(directory, name), self.root)
                    )
                    removed = True
            if removed:
                fsync_directory(directory)
        return tuple(swept)

    def _check_file(
        self,
        geo: str,
        relfile: str,
        entry: dict,
        damage: list[PartitionDamage],
    ) -> bool:
        """Hash one manifest-tracked file; append damage. True if hashed."""
        path = os.path.join(self.root, relfile)
        if not os.path.exists(path):
            damage.append(
                PartitionDamage(geo, relfile, "missing", "file absent on disk")
            )
            return False
        expected_digest = entry.get("digest")
        expected_bytes = entry.get("bytes")
        if expected_digest is None:  # legacy digest-less entry
            return False
        actual_digest, actual_bytes = digest_file(path)
        if expected_bytes is not None and actual_bytes != expected_bytes:
            kind = "truncated" if actual_bytes < expected_bytes else "digest-mismatch"
            damage.append(
                PartitionDamage(
                    geo,
                    relfile,
                    kind,
                    f"{actual_bytes} bytes on disk, manifest says "
                    f"{expected_bytes}",
                )
            )
        elif actual_digest != expected_digest:
            damage.append(
                PartitionDamage(
                    geo,
                    relfile,
                    "digest-mismatch",
                    "content hash does not match manifest",
                )
            )
        return True

    def verify(self, quarantine: bool = False) -> StoreVerification:
        """Re-hash every manifest-tracked column against its digest.

        Detects truncation, bit flips, and orphaned manifest entries
        (files missing on disk).  Entries written before digests
        existed are skipped — they cannot be verified, only trusted.

        With ``quarantine=True``, every damaged geography's files
        (study column *and* stream side file — a resume needs the pair
        consistent, so one bad half condemns both) are renamed to
        ``*.quarantine`` and the geography is stripped from the
        manifest and the stream checkpoint state; the stream state
        additionally records ``quarantined: {geo: kinds}`` so a
        resuming daemon knows those geographies were lost to damage —
        not dropped from the configuration — and re-crawls exactly
        them.  Everything undamaged remains servable untouched.
        """
        manifest = self._read_manifest()
        stream_columns = manifest.get("stream_columns", {})
        damage: list[PartitionDamage] = []
        checked = 0
        all_geos = sorted(set(manifest["geos"]) | set(stream_columns))
        for geo in all_geos:
            entry = manifest["geos"].get(geo)
            if entry is not None:
                checked += self._check_file(geo, entry["file"], entry, damage)
            stream_entry = stream_columns.get(geo)
            if stream_entry is not None:
                checked += self._check_file(
                    geo, stream_entry["file"], stream_entry, damage
                )
        damaged_geos = sorted({item.geo for item in damage})
        intact = tuple(geo for geo in all_geos if geo not in damaged_geos)
        quarantined: list[str] = []
        if quarantine and damaged_geos:
            moved: set[str] = set()
            stream_state = manifest.get("stream")
            for geo in damaged_geos:
                for relfile in (
                    f"{SERIES_DIR}/{geo}.npy",
                    f"{SERIES_DIR}/{geo}.stream.npy",
                ):
                    path = os.path.join(self.root, relfile)
                    if os.path.exists(path):
                        os.replace(path, path + ".quarantine")
                        moved.add(relfile)
                manifest["geos"].pop(geo, None)
                stream_columns.pop(geo, None)
                if stream_state is not None:
                    stream_state.get("geos", {}).pop(geo, None)
                    stream_state.setdefault("quarantined", {})[geo] = (
                        "; ".join(
                            sorted(
                                {
                                    item.kind
                                    for item in damage
                                    if item.geo == geo
                                }
                            )
                        )
                    )
                quarantined.append(geo)
            fsync_directory(os.path.join(self.root, SERIES_DIR))
            self._write_manifest(manifest)
            damage = [
                dataclasses.replace(
                    item, quarantined_to=item.file + ".quarantine"
                )
                if item.file in moved
                else item
                for item in damage
            ]
        return StoreVerification(
            checked=checked,
            intact=intact,
            damage=tuple(damage),
            quarantined=tuple(quarantined),
        )

    # -- shard partitions ------------------------------------------------------

    def partition(self, shard: int) -> "ColumnarStore":
        """A private store for one shard, inside this store's root."""
        return ColumnarStore(
            os.path.join(self.root, f".shard-{shard}"),
            term=self.term,
            stitcher=self.stitcher,
            averager=self.averager,
            mmap=self.mmap,
        )

    def merge_partition(self, root: str) -> None:
        """Absorb a shard partition: move its columns, merge its manifest.

        Partitions shard by geography so the merge is conflict-free;
        entries land geo-sorted in the rewritten manifest (dict order
        is insertion order, and the manifest is dumped with sorted
        keys anyway), making the merged store independent of shard
        completion order.  The partition directory is removed.
        """
        partition_manifest_path = os.path.join(root, MANIFEST)
        if not os.path.exists(partition_manifest_path):
            shutil.rmtree(root, ignore_errors=True)
            return  # a shard that resumed everything writes nothing
        with open(partition_manifest_path, encoding="utf-8") as handle:
            partition = json.load(handle)
        manifest = self._read_manifest()
        for geo in sorted(partition["geos"]):
            entry = partition["geos"][geo]
            os.replace(
                os.path.join(root, entry["file"]),
                self._column_path(geo),
            )
            entry["file"] = f"{SERIES_DIR}/{geo}.npy"
            manifest["geos"][geo] = entry
        fsync_directory(os.path.join(self.root, SERIES_DIR))
        self._write_manifest(manifest)
        shutil.rmtree(root, ignore_errors=True)

    # -- sqlite interop --------------------------------------------------------

    def import_database(self, database) -> tuple[str, ...]:
        """Copy every sqlite checkpoint for this term into the store.

        Returns the imported geographies.  The shared metadata record
        travels verbatim, so a resume from the imported store behaves
        exactly like a resume from the source database (including the
        backend-mismatch refusal).
        """
        imported = []
        for geo in database.series_geos(self.term):
            meta = database.load_series_meta(self.term, geo)
            series = database.load_series(self.term, geo)
            if meta is None or series is None:  # pragma: no cover - defensive
                continue
            start, values = series
            spikes = database.load_spikes(term=self.term, geo=geo)
            digest, nbytes = self._write_column(geo, values)
            manifest = self._read_manifest()
            manifest["geos"][geo] = {
                "file": f"{SERIES_DIR}/{geo}.npy",
                "start": start.isoformat(),
                "hours": int(values.size),
                "dtype": "float64",
                "digest": digest,
                "bytes": nbytes,
                "meta": meta,
                "spikes": spikes_to_dicts(spikes),
            }
            self._write_manifest(manifest)
            imported.append(geo)
        return tuple(imported)

    def export_database(self, database) -> tuple[str, ...]:
        """Copy every stored geography into a sqlite collection database."""
        manifest = self._read_manifest()
        exported = []
        for geo in sorted(manifest["geos"]):
            entry = manifest["geos"][geo]
            values = np.asarray(self._load_column(geo), dtype=np.float64)
            spikes = spikes_from_dicts(entry["spikes"])
            database.store_checkpoint(
                self.term,
                geo,
                datetime.fromisoformat(entry["start"]),
                values,
                entry["meta"],
                list(spikes),
            )
            exported.append(geo)
        return tuple(exported)

    # -- introspection ---------------------------------------------------------

    def geos(self) -> tuple[str, ...]:
        return tuple(sorted(self._read_manifest()["geos"]))

    def __len__(self) -> int:
        return len(self._read_manifest()["geos"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarStore({self.root!r}, term={self.term!r}, geos={len(self)})"
