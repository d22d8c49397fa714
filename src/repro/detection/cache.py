"""The shared detection cache: one detector call serves every query, forever.

The paper's whole premise is that detector invocations are the scarce
resource (§I); :mod:`repro.core.multiquery` already shares one call across
queries running *concurrently*.  This module extends the sharing across
query *lifetimes*: every detector output is stored under
``(dataset, frame_index)``, so a query submitted tomorrow pays nothing for
any frame ever detected — it can re-read the boxes, feed them through its
own discriminator, and even warm-start its per-chunk ``(N1, n)`` beliefs
(see :func:`repro.serving.session.replay_cached_frames`) without touching
the GPU.

Three pieces:

* :class:`DetectionCache` — the facade: hit/miss accounting plus the
  encoding of :class:`~repro.detection.detector.Detection` values into
  plain JSON-able rows, over a pluggable storage backend;
* backends — :class:`InMemoryBackend` (per-process),
  :class:`SqliteBackend` (on disk, surviving process restarts — the
  substrate of ``python -m repro serve``'s state directory) and
  :class:`TieredBackend` (a bounded LRU memory tier over either);
* :class:`CachingDetector` — a :class:`~repro.detection.detector.Detector`
  that consults the cache before the wrapped detector, and
  :class:`CategoryFilterDetector`, the per-query view of a shared
  all-category detector.

Storage is batch-only, on the backends and the facade alike:
``get_many``/``put_many`` are the only reads and writes, one backend
round-trip per batch, and a single frame is a one-element batch.  A
warm start or a restore replays all of a session's cached frames in one
``get_many`` (:func:`~repro.serving.session.replay_cached_frames`).

Detections are cached *unfiltered* (``category=None`` detectors), because
a frame's boxes for every category cost the same one invocation — caching
a filtered subset would poison later queries for other categories.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .. import telemetry
from ..video.geometry import Box
from .detector import Detection, Detector, DetectorStats
from .execution import batch_detect

__all__ = [
    "CacheStats",
    "TierStats",
    "CacheBackend",
    "InMemoryBackend",
    "SqliteBackend",
    "TieredBackend",
    "DetectionCache",
    "CachingDetector",
    "CategoryFilterDetector",
]


@dataclass
class CacheStats:
    """Lookup accounting; ``hits`` are detector invocations avoided.

    ``last_batch_hits``/``last_batch_misses`` carry the exact split of
    the most recent :meth:`DetectionCache.get_many` call — the per-batch
    observability the cumulative totals cannot provide (a partial-hit
    batch is invisible inside a long-running total).
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    batches: int = 0
    last_batch_hits: int = 0
    last_batch_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.batches = 0
        self.last_batch_hits = 0
        self.last_batch_misses = 0


# ---------------------------------------------------------------- encoding

def _encode(detections: Sequence[Detection]) -> list[dict]:
    return [
        {
            "frame": det.frame_index,
            "box": [det.box.x1, det.box.y1, det.box.x2, det.box.y2],
            "category": det.category,
            "score": det.score,
            "instance": det.true_instance_id,
        }
        for det in detections
    ]


def _decode(rows: Iterable[dict]) -> tuple[Detection, ...]:
    return tuple(
        Detection(
            frame_index=int(row["frame"]),
            box=Box(*(float(v) for v in row["box"])),
            category=str(row["category"]),
            score=float(row["score"]),
            true_instance_id=(
                None if row["instance"] is None else int(row["instance"])
            ),
        )
        for row in rows
    )


# ---------------------------------------------------------------- backends

class CacheBackend(Protocol):
    """Storage for JSON-able detection rows keyed by (dataset, frame).

    Storage is batch-only: ``get_many``/``put_many`` make one storage
    round-trip per batch, and a single frame is the one-element batch.
    ``get_many`` returns one entry per input frame (``None`` on a miss).
    """

    def get_many(
        self, dataset: str, frame_indices: Sequence[int]
    ) -> list[list[dict] | None]:  # pragma: no cover
        ...

    def put_many(
        self, dataset: str, items: Sequence[tuple[int, list[dict]]]
    ) -> None:  # pragma: no cover
        ...

    def frames(self, dataset: str) -> list[int]:  # pragma: no cover
        ...

    def clear(self) -> None:  # pragma: no cover
        ...

    def __len__(self) -> int:  # pragma: no cover
        ...

    def flush(self) -> None:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover
        ...


class InMemoryBackend:
    """Plain dict storage; the default for single-process services.

    Frame keys are coerced to ``int`` on every path (the facade does the
    same), so a numpy integer or bool-ish index can never write a key
    that a later plain-``int`` lookup misses.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[str, int], list[dict]] = {}

    def get_many(
        self, dataset: str, frame_indices: Sequence[int]
    ) -> list[list[dict] | None]:
        return [self._rows.get((dataset, int(f))) for f in frame_indices]

    def put_many(self, dataset: str, items: Sequence[tuple[int, list[dict]]]) -> None:
        for frame_index, rows in items:
            self._rows[(dataset, int(frame_index))] = rows

    def frames(self, dataset: str) -> list[int]:
        return sorted(f for (d, f) in self._rows if d == dataset)

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class SqliteBackend:
    """One-table sqlite storage; survives restarts, supports indexed lookups
    without loading the whole cache (the right backend for long-lived
    state directories).

    Writes are batched: ``put_many`` does not commit — the transaction lands
    on ``flush()`` (which the service calls once per tick) or ``close()``.
    One fsync per scheduling quantum instead of one per detector call,
    matching the durability the state layer promises (losing at most the
    tick in flight).
    """

    def __init__(self, path: str | pathlib.Path):
        self._path = pathlib.Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._conn = sqlite3.connect(self._path)
        # WAL lets concurrent processes (shard workers, a follow server
        # next to an out-of-band submitter) read while one writes instead
        # of serializing on the rollback journal; synchronous=NORMAL
        # drops the per-commit fsync to one per WAL checkpoint — safe
        # here because the cache is rebuildable (a lost tail costs
        # re-detection, never answers) and WAL commits stay torn-proof
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS detections ("
                "dataset TEXT NOT NULL, frame INTEGER NOT NULL, payload TEXT NOT NULL, "
                "PRIMARY KEY (dataset, frame))"
            )
            self._conn.commit()
        except sqlite3.DatabaseError:
            # connect() is lazy: a file that is not a database fails here,
            # with the handle already open and no object left to close it
            self._conn.close()
            raise

    @property
    def path(self) -> pathlib.Path:
        return self._path

    def get_many(
        self, dataset: str, frame_indices: Sequence[int]
    ) -> list[list[dict] | None]:
        # int() before binding: sqlite stores what it is handed, so a
        # numpy int put raw would create a row a plain-int lookup misses
        frames = [int(f) for f in frame_indices]
        if not frames:
            return []
        found: dict[int, list[dict]] = {}
        unique = list(dict.fromkeys(frames))
        for lo in range(0, len(unique), 500):  # stay under SQLite's host-parameter cap
            group = unique[lo : lo + 500]
            placeholders = ",".join("?" * len(group))
            rows = self._conn.execute(
                f"SELECT frame, payload FROM detections "
                f"WHERE dataset = ? AND frame IN ({placeholders})",
                (dataset, *group),
            ).fetchall()
            found.update((int(frame), json.loads(payload)) for frame, payload in rows)
        return [found.get(f) for f in frames]

    def put_many(self, dataset: str, items: Sequence[tuple[int, list[dict]]]) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO detections (dataset, frame, payload) VALUES (?, ?, ?)",
            [(dataset, int(frame), json.dumps(rows)) for frame, rows in items],
        )

    def frames(self, dataset: str) -> list[int]:
        rows = self._conn.execute(
            "SELECT frame FROM detections WHERE dataset = ? ORDER BY frame",
            (dataset,),
        ).fetchall()
        return [int(r[0]) for r in rows]

    def clear(self) -> None:
        self._conn.execute("DELETE FROM detections")
        self._conn.commit()

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM detections").fetchone()[0])

    def flush(self) -> None:
        if self._closed:  # a flush after close has nothing left to commit
            return
        self._conn.commit()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.commit()
        self._conn.close()


@dataclass
class TierStats:
    """Memory-tier accounting for :class:`TieredBackend`.

    ``hits``/``misses`` describe the *tier* only — a tier miss that the
    backing store answers is still a tier miss (it cost a backend
    round-trip, which is exactly what the tier exists to avoid).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class TieredBackend:
    """A bounded LRU memory tier, optionally fronting a persistent backend.

    The unbounded backends trade memory for detector calls without limit;
    long-lived deployments need the trade bounded.  This backend keeps the
    hottest entries in memory under an entry budget and (when
    ``backing`` is given) writes every put *through* to the
    persistent store, so eviction only ever drops the memory copy — a
    later lookup falls through to the backing store and is re-admitted.
    With no backing store, eviction loses the entry entirely and the
    caller re-detects: by the serving layer's core invariant (sampling
    decisions never depend on cache contents) that costs detector calls,
    never answers — the contract ``tests/test_cache_tiering.py`` pins.

    Policy is plain LRU (dict insertion order, touched on hit).  ARC was
    considered and rejected: its ghost lists buy hit rate on scan-heavy
    mixes this workload does not produce (lookups are Thompson-sampled,
    heavily skewed toward hot chunks), and LRU keeps eviction decisions
    trivially auditable in tests.

    A zero budget is legal and admits nothing (every lookup falls
    through).
    """

    def __init__(
        self,
        backing: CacheBackend | None = None,
        *,
        max_entries: int | None = None,
    ):
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self._backing = backing
        self._max_entries = max_entries
        self._tier: dict[tuple[str, int], list[dict]] = {}
        self.tier_stats = TierStats()
        # telemetry deltas since the last drain: tier hits, tier misses,
        # evictions (same pattern as the facade: the tier sits on the
        # per-frame path, so the registry is only touched at durability
        # points — see DetectionCache._record)
        self._tel_pending = [0, 0, 0]

    @property
    def backing(self) -> CacheBackend | None:
        return self._backing

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    @property
    def tier_entries(self) -> int:
        return len(self._tier)

    # ------------------------------------------------------------- tier core

    def _touch(self, key: tuple[str, int]) -> list[dict]:
        """Move a resident key to the LRU tail and return its rows."""
        rows = self._tier.pop(key)
        self._tier[key] = rows
        return rows

    def _admit(self, key: tuple[str, int], rows: list[dict]) -> None:
        if self._max_entries == 0:
            return  # a zero budget stores nothing, by definition
        self._tier.pop(key, None)  # a re-put moves to the LRU tail
        self._tier[key] = rows
        while self._max_entries is not None and len(self._tier) > self._max_entries:
            self._tier.pop(next(iter(self._tier)))
            self.tier_stats.evictions += 1
            if telemetry.get().enabled:
                self._tel_pending[2] += 1

    def _note(self, hits: int, misses: int) -> None:
        self.tier_stats.hits += hits
        self.tier_stats.misses += misses
        if telemetry.get().enabled:
            self._tel_pending[0] += hits
            self._tel_pending[1] += misses

    def _drain_telemetry(self) -> None:
        pending = self._tel_pending
        tel = telemetry.get()
        if tel.enabled:
            if pending[0]:
                tel.counter("repro_cache_tier_hits_total").inc(pending[0])
            if pending[1]:
                tel.counter("repro_cache_tier_misses_total").inc(pending[1])
            if pending[2]:
                tel.counter("repro_cache_tier_evictions_total").inc(pending[2])
            tel.gauge("repro_cache_tier_entries").set(len(self._tier))
        self._tel_pending = [0, 0, 0]

    # -------------------------------------------------------------- protocol

    def get_many(
        self, dataset: str, frame_indices: Sequence[int]
    ) -> list[list[dict] | None]:
        frames = [int(f) for f in frame_indices]
        out: list[list[dict] | None] = [None] * len(frames)
        missing: dict[int, None] = {}
        hits = 0
        for pos, frame in enumerate(frames):
            key = (dataset, frame)
            if key in self._tier:
                out[pos] = self._touch(key)
                hits += 1
            else:
                missing[frame] = None
        self._note(hits, len(frames) - hits)
        if missing and self._backing is not None:
            unique = list(missing)
            found = dict(zip(unique, self._backing.get_many(dataset, unique)))
            for pos, frame in enumerate(frames):
                if out[pos] is None and found.get(frame) is not None:
                    out[pos] = found[frame]
            for frame in unique:  # admit in lookup order, once per frame
                if found.get(frame) is not None:
                    self._admit((dataset, frame), found[frame])
        return out

    def put_many(self, dataset: str, items: Sequence[tuple[int, list[dict]]]) -> None:
        coerced = [(int(frame), rows) for frame, rows in items]
        if self._backing is not None:  # write-through: eviction is lossless
            self._backing.put_many(dataset, coerced)
        for frame, rows in coerced:
            self._admit((dataset, frame), rows)

    def frames(self, dataset: str) -> list[int]:
        if self._backing is not None:
            return self._backing.frames(dataset)
        return sorted(f for (d, f) in self._tier if d == dataset)

    def clear(self) -> None:
        self._tier.clear()
        self._drain_telemetry()
        if self._backing is not None:
            self._backing.clear()

    def __len__(self) -> int:
        if self._backing is not None:
            return len(self._backing)
        return len(self._tier)

    def flush(self) -> None:
        self._drain_telemetry()
        if self._backing is not None:
            self._backing.flush()

    def close(self) -> None:
        self._drain_telemetry()
        if self._backing is not None:
            self._backing.close()


# ------------------------------------------------------------------ facade

# telemetry delta rows a cache keeps before folding them into one
_FOLD_ROWS = 64


def _column_sums(rows):
    return tuple(sum(column) for column in zip(*rows))


class DetectionCache:
    """Detector outputs keyed by ``(dataset, frame_index)``.

    The cache stores complete per-frame detection lists (an empty list is
    a valid, cacheable outcome — "the detector saw nothing" is exactly as
    expensive to recompute as a full frame).
    """

    def __init__(self, backend: CacheBackend | None = None):
        self._backend = backend if backend is not None else InMemoryBackend()
        self._backend_label = type(self._backend).__name__
        self.stats = CacheStats()
        # telemetry deltas since the last drain, one row per round-trip:
        # (hits, misses, inserts, get round-trips, put round-trips)
        self._tel_pending: list[tuple[int, int, int, int, int]] = []
        self._tel_handles: tuple | None = None

    @property
    def backend(self) -> CacheBackend:
        return self._backend

    def _record(self, deltas: tuple[int, int, int, int, int]) -> None:
        """Keep one backend round-trip's telemetry deltas, a row of
        ``_tel_pending``.

        The cache sits on the per-frame serving path, so events are not
        mirrored into the registry one by one: while telemetry is
        enabled their rows wait here (one append each, summed at the
        drain) and are pushed by :meth:`flush` / :meth:`clear` /
        :meth:`close` — one registry drain per durability point (the
        service flushes once per tick).
        """
        if telemetry.get().enabled:
            pending = self._tel_pending
            pending.append(deltas)
            if len(pending) >= _FOLD_ROWS:  # a cache nobody flushes stays bounded
                self._tel_pending = [_column_sums(pending)]

    def _drain_telemetry(self) -> None:
        """Push accumulated deltas into the active registry.

        Deltas from a pipeline that was disabled before the drain are
        discarded, so a snapshot only ever describes events recorded —
        and drained — while its own pipeline was live.  Instrument
        handles are memoized per pipeline.
        """
        if not self._tel_pending:
            return
        pending = _column_sums(self._tel_pending)
        tel = telemetry.get()
        if tel.enabled:
            memo = self._tel_handles
            if memo is None or memo[0] is not tel:
                handles = (
                    tel.counter("repro_cache_hits_total"),
                    tel.counter("repro_cache_misses_total"),
                    tel.counter("repro_cache_inserts_total"),
                    tel.counter(
                        "repro_cache_backend_roundtrips_total",
                        {"backend": self._backend_label, "op": "get"},
                    ),
                    tel.counter(
                        "repro_cache_backend_roundtrips_total",
                        {"backend": self._backend_label, "op": "put"},
                    ),
                )
                self._tel_handles = memo = (tel, handles)
            for counter, amount in zip(memo[1], pending):
                if amount:
                    counter.inc(amount)
        self._tel_pending = []

    def get_many(
        self, dataset: str, frame_indices: Sequence[int]
    ) -> list[tuple[Detection, ...] | None]:
        """Cached detections per input frame (``None`` on a miss), in one
        backend round-trip.

        Frame keys are coerced to plain ``int`` by every backend: a numpy
        integer or bool addresses the same entry as its ``int`` value.

        The partial-hit split is accounted *exactly, per batch*: the
        batch's hit/miss counts are computed in one pass and recorded
        atomically into :attr:`stats` (``last_batch_hits`` /
        ``last_batch_misses`` plus the cumulative totals), so an observer
        polling between batches always sees a consistent split rather
        than a mid-batch interleaving.
        """
        out: list[tuple[Detection, ...] | None] = [
            None if rows is None else _decode(rows)
            for rows in self._backend.get_many(dataset, list(frame_indices))
        ]
        batch_hits = sum(1 for item in out if item is not None)
        batch_misses = len(out) - batch_hits
        self.stats.hits += batch_hits
        self.stats.misses += batch_misses
        self.stats.batches += 1
        self.stats.last_batch_hits = batch_hits
        self.stats.last_batch_misses = batch_misses
        self._record((batch_hits, batch_misses, 0, 1, 0))
        return out

    def put_many(
        self,
        dataset: str,
        items: Sequence[tuple[int, Sequence[Detection]]],
    ) -> None:
        """Store each ``(frame, detections)`` pair in one backend round-trip."""
        encoded = [(int(frame), _encode(dets)) for frame, dets in items]
        self._backend.put_many(dataset, encoded)
        self.stats.inserts += len(encoded)
        self._record((0, 0, len(encoded), 0, 1))

    def frames(self, dataset: str) -> list[int]:
        """Sorted frame indices cached for ``dataset`` — the replay order
        for warm-starting new sessions (sorted so it is independent of
        insertion interleaving across sessions)."""
        return self._backend.frames(dataset)

    def __len__(self) -> int:
        return len(self._backend)

    def clear(self) -> None:
        """Drop every cached detection (all datasets) and reset accounting.

        A correctness no-op by design: sampling decisions never depend on
        cache contents, so dropping the cache costs detector calls but
        cannot change any query's answer — the property the simulation
        harness's cache-drop fault asserts.  :attr:`stats` is reset along
        with the contents: hit rates computed after a clear describe the
        post-clear population, so a simulation cache-drop fault cannot
        corrupt them with pre-drop history.
        """
        self._drain_telemetry()  # pre-drop deltas still count, cumulatively
        self._backend.clear()
        self.stats.reset()
        tel = telemetry.get()
        if tel.enabled:
            tel.counter("repro_cache_clears_total").inc()

    def flush(self) -> None:
        """Make buffered writes durable (the service calls this per tick)."""
        self._drain_telemetry()
        self._backend.flush()

    def close(self) -> None:
        self._drain_telemetry()
        self._backend.close()


# --------------------------------------------------------------- detectors

class CachingDetector:
    """A detector that consults a :class:`DetectionCache` before the GPU.

    Conforms to the :class:`~repro.detection.detector.Detector` protocol:
    ``stats`` counts frames *served* (hit or miss), while the wrapped
    detector's own stats keep counting real invocations —
    :attr:`detector_calls` is the number the paper's cost model charges.
    """

    def __init__(self, detector: Detector, cache: DetectionCache, dataset: str):
        self._detector = detector
        self._cache = cache
        self._dataset = dataset
        self.stats = DetectorStats()

    @property
    def wrapped(self) -> Detector:
        return self._detector

    @property
    def cache(self) -> DetectionCache:
        return self._cache

    @property
    def dataset(self) -> str:
        return self._dataset

    @property
    def detector_calls(self) -> int:
        """Real (cache-missing) invocations of the wrapped detector."""
        return self._detector.stats.frames_processed

    def detect(self, frame_index: int) -> list[Detection]:
        return self.detect_many([frame_index])[0]

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        """Detections per input frame, with partial-hit splitting.

        One cache round-trip answers the hits; the misses (deduplicated,
        in first-seen order) go to the wrapped detector as **one** batch
        call and land in the cache as one batch write.  Results align
        with the input frames; :meth:`detect` is the one-frame case.
        """
        frames = [int(f) for f in frame_indices]
        self.stats.frames_processed += len(frames)
        cached = self._cache.get_many(self._dataset, frames)
        miss_occurrences = sum(1 for hit in cached if hit is None)
        missing = list(
            dict.fromkeys(f for f, hit in zip(frames, cached) if hit is None)
        )
        if miss_occurrences > len(missing):
            tel = telemetry.get()
            if tel.enabled:  # duplicate misses collapsed into one detector call
                tel.counter("repro_cache_dedup_saved_total").inc(
                    miss_occurrences - len(missing)
                )
        fresh: dict[int, list[Detection]] = {}
        if missing:
            detected = batch_detect(self._detector, missing)
            self._cache.put_many(self._dataset, list(zip(missing, detected)))
            fresh = dict(zip(missing, detected))
        out = [
            list(hit) if hit is not None else list(fresh[f])
            for f, hit in zip(frames, cached)
        ]
        self.stats.detections_emitted += sum(len(d) for d in out)
        return out


class CategoryFilterDetector:
    """A per-query view of a shared all-category detector.

    The shared serving detector runs with ``category=None`` (every box in
    the frame for one invocation); each session sees only its own
    category's boxes, exactly as
    :class:`~repro.core.multiquery.MultiQueryExSample` filters detections
    per query.  ``stats`` counts the frames *this* view requested.
    """

    def __init__(self, detector: Detector, category: str):
        self._detector = detector
        self._category = category
        self.stats = DetectorStats()

    @property
    def category(self) -> str:
        return self._category

    def detect(self, frame_index: int) -> list[Detection]:
        return self.detect_many([frame_index])[0]

    def detect_many(self, frame_indices: Sequence[int]) -> list[list[Detection]]:
        frames = [int(f) for f in frame_indices]
        self.stats.frames_processed += len(frames)
        out = [
            [d for d in detections if d.category == self._category]
            for detections in batch_detect(self._detector, frames)
        ]
        self.stats.detections_emitted += sum(len(d) for d in out)
        return out
