"""State-directory persistence: a service that outlives its process.

A state directory is the on-disk form of a :class:`QueryService`:

    state/
      service.json        # dataset build config (scale, seed, ...)
      cache.sqlite        # the shared detection cache (SqliteBackend)
      ingest.jsonl        # live-ingestion journal (repro.serving.ingest)
      tenants.json        # session -> tenant ledger (written by a drain)
      sessions/s1.json    # one SessionSnapshot per session
      sessions/s2.json

``python -m repro submit`` appends a pending snapshot without doing any
work; ``serve`` and ``server`` turn the directory back into a running
service through :func:`boot`, run it, and write the snapshots back.
Because snapshots are replayed against the cache (see
:mod:`repro.serving.session`), stopping the process at any tick loses
nothing but the tick in flight.

There is one way in.  :func:`boot` reads (or records) the build config,
opens the cache, builds the service and calls :func:`absorb`;
:func:`absorb` replays the journal tail and restores the snapshots the
service does not hold yet, so the same function is the start-up restore
(:func:`restore_state`, from an empty service and cursor 0) and the
``serve --follow`` poll (from wherever the last call left off).
"""

from __future__ import annotations

import json
import pathlib
import re
import sqlite3
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..detection.cache import DetectionCache, SqliteBackend, TieredBackend
from ..video.datasets import build_dataset, dataset_names, scaled_chunk_frames
from ..video.repository import VideoRepository, empty_repository
from . import ingest
from .scheduler import SCHEDULERS
from .service import QueryService
from .session import SessionSnapshot, SessionState, StateError

__all__ = [
    "CACHE_FILENAME",
    "CONFIG_FILENAME",
    "TENANTS_FILENAME",
    "Boot",
    "StateError",
    "absorb",
    "boot",
    "load_or_init_config",
    "load_snapshots",
    "load_tenants",
    "next_session_id",
    "restore_state",
    "save_sessions",
    "save_tenants",
    "write_snapshot",
]


CONFIG_FILENAME = "service.json"
CACHE_FILENAME = "cache.sqlite"
TENANTS_FILENAME = "tenants.json"
_SESSIONS_DIR = "sessions"
_SID_PATTERN = re.compile(r"^s(\d+)$")


def _sessions_dir(directory: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(directory) / _SESSIONS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_mapping(path: pathlib.Path, what: str) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise StateError(f"corrupt {what} file {path.name}: {exc}") from exc
    return data


def _write_json(path: pathlib.Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def load_or_init_config(directory: str | pathlib.Path, **defaults) -> dict:
    """Read the directory's service config, creating it from ``defaults``
    on first use.  The stored config wins thereafter, so every process
    touching the directory builds identical repositories."""
    path = pathlib.Path(directory) / CONFIG_FILENAME
    if path.exists():
        return _read_mapping(path, "config")
    _write_json(path, defaults)
    return dict(defaults)


def load_tenants(directory: str | pathlib.Path) -> dict[str, str]:
    """The session -> tenant ledger a drained server left behind (empty
    when none did): what keeps quota accounting across a restart."""
    path = pathlib.Path(directory) / TENANTS_FILENAME
    if not path.exists():
        return {}
    return {str(k): str(v) for k, v in _read_mapping(path, "tenant ledger").items()}


def save_tenants(directory: str | pathlib.Path, tenants: Mapping[str, str]) -> None:
    _write_json(pathlib.Path(directory) / TENANTS_FILENAME, dict(sorted(tenants.items())))


def next_session_id(directory: str | pathlib.Path) -> str:
    """The next free ``sN`` id given the snapshots already on disk."""
    highest = 0
    for path in _sessions_dir(directory).glob("*.json"):
        match = _SID_PATTERN.match(path.stem)
        if match:
            highest = max(highest, int(match.group(1)))
    return f"s{highest + 1}"


def write_snapshot(
    directory: str | pathlib.Path, snapshot: SessionSnapshot
) -> pathlib.Path:
    path = _sessions_dir(directory) / f"{snapshot.session_id}.json"
    _write_json(path, snapshot.to_dict())
    return path


def load_snapshots(directory: str | pathlib.Path) -> list[SessionSnapshot]:
    """All stored snapshots, in session-id order."""
    snapshots = []
    for path in sorted(
        _sessions_dir(directory).glob("*.json"),
        key=lambda p: (
            int(_SID_PATTERN.match(p.stem).group(1))
            if _SID_PATTERN.match(p.stem)
            else 1 << 30,
            p.stem,
        ),
    ):
        try:
            snapshots.append(
                SessionSnapshot.from_dict(json.loads(path.read_text(encoding="utf-8")))
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise StateError(f"corrupt snapshot file {path.name}: {exc}") from exc
    return snapshots


def save_sessions(
    service: QueryService, directory: str | pathlib.Path
) -> list[pathlib.Path]:
    """Write every live session's snapshot back to the directory."""
    return [
        write_snapshot(directory, snapshot) for snapshot in service.snapshot_all()
    ]


# --------------------------------------------------------------------- boot

def _dataset_factory(scale: float, seed: int) -> Callable[[str], VideoRepository]:
    """What a dataset name means to a served process: profile names
    build the calibrated synthetic dataset, anything else is a *live*
    dataset that starts empty and exists only through the ingestion
    journal.  One function for start-up and for names met mid-run, so
    the two cannot disagree."""
    profiles = set(dataset_names())

    def build(name: str) -> VideoRepository:
        if name in profiles:
            return build_dataset(name, categories=None, scale=scale, seed=seed)
        return empty_repository(name)

    return build


def absorb(
    service: QueryService,
    directory: str | pathlib.Path,
    seed: int,
    cursor: int,
    factory: Callable[[str], VideoRepository],
) -> int:
    """Bring ``service`` up to date with its state directory; returns
    the new journal cursor.

    The journal tail (entries from ``cursor`` on) is applied *before*
    any snapshot is restored: horizon-logged snapshots replay against
    the clip sequence their live runs absorbed.  Then every snapshot the
    service does not hold is restored — all of them at start-up, only
    submissions that arrived since on a follow poll.  A dataset neither
    has seen yet is registered from ``factory``; sealed (terminal)
    snapshots restore without a repository, so a dataset only they name
    is never built.
    """
    cursor = ingest.apply_journal(
        service, directory, seed, cursor, on_missing_dataset=factory
    )
    held = service.sessions
    fresh = [s for s in load_snapshots(directory) if s.session_id not in held]
    for snapshot in fresh:
        if not SessionState(snapshot.state).terminal:
            ingest.ensure_dataset(service, snapshot.dataset, factory)
    service.restore_many(fresh)
    return cursor


def restore_state(
    service: QueryService,
    directory: str | pathlib.Path,
    base_seed: int,
    factory: Callable[[str], VideoRepository] | None = None,
) -> int:
    """Load a state directory into a fresh service — :func:`absorb` from
    the start of the journal — and return the cursor to continue from.
    Unknown datasets start empty unless ``factory`` says otherwise."""
    return absorb(service, directory, base_seed, 0, factory or empty_repository)


@dataclass(frozen=True)
class Boot:
    """A booted service and what its owner needs to keep it in step with
    the state directory: the effective seed, the journal cursor, and the
    dataset factory (all three feed :func:`absorb` and the server's
    ``ingest`` op)."""

    service: QueryService
    seed: int
    cursor: int
    factory: Callable[[str], VideoRepository]


def boot(
    directory: str | pathlib.Path | None,
    datasets: Iterable[str] = (),
    *,
    scale: float = 0.05,
    seed: int = 0,
    shards: int | None = None,
    cache_budget: int | None = None,
    scheduler: str = "round-robin",
    **service_options,
) -> Boot:
    """Turn an (optional) state directory plus execution flags into a
    ready :class:`QueryService` — the one start-up path ``serve`` and
    ``server`` share.

    With a directory, its ``service.json`` is read (or recorded from the
    arguments on first touch) and its scale/seed win; ``shards`` and
    ``cache_budget`` left as ``None`` take the recorded defaults (so
    ``submit --shards N`` makes every later run shard without repeating
    the flag), the cache is the directory's sqlite store — behind a
    bounded memory tier when a budget applies — and the journal and
    snapshots are absorbed.  ``datasets`` are registered up front;
    every other dataset appears when the journal, a snapshot or a wire
    op first names it.  ``service_options`` pass through to
    :class:`QueryService` (``frames_per_tick``, ``batch_size``,
    ``detector_latency``).

    Raises :class:`StateError` (or ``JournalError``) for a directory that
    cannot be served as asked; the caller owns ``Boot.service.close()``.
    """
    cache = None
    if directory is not None:
        directory = pathlib.Path(directory)
        config = load_or_init_config(
            directory, scale=scale, seed=seed, shards=shards or 1,
            cache_budget=cache_budget,
        )
        try:
            scale, seed = float(config["scale"]), int(config["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(
                f"corrupt config file {CONFIG_FILENAME}: scale/seed unusable ({exc!r})"
            ) from exc
        if shards is None:
            shards = int(config.get("shards", 1) or 1)
        if cache_budget is None and config.get("cache_budget") is not None:
            cache_budget = int(config["cache_budget"])
        try:
            backend = SqliteBackend(directory / CACHE_FILENAME)
        except sqlite3.DatabaseError as exc:
            raise StateError(f"corrupt cache file {CACHE_FILENAME}: {exc}") from exc
        if cache_budget is not None:
            # a bounded memory tier over the persistent store: eviction
            # drops only the memory copy, sqlite keeps every detection
            backend = TieredBackend(backend, max_entries=cache_budget)
        cache = DetectionCache(backend)
    shards = shards or 1
    factory = _dataset_factory(scale, seed)
    service = QueryService(
        {name: factory(name) for name in dict.fromkeys(datasets)},
        cache=cache,
        scheduler=SCHEDULERS[scheduler](),
        # every profile, not just the ones built now: a profile dataset
        # first named mid-run must chunk exactly as it will after a restart
        chunk_frames={name: scaled_chunk_frames(name, scale) for name in dataset_names()},
        execution="sharded" if shards > 1 else "local",
        shards=shards,
        cache_budget=cache_budget,
        seed=seed,
        **service_options,
    )
    try:
        cursor = 0
        if directory is not None:
            cursor = restore_state(service, directory, seed, factory)
    except BaseException:
        service.close()  # shard workers, the sqlite handle
        raise
    return Boot(service, seed, cursor, factory)
