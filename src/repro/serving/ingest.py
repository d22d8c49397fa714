"""The ingestion journal: durable, deterministic live footage.

A deployed service ingests clips while queries run.  In this synthetic
reproduction a clip's *content* is generated, so what must be durable is
not pixels but the generation recipe: the journal — ``ingest.jsonl``
inside a serving state directory — records one :class:`IngestEntry` per
``python -m repro ingest`` invocation, append-only.  Any process that
replays the journal over the same base repositories (same config scale
and seed) materializes byte-identical clips and ground truth, which is
what keeps three properties intact across restarts:

* **cache validity** — a journal-replayed frame has exactly the content
  it had when its detections were cached, so ``(dataset, frame)`` keys
  never go stale;
* **snapshot exactness** — restored sessions replay their horizon logs
  against the same clip sequence the live run absorbed;
* **parity** — a query served while the journal grew converges to the
  same answer as one served after the journal was fully applied.

The journal names datasets freely: a profile name extends that synthetic
dataset, any other name denotes a *live* dataset that starts as an empty
repository and exists only through its journal entries.
"""

from __future__ import annotations

import json
import pathlib
import zlib
from dataclasses import asdict, dataclass

from .. import telemetry
from ..core.rng import DecisionRng
from ..video.synthetic import place_instances

__all__ = [
    "INGEST_FILENAME",
    "IngestEntry",
    "JournalError",
    "RepositoryFeeder",
    "journal_path",
    "append_entry",
    "load_entries",
    "apply_entry",
    "apply_journal",
    "ensure_dataset",
]

INGEST_FILENAME = "ingest.jsonl"


class JournalError(ValueError):
    """A journal line that cannot be parsed.

    Raised only for *committed* (newline-terminated) lines: those were
    acknowledged appends, so garbage there is real corruption the
    operator must see.  A torn final line without its newline is the
    signature of a crash mid-append — an append that was never
    acknowledged — and is silently ignored by :func:`load_entries`
    (and truncated away by the next :func:`append_entry`), which is what
    keeps every process that reads the journal agreeing on the entry
    sequence no matter where a writer died.
    """


@dataclass(frozen=True)
class IngestEntry:
    """One journal line: a batch of synthetic clips to append.

    ``frames`` and ``instances`` are *per clip* — an entry with
    ``clips=3`` appends three clips of ``frames`` frames, each holding
    ``instances`` fresh instances of ``category`` (zero instances, or no
    category, appends object-free footage).  ``fps=None`` inherits the
    dataset's current frame rate.
    """

    dataset: str
    frames: int
    clips: int = 1
    category: str | None = None
    instances: int = 0
    mean_duration: float = 60.0
    skew_fraction: float | None = None
    fps: float | None = None

    def __post_init__(self) -> None:
        if self.frames <= 0:
            raise ValueError("frames per clip must be positive")
        if self.clips <= 0:
            raise ValueError("clips must be positive")
        if self.instances < 0:
            raise ValueError("instances must be non-negative")
        if self.instances > 0 and self.category is None:
            raise ValueError("instances need a category")
        if self.mean_duration <= 0:
            raise ValueError("mean_duration must be positive")
        if self.fps is not None and self.fps <= 0:
            raise ValueError("fps must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "IngestEntry":
        return IngestEntry(
            dataset=str(data["dataset"]),
            frames=int(data["frames"]),
            clips=int(data.get("clips", 1)),
            category=(
                None if data.get("category") is None else str(data["category"])
            ),
            instances=int(data.get("instances", 0)),
            mean_duration=float(data.get("mean_duration", 60.0)),
            skew_fraction=(
                None
                if data.get("skew_fraction") is None
                else float(data["skew_fraction"])
            ),
            fps=None if data.get("fps") is None else float(data["fps"]),
        )


# ------------------------------------------------------------------ journal

def journal_path(state_dir: str | pathlib.Path) -> pathlib.Path:
    return pathlib.Path(state_dir) / INGEST_FILENAME


def _committed_payload(path: pathlib.Path) -> tuple[bytes, int]:
    """The journal's committed prefix and its byte length.

    An entry is committed once its newline hits the file; whatever
    follows the last newline is a torn append (writer crashed mid-line)
    and is not part of the journal.  All journal IO is byte-oriented so
    offsets mean the same thing on every platform (text mode would
    translate newlines on Windows and make the torn-tail arithmetic
    truncate healthy files).
    """
    raw = path.read_bytes()
    cut = raw.rfind(b"\n") + 1  # 0 when no newline at all
    return raw[:cut], cut


def append_entry(state_dir: str | pathlib.Path, entry: IngestEntry) -> int:
    """Append one entry to the state directory's journal; returns the
    entry's index (its identity for deterministic content synthesis).

    A torn tail left by a crashed writer is truncated away first —
    appending after it would otherwise weld two half-lines into one
    corrupt committed entry.
    """
    path = journal_path(state_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    index = len(load_entries(state_dir))
    tel = telemetry.get()
    if path.exists():
        _, committed_bytes = _committed_payload(path)
        if committed_bytes != path.stat().st_size:
            with open(path, "rb+") as handle:
                handle.truncate(committed_bytes)
            if tel.enabled:
                tel.counter("repro_ingest_torn_tail_repairs_total").inc()
    with open(path, "ab") as handle:
        handle.write((json.dumps(entry.to_dict()) + "\n").encode("utf-8"))
    if tel.enabled:
        tel.counter("repro_ingest_entries_total").inc()
    return index


def load_entries(state_dir: str | pathlib.Path) -> list["IngestEntry"]:
    """All journal entries, in append order (the application order).

    Only newline-terminated lines count (see :class:`JournalError` for
    the crash-consistency contract); a committed line that does not
    parse raises :class:`JournalError` naming the line.
    """
    path = journal_path(state_dir)
    if not path.exists():
        return []
    committed, _ = _committed_payload(path)
    entries = []
    for lineno, line in enumerate(committed.decode("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(IngestEntry.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise JournalError(
                f"malformed journal entry at {path.name}:{lineno}: {exc}"
            ) from exc
    return entries


# -------------------------------------------------------------- application

class RepositoryFeeder:
    """The minimal feed target :func:`apply_entry` needs: a mapping of
    repositories with no sessions attached.

    :class:`~repro.serving.service.QueryService` satisfies the same duck
    type (``repository`` + ``feed``); this standalone form lets journal
    replay materialize bare repositories — the reference path the
    simulation oracle diffs the serving stack against, and a convenient
    way to rebuild "what the world looks like after the whole journal"
    without constructing a service.
    """

    def __init__(self, repositories: dict):
        self._repos = dict(repositories)

    @property
    def repositories(self) -> dict:
        return dict(self._repos)

    def repository(self, dataset: str):
        repo = self._repos.get(dataset)
        if repo is None:
            raise KeyError(f"unknown dataset {dataset!r}")
        return repo

    def register(self, dataset: str, repository) -> None:
        if dataset in self._repos:
            raise ValueError(f"dataset {dataset!r} is already registered")
        self._repos[dataset] = repository

    def feed(self, dataset: str, num_frames: int, instances=(), name=None, fps=None):
        return self.repository(dataset).append_clip(
            num_frames, instances, name=name, fps=fps
        )


def _clip_seed(base_seed: int, dataset: str, entry_index: int, clip_ordinal: int) -> int:
    """Stable per-(entry, clip) substream, CRC-mixed like the dataset
    builder's per-category seeds so journal replay is process-independent."""
    mix = zlib.crc32(
        f"ingest/{dataset}/{entry_index}/{clip_ordinal}".encode("utf-8")
    ) & 0x7FFFFFFF
    return (base_seed * 1_000_003 + mix) & 0x7FFFFFFF


def apply_entry(service, entry: IngestEntry, entry_index: int, base_seed: int = 0) -> int:
    """Feed one journal entry's clips into a service; returns frames added.

    Content is a pure function of ``(base_seed, dataset, entry_index,
    clip ordinal)`` plus the repository's state when the entry is applied
    — and since the journal is append-only and applied in order, that
    state is itself reproducible.  Instance ids continue from the current
    maximum, so appended ground truth never collides with the base
    dataset's.
    """
    repo = service.repository(entry.dataset)
    appended = 0
    for ordinal in range(entry.clips):
        instances = []
        if entry.category is not None and entry.instances > 0:
            rng = DecisionRng(
                _clip_seed(base_seed, entry.dataset, entry_index, ordinal)
            )
            ids = repo.instances.ids()
            instances = place_instances(
                entry.instances,
                entry.frames,
                rng,
                mean_duration=entry.mean_duration,
                skew_fraction=entry.skew_fraction,
                category=entry.category,
                with_boxes=False,
                start_id=(max(ids) + 1) if ids else 0,
                frame_offset=repo.horizon,
            )
        service.feed(entry.dataset, entry.frames, instances, fps=entry.fps)
        appended += entry.frames
    tel = telemetry.get()
    if tel.enabled:
        tel.counter("repro_ingest_clips_total").inc(entry.clips)
        tel.counter("repro_ingest_frames_total").inc(appended)
    return appended


def ensure_dataset(service, dataset: str, factory) -> None:
    """Register ``factory(dataset)`` when the service has not seen
    ``dataset`` — the one place a name turns into a repository after
    start-up, whether it arrived in a journal entry, a restored
    snapshot, or a wire ``ingest``/follow-``submit``."""
    try:
        service.repository(dataset)
    except KeyError:
        service.register(dataset, factory(dataset))


def apply_journal(
    service,
    state_dir: str | pathlib.Path,
    base_seed: int = 0,
    start_index: int = 0,
    on_missing_dataset=None,
) -> int:
    """Apply journal entries from ``start_index`` on; returns the new
    cursor (the journal length).  Callers hand back their previous
    cursor, so each entry is applied exactly once.  The server's
    ``ingest`` op (right after its own append) and the simulation
    harness call this directly; start-up and ``serve --follow`` polls
    reach it through :func:`repro.serving.state.absorb`, which follows
    the journal tail with the snapshots the service does not hold yet.

    ``on_missing_dataset``, when given, maps a dataset name the service
    has not seen to a fresh repository (see :func:`ensure_dataset`);
    without it an unknown dataset raises ``KeyError`` as :meth:`feed`
    would.
    """
    entries = load_entries(state_dir)
    for index in range(start_index, len(entries)):
        entry = entries[index]
        if on_missing_dataset is not None:
            ensure_dataset(service, entry.dataset, on_missing_dataset)
        apply_entry(service, entry, index, base_seed)
    return len(entries)
