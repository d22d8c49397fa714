"""One query's resumable lifetime inside the serving layer.

A :class:`QuerySession` wraps an incremental
:class:`~repro.core.sampler.ExSample` engine (``batch_size=1`` by
default, so the session can be suspended after any frame; larger
batches trade suspension granularity for per-call amortization, §III-F)
around three serving-specific ideas:

* **shared detection** — the session's engine holds no detector: every
  frame it samples goes through the dataset's shared
  :class:`~repro.detection.cache.CachingDetector` in the service's
  coalesced call, so it is cached for all present and future queries,
  and the session filters the detections to its own category;
* **warm start** — at admission, :func:`replay_cached_frames` feeds every
  already-cached frame through the session's own discriminator and
  records the (d0, d1) outcomes into its per-chunk ``(N1, n)`` beliefs:
  the session starts with the *posterior* an uninterrupted query would
  have had over those frames, and any results they contain, at zero
  detector cost;
* **replay-based snapshots** — a session is serialized as its spec, its
  warm-start frame list, and the number of engine steps taken
  (:class:`SessionSnapshot`, plain JSON).  Because every decision the
  engine makes is a deterministic function of the session seed and its
  own step count — never of how sessions were interleaved — restoring
  re-runs those steps against the cache (all hits, zero detector cost)
  and lands in the exact pre-pause state.  The re-run is interleaved on
  purpose: :meth:`QuerySession.replay_steps` replays every restored
  session together, one shared Thompson draw and one cache round trip
  per round, exactly as the serving tick plans.  No RNG internals,
  stratum sets, or tracker state ever need to be pickled.

Live ingestion adds a fourth idea: a session's engine can **absorb new
footage** mid-query (:meth:`QuerySession.absorb_new_footage`), extending
its chunk set through its own
:class:`~repro.core.chunking.IncrementalChunker` without perturbing any
existing arm.  Each absorption is logged as a ``(frames_processed,
horizon)`` pair; the snapshot carries that *horizon log*, so a restore
replays the exact chunk-set evolution the live run saw — extension points
and all — and remains bit-exact even for sessions that caught up with
footage appended mid-flight.  A ``follow`` session additionally refuses
to call itself exhausted when its chunks drain: it idles, schedulable
again the moment ingestion delivers more frames.

A session that turns terminal **seals** itself: it keeps its snapshot,
its sampling history and its per-chunk statistics, and drops its engine
(chunks, their frame orders, the discriminator, the RNG) and its chunk
feed.  Nothing it reports changes, and a long-lived service holds engines
only for the sessions in flight.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from ..core.belief import GammaBelief
from ..core.estimator import ChunkStatistics
from ..core.rng import DecisionRng, gamma_matrices
from ..core.sampler import ExSample, SamplingHistory, plan_many
from ..detection.cache import DetectionCache
from ..detection.detector import Detector
from ..detection.execution import batch_detect

__all__ = [
    "SessionState",
    "SessionSpec",
    "SessionSnapshot",
    "SessionStatus",
    "StateError",
    "QuerySession",
    "derive_session_seed",
    "replay_cached_frames",
]


class StateError(ValueError):
    """Saved session state that cannot be served: a state-directory file
    that does not read back, or a snapshot whose replay does not
    reproduce the results it recorded.

    Every file of a state directory but the cache is one plain
    ``write_text`` — not atomic, and torn by a crash mid-write — so a
    file that does not parse is either that or real corruption.  A
    replay that misses its recorded results was written under another
    decision stream (an older release, or a numpy whose Thompson draw
    changed).  The CLI surfaces each as one clean line (exit 2) instead
    of a traceback."""


def derive_session_seed(base_seed: int, session_number: int) -> int:
    """The default per-submission sampling seed: a distinct stream per
    session off one base (service or state-dir) seed.

    Both submit paths — :meth:`QueryService.submit` and the CLI's
    state-dir ``submit`` — must use this same derivation so a session id
    means the same sampling sequence no matter which path queued it, and
    so two identical submissions never become identical samplers.
    """
    return (base_seed * 1_000_003 + session_number) & 0x7FFFFFFF


class SessionState(enum.Enum):
    """Lifecycle of a serving session."""

    ACTIVE = "active"  # eligible for detector budget
    PAUSED = "paused"  # suspended by the user; resumable
    COMPLETED = "completed"  # its result limit is satisfied
    EXHAUSTED = "exhausted"  # ran out of frames or sample budget first
    CANCELLED = "cancelled"  # terminated by the user

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL_STATES


# built once: every walk over sessions reads .terminal, and looking three
# members up on the enum class per read cost more than the rest of the walk
_TERMINAL_STATES = (
    SessionState.COMPLETED,
    SessionState.EXHAUSTED,
    SessionState.CANCELLED,
)


@dataclass(frozen=True)
class SessionSpec:
    """What was asked for: the validated, immutable query submission.

    ``limit`` mirrors the query LIMIT (§II-B); ``max_samples`` caps the
    session's own detector-charged frames.  With neither, the session
    runs until its chunks are exhausted.  ``seed`` fully determines the
    session's sampling decisions (see the module docstring).
    ``batch_size`` is the engine's §III-F batch — frames chosen per
    engine iteration; it rides the spec (and thus every snapshot)
    because the replayed engine must re-take the same batched draws.
    ``follow`` marks a continuous query over a growing repository:
    draining every currently known chunk parks the session instead of
    terminating it, and footage appended later re-activates it (its
    ``limit`` / ``max_samples`` clauses still terminate as usual).
    """

    dataset: str
    category: str
    limit: int | None = None
    max_samples: int | None = None
    seed: int = 0
    priority: float = 1.0
    warm_start: bool = True
    batch_size: int = 1
    follow: bool = False

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError("max_samples must be positive")
        if self.priority <= 0:
            raise ValueError("priority must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    def next_batch_size(self, frames_processed: int) -> int:
        """The engine batch to plan after ``frames_processed`` frames:
        the spec's batch, clamped so ``max_samples`` is honored exactly.
        A pure function of the spec and the session's own step count, so
        live execution and snapshot replay compute identical batches."""
        if self.max_samples is None:
            return self.batch_size
        return max(1, min(self.batch_size, self.max_samples - frames_processed))


@dataclass(frozen=True)
class SessionSnapshot:
    """A session serialized through the cache/state layer (plain JSON).

    ``warm_start_frames`` is the exact frame list replayed at admission
    (``None`` means the warm start has not happened yet — a submission
    written to a state directory before any service loaded it);
    ``steps_taken`` is the number of detector-charged *frames* the
    session has processed — restore replays engine iterations (each
    ``batch_size`` frames, final batch clamped by ``max_samples``)
    until the frame count is reached.

    ``horizons`` is the session's horizon log: ``(frames_processed,
    horizon)`` pairs, one per chunk-set the session has sampled under —
    the first entry is the repository horizon at admission, each later
    entry one mid-query footage absorption.  Restore re-takes chunks at
    exactly those horizons while replaying, so a session that caught up
    with footage appended mid-flight restores bit-exact even though the
    repository has since grown further.  Empty means "unknown": restore
    uses the repository's current horizon from step zero (correct for
    pending submissions that never ran, and for pre-ingestion snapshots).
    """

    session_id: str
    dataset: str
    category: str
    limit: int | None
    max_samples: int | None
    seed: int
    priority: float
    warm_start: bool
    state: str
    steps_taken: int
    warm_start_frames: tuple[int, ...] | None
    # result fields let terminal sessions restore *sealed* — status and
    # results served straight from the snapshot, no engine replay
    results_found: int = 0
    result_frames: tuple[int, ...] = ()
    batch_size: int = 1
    follow: bool = False
    horizons: tuple[tuple[int, int], ...] = ()

    @property
    def spec(self) -> SessionSpec:
        return SessionSpec(
            dataset=self.dataset,
            category=self.category,
            limit=self.limit,
            max_samples=self.max_samples,
            seed=self.seed,
            priority=self.priority,
            warm_start=self.warm_start,
            batch_size=self.batch_size,
            follow=self.follow,
        )

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in _SNAPSHOT_FIELDS}
        if self.warm_start_frames is not None:
            data["warm_start_frames"] = list(self.warm_start_frames)
        data["result_frames"] = list(self.result_frames)
        data["horizons"] = [list(pair) for pair in self.horizons]
        return data

    @staticmethod
    def from_dict(data: dict) -> "SessionSnapshot":
        frames = data.get("warm_start_frames")
        return SessionSnapshot(
            session_id=str(data["session_id"]),
            dataset=str(data["dataset"]),
            category=str(data["category"]),
            limit=None if data.get("limit") is None else int(data["limit"]),
            max_samples=(
                None if data.get("max_samples") is None else int(data["max_samples"])
            ),
            seed=int(data.get("seed", 0)),
            priority=float(data.get("priority", 1.0)),
            warm_start=bool(data.get("warm_start", True)),
            state=str(data.get("state", SessionState.ACTIVE.value)),
            steps_taken=int(data.get("steps_taken", 0)),
            warm_start_frames=(
                None if frames is None else tuple(int(f) for f in frames)
            ),
            results_found=int(data.get("results_found", 0)),
            result_frames=tuple(int(f) for f in data.get("result_frames", ())),
            batch_size=int(data.get("batch_size", 1)),
            follow=bool(data.get("follow", False)),
            horizons=tuple(
                (int(steps), int(horizon))
                for steps, horizon in data.get("horizons", ())
            ),
        )


@dataclass(frozen=True)
class SessionStatus:
    """One status-poll row: progress and cost accounting for a session."""

    session_id: str
    dataset: str
    category: str
    state: str
    limit: int | None
    max_samples: int | None
    priority: float
    seed: int
    results_found: int
    frames_processed: int  # detector-charged samples by this session
    warm_frames_replayed: int  # zero-cost frames absorbed at admission
    satisfied: bool
    follow: bool = False
    horizon: int = 0  # repository frames this session's chunks cover

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _STATUS_FIELDS}


# to_dict walks these instead of dataclasses.asdict, which deep-copies
# every value recursively (13x the cost for a row of scalars)
_SNAPSHOT_FIELDS = tuple(f.name for f in fields(SessionSnapshot))
_STATUS_FIELDS = tuple(f.name for f in fields(SessionStatus))

# the Thompson bid's belief: stateless, so one serves every session
_BELIEF = GammaBelief()


def replay_cached_frames(
    sampler: ExSample,
    cache: DetectionCache,
    dataset: str,
    category: str | None = None,
    frames: Sequence[int] | None = None,
    detector: Detector | None = None,
) -> tuple[list[int], list[int]]:
    """Warm-start ``sampler`` from cached detections, at zero detector cost.

    Feeds each cached frame (``frames``, defaulting to every frame cached
    for ``dataset``, in sorted order) through the sampler's own
    discriminator and records the (d0, d1) outcome into the chunk the
    frame belongs to — exactly the state update Algorithm 1 would have
    made had the sampler processed the frame itself, minus the detector
    invocation.  Frames outside the sampler's chunk spans are skipped.
    The replay touches neither the sampler's history (which counts
    detector-charged samples) nor its without-replacement orders: a later
    re-draw of a replayed frame is a cache hit and the discriminator
    treats it consistently as a re-visit.

    The in-span frames are read in one ``cache.get_many`` round-trip (none
    at all when no frame is in span) and observed in input order.

    ``detector``, when given, is the fallback for the frames in ``frames``
    that are *no longer cached*: they are re-detected in one batched call
    and written back with one ``cache.put_many`` instead of silently
    skipped.  Pass the raw detector behind the cache: the replay's own
    ``get_many`` is the only lookup.  This is what keeps snapshot restores bit-exact across cache
    loss — a restored session must absorb exactly the warm-start frames
    its live run absorbed, or every decision after the divergence point
    changes.
    Without a detector, uncached frames are skipped (the pre-snapshot
    admission path, where ``frames`` *is* the cache listing).

    Returns ``(replayed_frames, result_frames)`` — all frames absorbed,
    and the subset that yielded at least one new result.
    """
    if frames is None:
        frames = cache.frames(dataset)
    chunks = sampler.chunks
    raw_starts = [int(c.start_frame) for c in chunks]
    order = sorted(range(len(chunks)), key=raw_starts.__getitem__)
    starts = [raw_starts[i] for i in order]
    ends = [int(chunks[i].end_frame) for i in order]

    in_span: list[tuple[int, int]] = []  # (frame, chunk), in input order
    for frame in frames:
        pos = bisect.bisect_right(starts, frame) - 1
        if pos >= 0 and frame < ends[pos]:  # else outside every chunk span
            in_span.append((int(frame), int(order[pos])))
    if not in_span:
        return [], []
    cached = cache.get_many(dataset, [frame for frame, _ in in_span])
    if detector is not None:
        missing = [frame for (frame, _), hit in zip(in_span, cached) if hit is None]
        if missing:
            detected = batch_detect(detector, missing)
            cache.put_many(dataset, list(zip(missing, detected)))
            fresh = iter(detected)
            cached = [tuple(next(fresh)) if hit is None else hit for hit in cached]

    replayed: list[int] = []
    result_frames: list[int] = []
    for (frame, chunk), detections in zip(in_span, cached):
        if detections is None:
            continue  # not cached, and no detector to fall back on
        if category is not None:
            detections = tuple(d for d in detections if d.category == category)
        outcome = sampler.discriminator.observe(frame, detections)
        sampler.stats.record(chunk, outcome.d0, outcome.d1)
        replayed.append(frame)
        if outcome.d0 > 0:
            result_frames.append(frame)
    return replayed, result_frames


class QuerySession:
    """A resumable query: spec + incremental engine + lifecycle state.

    Built by :class:`~repro.serving.service.QueryService`; not normally
    constructed directly.  The session advances only through
    ``plan_steps`` / ``commit_step`` (one whole engine batch at a time),
    which is what makes the step count a complete serialization of its
    progress.

    At its terminal transition (completed, exhausted or cancelled) the
    session seals: its snapshot answers every poll from then on, and
    :attr:`history` / :attr:`chunk_stats` keep the engine's sampling
    history and per-chunk ``(N1, n)``, while the engine, the chunk feed
    and any parked batch are dropped.
    """

    def __init__(
        self,
        session_id: str,
        spec: SessionSpec,
        engine: ExSample,
        warm_start_frames: Sequence[int] = (),
        warm_result_frames: Sequence[int] = (),
        state: SessionState = SessionState.ACTIVE,
        chunker=None,
        horizon_log: Sequence[tuple[int, int]] | None = None,
    ):
        self._session_id = session_id
        self._spec = spec
        self._engine = engine
        self._warm_frames = tuple(int(f) for f in warm_start_frames)
        self._warm_result_frames = tuple(int(f) for f in warm_result_frames)
        self._state = state
        self._sealed: SessionSnapshot | None = None
        # the engine's own history and statistics objects: what a session
        # keeps of its engine once sealed
        self._history: SamplingHistory | None = engine.history
        self._chunk_stats: ChunkStatistics | None = engine.stats
        # the session's private chunk feed over the (possibly growing)
        # repository; None for sessions built outside the serving layer
        self._chunker = chunker
        self._horizon_log: list[tuple[int, int]] = [
            (int(steps), int(horizon)) for steps, horizon in (horizon_log or ())
        ]
        if not self._horizon_log and chunker is not None:
            self._horizon_log = [(0, chunker.horizon)]
        # a planned-but-uncommitted batch (a detector failure mid-tick):
        # re-offered by the next plan_steps so no planned frame is lost
        self._pending: list[tuple[int, int]] = []
        # draw/score wall time of the most recent *fresh* plan (zeros when
        # the last plan_steps re-offered a pending batch) — observational
        # only, read by the service's plan-stage telemetry
        self.last_plan_timings: dict[str, float] = {"draw": 0.0, "score": 0.0}
        # the owning service's readiness hook (QueryService keeps its ready
        # index by it): called with this session at every event that can
        # change :attr:`schedulable` — plan, commit, pause, resume, cancel
        # and absorbed footage
        self._on_change = None
        if self._state is SessionState.ACTIVE:
            self._refresh_state()

    @classmethod
    def from_sealed_snapshot(cls, snapshot: SessionSnapshot) -> "QuerySession":
        """Restore a *terminal* session without replaying anything.

        A completed/exhausted/cancelled session can never be scheduled
        again, so rebuilding its engine would burn replay work only to
        answer status polls — the snapshot already carries everything a
        poll needs.  It is the form a live session seals into at its
        terminal transition, minus the history and chunk statistics
        (:attr:`history` and :attr:`chunk_stats` read ``None``)."""
        state = SessionState(snapshot.state)
        if not state.terminal:
            raise ValueError(
                f"cannot seal a {state.value} session; only terminal states"
            )
        session = cls.__new__(cls)
        session._session_id = snapshot.session_id
        session._spec = snapshot.spec
        session._engine = None
        session._warm_frames = snapshot.warm_start_frames or ()
        session._warm_result_frames = ()
        session._state = state
        session._sealed = snapshot
        session._history = None
        session._chunk_stats = None
        session._chunker = None
        session._horizon_log = [
            (int(s), int(h)) for s, h in snapshot.horizons
        ]
        session._pending = []
        session.last_plan_timings = {"draw": 0.0, "score": 0.0}
        session._on_change = None
        return session

    # ------------------------------------------------------------ properties

    @property
    def session_id(self) -> str:
        return self._session_id

    @property
    def spec(self) -> SessionSpec:
        return self._spec

    @property
    def state(self) -> SessionState:
        return self._state

    @property
    def priority(self) -> float:
        return self._spec.priority

    @property
    def engine(self) -> ExSample | None:
        """The live sampling engine; ``None`` once the session is terminal
        (sealed).  Read :attr:`history` and :attr:`chunk_stats` for what a
        finished session sampled."""
        return self._engine

    @property
    def history(self) -> SamplingHistory | None:
        """The engine's sampling history: the live one while the session
        runs, the one it kept once sealed, ``None`` for a session restored
        sealed (its snapshot is all that was saved)."""
        return self._history

    @property
    def chunk_stats(self) -> ChunkStatistics | None:
        """The engine's per-chunk ``(N1, n)`` statistics, on the same terms
        as :attr:`history`."""
        return self._chunk_stats

    @property
    def results_found(self) -> int:
        if self._sealed is not None:
            return self._sealed.results_found
        return self._engine.results_found

    @property
    def frames_processed(self) -> int:
        """Detector-charged frames sampled by this session (excludes the
        zero-cost warm-start replay)."""
        if self._sealed is not None:
            return self._sealed.steps_taken
        return self._engine.frames_processed

    @property
    def warm_frames_replayed(self) -> int:
        return len(self._warm_frames)

    @property
    def satisfied(self) -> bool:
        return self._spec.limit is not None and self.results_found >= self._spec.limit

    @property
    def horizon(self) -> int:
        """Repository frames this session's chunk set currently covers."""
        if self._chunker is not None:
            return self._chunker.horizon
        if self._horizon_log:
            return self._horizon_log[-1][1]
        return 0

    @property
    def horizon_log(self) -> list[tuple[int, int]]:
        """The ``(frames_processed, horizon)`` absorption history — what
        snapshots persist so restores replay the same chunk-set evolution."""
        return list(self._horizon_log)

    @property
    def schedulable(self) -> bool:
        """Whether a tick could advance this session right now.

        Distinct from :attr:`state`: a ``follow`` session whose chunks
        have drained stays ACTIVE (more footage may arrive) but is not
        schedulable until ingestion delivers it.  The service's
        ``run_until_idle`` loops on this, not on ACTIVE, so idle
        followers do not spin it forever.
        """
        if self._state is not SessionState.ACTIVE or self._engine is None:
            return False
        if self.satisfied:
            return False
        if self._pending:
            return True
        if (
            self._spec.max_samples is not None
            and self.frames_processed >= self._spec.max_samples
        ):
            return False
        return not self._engine.exhausted

    def result_frames(self) -> list[int]:
        """Frames a user would open: every frame that yielded a new result,
        warm-start and sampled alike."""
        if self._sealed is not None:
            return list(self._sealed.result_frames)
        sampled = [int(f) for f in self._engine.history.new_result_frames]
        return sorted(set(self._warm_result_frames) | set(sampled))

    # ------------------------------------------------------------- lifecycle

    def _refresh_state(self) -> None:
        if self._state is not SessionState.ACTIVE:
            return
        if self.satisfied:
            self._state = SessionState.COMPLETED
        elif self._pending:
            # a planned batch is still owed its commit (its tick's
            # detector call failed); the session must stay schedulable
            # even if planning it drained the chunks
            return
        elif (
            self._spec.max_samples is not None
            and self.frames_processed >= self._spec.max_samples
        ):
            self._state = SessionState.EXHAUSTED
        elif self._engine.exhausted:
            # a follow session out of footage idles, awaiting ingestion;
            # only non-follow sessions treat a drained chunk set as final
            if not self._spec.follow:
                self._state = SessionState.EXHAUSTED
        if self._state.terminal:
            self._seal()

    def _seal(self) -> None:
        """Freeze what this terminal session reports and drop what only a
        running one needs: from here on its snapshot answers every poll,
        and of the engine only the history and chunk statistics stay."""
        self._sealed = self.snapshot()
        self._engine = None
        self._chunker = None
        self._pending = []
        self._warm_result_frames = ()

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change(self)

    def pause(self) -> None:
        if self._state.terminal:
            raise ValueError(f"cannot pause {self._state.value} session {self._session_id}")
        self._state = SessionState.PAUSED
        self._changed()

    def resume(self) -> None:
        if self._state.terminal:
            raise ValueError(
                f"cannot resume {self._state.value} session {self._session_id}"
            )
        self._state = SessionState.ACTIVE
        self._refresh_state()
        self._changed()

    def cancel(self) -> None:
        if not self._state.terminal:
            self._state = SessionState.CANCELLED
            self._seal()
            self._changed()

    # ------------------------------------------------------------- ingestion

    def absorb_new_footage(self) -> int:
        """Extend the engine over clips appended since the last absorption.

        Returns the number of newly covered frames (0 when there is
        nothing new or the session cannot absorb right now).  The
        absorption is logged as a ``(frames_processed, horizon)`` pair so
        snapshot replay re-extends at exactly this point in the decision
        stream.

        A session holding a planned-but-uncommitted batch skips the
        absorption (returning 0) until the batch commits: its pending
        plan was drawn against the old chunk set, and extending under it
        would make the live RNG stream diverge from what the horizon log
        can reproduce.  The skipped footage is simply picked up by the
        next sync after the commit.
        """
        if self._chunker is None or self._state.terminal or self._pending:
            return 0
        if self._chunker.pending_frames <= 0:
            return 0
        before = self._chunker.horizon
        new_chunks = self._chunker.take()
        if not new_chunks:
            return 0
        self._engine.extend(new_chunks)
        self._horizon_log.append((self.frames_processed, self._chunker.horizon))
        self._changed()
        return self._chunker.horizon - before

    # ------------------------------------------------------------- execution

    # Two-phase stepping: the coalescing seam.  ``plan_steps`` is stage 1
    # of one engine iteration for many sessions (pure choice, no
    # detections), so a scheduler can gather their plans, run ONE
    # batched detector call over the union of frames, and hand each
    # session its share via ``commit_step``.  plan → commit equals the
    # engine's own plan/commit exactly: the session's decisions never
    # depend on who else is being served.

    @staticmethod
    def plan_steps(sessions) -> list[list[tuple[int, int]]]:
        """Stage 1 of one engine iteration for each of ``sessions``: the
        ``(chunk, frame)`` batch each wants next, or ``[]`` for one that
        is not schedulable (paused, satisfied, exhausted, or over its
        sample cap).

        A batch planned earlier but never committed (its tick's detector
        call failed) is re-offered as-is, so a transient detector error
        costs nothing but the tick in flight — the sampling stream stays
        a pure function of the session's seed and committed step count.
        The fresh plans go through :func:`~repro.core.sampler.plan_many`:
        one Thompson draw for all of them, each session's batch exactly
        the one it would have planned alone.
        """
        out: list[list[tuple[int, int]]] = []
        fresh: list[tuple[int, QuerySession]] = []
        for session in sessions:
            session.last_plan_timings = {"draw": 0.0, "score": 0.0}
            session._refresh_state()
            session._changed()
            if session._state is not SessionState.ACTIVE:
                out.append([])
            elif session._pending:
                out.append(list(session._pending))
            elif session._engine.exhausted:
                out.append([])
            else:
                fresh.append((len(out), session))
                out.append([])
        planned = plan_many(
            (s._engine, s._spec.next_batch_size(s._engine.frames_processed))
            for _, s in fresh
        )
        for (i, session), pending in zip(fresh, planned):
            session._pending = pending
            session.last_plan_timings = dict(session._engine.last_plan_timings)
            out[i] = list(pending)
        return out

    def commit_step(self, pending, detections_by_frame) -> int:
        """Stage 2+3 of a planned iteration, with detections supplied by
        the coalesced batch call.  ``detections_by_frame`` maps frame
        index to the frame's **unfiltered** detection list (the shared
        detector emits every category); the session filters to its own
        category.  Returns the number of frames processed."""
        if not pending:
            return 0
        category = self._spec.category
        filtered = {
            frame: [
                d for d in detections_by_frame[frame] if d.category == category
            ]
            for _, frame in pending
        }
        records = self._engine.commit(pending, detections=filtered)
        self._pending = []
        self._refresh_state()
        self._changed()
        return len(records)

    @staticmethod
    def replay_steps(replays, detect) -> None:
        """Re-run recorded steps for many sessions built at step 0, in
        lockstep rounds — the restore half of the coalescing seam.

        ``replays`` holds ``(session, frames)`` pairs: each session replays
        until it has processed ``frames`` frames.  Each round, every
        session still short of its next goal plans one batch of
        ``spec.next_batch_size(frames_processed)`` frames — the batch its
        live run planned there — all in one
        :func:`~repro.core.sampler.plan_many` draw; ``detect`` (the
        service's stage 2) fetches the round's ``(session, batch)`` plans
        and returns ``{dataset: {frame: detections}}``; each session
        commits its batch.  The horizon log gates chunk-set growth: a
        session that reaches a logged absorption point extends over the
        logged horizon before its next plan, so mid-query ingestion
        replays exactly.  Nothing a round shares reaches a decision, so
        every session lands where replaying it alone would have.  A
        session that turns terminal (sealed) on the way stops there; only
        a snapshot saved under another decision stream does that, and the
        caller's result check names it.
        """
        todo = [
            (session, session._horizon_log[1:], frames)
            for session, frames in replays
        ]
        while True:
            due = []
            for session, points, frames in todo:
                engine = session._engine
                if engine is None:
                    continue
                while points and engine.frames_processed >= points[0][0]:
                    horizon = points.pop(0)[1]
                    engine.extend(session._chunker.take(up_to_horizon=horizon))
                if engine.frames_processed < (points[0][0] if points else frames):
                    due.append((session, points, frames))
            if not due:
                return
            todo = due
            sessions = [session for session, _, _ in due]
            plans = list(zip(sessions, plan_many(
                (s._engine, s._spec.next_batch_size(s._engine.frames_processed))
                for s in sessions
            )))
            detections = detect(plans)
            for session, pending in plans:
                session.commit_step(pending, detections[session._spec.dataset])

    def thompson_draw(self, rng) -> float:
        """One Thompson sample of this session's best-chunk yield — its
        bid in the :class:`~repro.serving.scheduler.ThompsonSumScheduler`
        budget auction (generalizing ``MultiQueryExSample``'s arg-max of
        summed draws).  0.0 once the engine is gone or exhausted."""
        if self._engine is None or self._engine.exhausted:
            return 0.0
        draws = _BELIEF.sample(self._engine.stats, rng, size=1)
        return self._best_available(draws[0])

    @staticmethod
    def thompson_draws(sessions, rng) -> list[float]:
        """:meth:`thompson_draw` for each of ``sessions`` in order, with a
        :class:`DecisionRng` drawing every bid in one
        :func:`~repro.core.rng.gamma_matrices` call — the same op keys,
        in the same order, as the one-by-one loop, so the same bids."""
        if not isinstance(rng, DecisionRng):
            return [session.thompson_draw(rng) for session in sessions]
        bidding = [s._engine is not None and not s._engine.exhausted for s in sessions]
        draws = iter(gamma_matrices([
            (rng, _BELIEF.alphas(s._engine.stats), _BELIEF.betas(s._engine.stats), 1)
            for s, bids in zip(sessions, bidding) if bids
        ]))
        return [
            s._best_available(next(draws)[0]) if bids else 0.0
            for s, bids in zip(sessions, bidding)
        ]

    def _best_available(self, row) -> float:
        """The largest draw of ``row`` over the chunks with frames left."""
        masked = np.where(self._engine.chunk_availability, row, -np.inf)
        return float(masked.max())

    # --------------------------------------------------------- serialization

    def status(self) -> SessionStatus:
        return SessionStatus(
            session_id=self._session_id,
            dataset=self._spec.dataset,
            category=self._spec.category,
            state=self._state.value,
            limit=self._spec.limit,
            max_samples=self._spec.max_samples,
            priority=self._spec.priority,
            seed=self._spec.seed,
            results_found=self.results_found,
            frames_processed=self.frames_processed,
            warm_frames_replayed=self.warm_frames_replayed,
            satisfied=self.satisfied,
            follow=self._spec.follow,
            horizon=self.horizon,
        )

    def snapshot(self) -> SessionSnapshot:
        """Serialize progress as (spec, warm-start frames, step count),
        plus the result fields that let a terminal session restore sealed."""
        if self._sealed is not None:
            return self._sealed
        return SessionSnapshot(
            session_id=self._session_id,
            dataset=self._spec.dataset,
            category=self._spec.category,
            limit=self._spec.limit,
            max_samples=self._spec.max_samples,
            seed=self._spec.seed,
            priority=self._spec.priority,
            warm_start=self._spec.warm_start,
            state=self._state.value,
            steps_taken=self.frames_processed,
            warm_start_frames=self._warm_frames,
            results_found=self.results_found,
            result_frames=tuple(self.result_frames()),
            batch_size=self._spec.batch_size,
            follow=self._spec.follow,
            horizons=tuple(self._horizon_log),
        )
