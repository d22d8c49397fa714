"""The :class:`QueryService` facade: the serving subsystem's front door.

One service owns, per dataset, a shared all-category detector behind a
:class:`~repro.detection.cache.CachingDetector`, and a population of
:class:`~repro.serving.session.QuerySession` objects multiplexed over it
by a :class:`~repro.serving.scheduler.SchedulerPolicy`:

    service = QueryService({repo.name: repo})
    sid = service.submit(repo.name, "bicycle", limit=20)
    service.tick()          # one budgeted scheduling round
    service.pause(sid)      # ... later ...
    service.resume(sid)
    service.run_until_idle()
    service.status(sid).results_found

Two invariants carry the whole design:

* a session's sampling decisions depend only on its own seed and step
  count — never on tick boundaries, budget splits, or which other
  sessions ran — so pausing, re-ordering, or restarting the service
  never changes any query's answer;
* every detector output lands in the shared cache before any session
  sees it, so the marginal cost of a frame is paid at most once per
  dataset across the service's whole lifetime (and, with an on-disk
  backend, across process restarts).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .. import telemetry
from ..core.chunking import IncrementalChunker
from ..core.rng import DecisionRng
from ..core.sampler import ExSample
from ..detection.cache import CachingDetector, DetectionCache
from ..detection.detector import Detection, Detector, OracleDetector
from ..detection.execution import with_latency
from ..detection.cache import TieredBackend
from ..distributed.coordinator import ShardCoordinator
from ..distributed.worker import DetectorSpec
from ..telemetry.observers import NULL_TICK_OBSERVER
from ..tracking.discriminator import Discriminator, OracleDiscriminator
from ..video.instances import ObjectInstance
from ..video.repository import VideoClip, VideoRepository
from .scheduler import RoundRobinScheduler, SchedulerPolicy
from .session import (
    QuerySession,
    SessionSnapshot,
    SessionSpec,
    SessionState,
    SessionStatus,
    StateError,
    derive_session_seed,
    replay_cached_frames,
)

__all__ = ["QueryService"]


class QueryService:
    """Long-lived, budget-scheduled distinct-object query serving.

    Two maps hold the sessions.  ``_sessions`` keeps every session ever
    admitted or restored: :meth:`status`, :meth:`results`,
    :meth:`snapshot_all` and the :attr:`sessions` view answer from it.
    A terminal session in it is sealed — its snapshot, history and
    per-chunk statistics, no engine — so the engines a service holds are
    those of the sessions in flight.
    ``_live`` is the live-session index — the non-terminal ones, in the
    same submission order — which :meth:`live_sessions` (the server's
    quota count) and a :meth:`sync` that found new footage read.

    A tick costs O(frames granted), not O(sessions in flight).  The
    schedulable sessions sit in a *ready index* kept at events: a session
    reports every event that can change its readiness (plan, commit,
    pause, resume, cancel, absorbed footage) through one hook, and
    :meth:`schedulable_sessions` re-evaluates only the sessions reported
    since its last call.  :meth:`sync` does nothing unless a repository's
    horizon moved (or a session is still owed footage), and the tick
    plans, commits and settles only the sessions its scheduler granted
    frames.  A session that is not granted costs a tick nothing.

    Parameters
    ----------
    repositories:
        One :class:`VideoRepository` or a mapping of dataset name to
        repository; sessions address datasets by name.
    cache:
        The shared :class:`DetectionCache`; defaults to in-memory.  Pass
        one with an on-disk backend to share detections across processes,
        or the same instance to several services in one process: a frame
        any of them paid for is a hit for all.
    cache_budget:
        Optional entry budget for the detection cache.  When ``cache``
        is not supplied, the default cache becomes a bounded LRU
        (:class:`~repro.detection.cache.TieredBackend`); an explicitly
        passed ``cache`` is the caller's to bound (wrap its backend in a
        ``TieredBackend`` yourself).  Eviction degrades to
        re-detection — sampling decisions never depend on cache
        contents, so a budget changes detector-call counts, never
        answers (``tests/test_cache_tiering.py``).
    scheduler:
        Budget-splitting policy; defaults to round-robin.
    frames_per_tick:
        Global detector budget per :meth:`tick` — the scheduling
        quantum.  With batched engines a single tick may overshoot (a
        session always commits whole batches); the excess is charged
        against future allocations, so the long-run rate is exact (see
        :meth:`tick`).
    chunk_frames:
        Chunk size passed to :func:`~repro.core.chunking.make_chunks`,
        either one value for all datasets or a per-dataset mapping
        (``None`` = one chunk per clip).
    detector_factory / discriminator_factory:
        Build the per-dataset shared detector (must emit **all**
        categories — it is cached unfiltered) and the per-session
        discriminator.  Defaults are the oracle pair, mirroring
        :class:`~repro.core.query.QueryEngine`'s defaults.
    batch_size:
        Default §III-F engine batch for new submissions: frames each
        session's policy chooses per engine iteration (1 = the serial
        Algorithm 1).  Rides each session's spec, so restores replay
        with the batch structure the session actually ran with.
    detector_latency:
        Simulated per-detector-call overhead in seconds, charged through
        :func:`~repro.detection.execution.with_latency` — in this
        process under local execution, inside each worker under sharded
        (which is what overlaps it).  Never changes an answer.
    execution / shards / detector_spec:
        The execution backend.  ``"local"`` (default) runs detection in
        this process; ``"sharded"`` hands each coalesced batch to a
        per-dataset :class:`~repro.distributed.coordinator.ShardCoordinator`,
        which splits it evenly over ``shards`` worker processes — each a
        stateless replica with a detector built from ``detector_spec``
        (default: the oracle).  All sampling state stays in this
        process, so a sharded service returns byte-identical answers to
        a local one — sharding only moves detector work.  Sharded
        execution builds detectors in the workers, so it excludes a
        custom ``detector_factory``.
    seed:
        Seeds the scheduler RNG and the per-session default seeds.
        Session decisions use only per-session RNGs (see module
        docstring), so scheduler draws never perturb query results.
    """

    def __init__(
        self,
        repositories: VideoRepository | Mapping[str, VideoRepository],
        cache: DetectionCache | None = None,
        scheduler: SchedulerPolicy | None = None,
        frames_per_tick: int = 16,
        chunk_frames: int | None | Mapping[str, int | None] = None,
        detector_factory: Callable[[VideoRepository], Detector] | None = None,
        discriminator_factory: Callable[[VideoRepository, str], Discriminator] | None = None,
        use_random_plus: bool = True,
        batch_size: int = 1,
        detector_latency: float = 0.0,
        execution: str = "local",
        shards: int = 1,
        detector_spec: DetectorSpec | None = None,
        seed: int = 0,
        cache_budget: int | None = None,
    ):
        if isinstance(repositories, VideoRepository):
            repositories = {repositories.name: repositories}
        # an empty mapping is legal: a service restoring only sealed
        # (terminal) sessions never touches a repository
        if frames_per_tick <= 0:
            raise ValueError("frames_per_tick must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if detector_latency < 0.0:
            raise ValueError("detector_latency must be non-negative")
        if execution not in ("local", "sharded"):
            raise ValueError(
                f"unknown execution backend {execution!r}; options: local, sharded"
            )
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if execution == "local" and shards > 1:
            raise ValueError("shards > 1 requires execution='sharded'")
        if execution == "sharded" and detector_factory is not None:
            raise ValueError(
                "sharded execution builds detectors inside the workers "
                "from detector_spec; detector_factory is local-only"
            )
        if cache_budget is not None and cache_budget < 0:
            raise ValueError("cache_budget must be non-negative")
        self._repos = dict(repositories)
        if cache is not None:
            self._cache = cache
        elif cache_budget is not None:
            self._cache = DetectionCache(TieredBackend(max_entries=cache_budget))
        else:
            self._cache = DetectionCache()
        self._scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
        self._frames_per_tick = frames_per_tick
        self._chunk_frames = chunk_frames
        self._detector_factory = (
            detector_factory
            if detector_factory is not None
            else lambda repo: OracleDetector(repo)
        )
        self._discriminator_factory = (
            discriminator_factory
            if discriminator_factory is not None
            else lambda repo, category: OracleDiscriminator()
        )
        self._use_random_plus = use_random_plus
        self._batch_size = batch_size
        self._detector_latency = detector_latency
        self._execution = execution
        self._shards = shards
        self._detector_spec = detector_spec
        self._seed = seed
        self._rng = DecisionRng((seed, 0x5C4ED))
        self._detectors: dict[str, CachingDetector] = {}
        self._sessions: dict[str, QuerySession] = {}
        # the live-session index: the non-terminal subset of _sessions in
        # the same (submission) order, with each session's rank in that
        # order.  Filled where _sessions is (_admit); a session leaves when
        # the ready index finds it terminal and, terminal being final,
        # never comes back.  Every per-session map below leaves with it
        self._live: dict[str, QuerySession] = {}
        self._rank: dict[str, int] = {}
        self._next_rank = 0
        # the ready index: the schedulable live sessions sorted by rank,
        # and the ranks alongside for bisection.  Re-evaluated only for
        # the sessions that reported an event since the last look
        self._ready: list[QuerySession] = []
        self._ready_ranks: list[int] = []
        self._touched: dict[str, QuerySession] = {}
        # sessions that joined the ready index since the last working tick:
        # the tick observer writes their gauges
        self._entered: dict[str, QuerySession] = {}
        # sessions still owed footage whatever the horizons do: restored
        # ones, and those whose parked batch deferred an absorption
        self._behind: dict[str, QuerySession] = {}
        # each repository's horizon when sync last walked its sessions
        self._synced: dict[str, int] = {}
        # the sessions restore_many is rebuilding, each with the step
        # count to replay it to, None for one restored sealed (the list is
        # None outside a restore_many): restore builds into it
        self._restoring: list[tuple[QuerySession, int | None]] | None = None
        self._next_id = 1
        self._ticks = 0
        # frames a session processed beyond its past allocations (batched
        # engines commit whole batches); charged against future shares so
        # long-run throughput stays at frames_per_tick
        self._deficits: dict[str, int] = {}

    # ------------------------------------------------------------ properties

    @property
    def cache(self) -> DetectionCache:
        return self._cache

    @property
    def frames_per_tick(self) -> int:
        return self._frames_per_tick

    @property
    def ticks(self) -> int:
        return self._ticks

    @property
    def detector_calls(self) -> int:
        """Real detector invocations across all datasets — the number the
        paper's cost model charges, and the one the cache exists to
        minimize."""
        return sum(d.detector_calls for d in self._detectors.values())

    @property
    def sessions(self) -> Mapping[str, QuerySession]:
        """Every session this service holds, terminal ones included, by
        id in submission order — a read-only *live view* (O(1), not a
        copy): later submissions show through it, assigning into it
        raises ``TypeError``."""
        return MappingProxyType(self._sessions)

    @property
    def deficits(self) -> dict[str, int]:
        """Frames each session has processed beyond its past allocations
        (batched engines commit whole batches; see :meth:`tick`).  Read
        by budget-conservation checks — after a completed tick, a
        schedulable session's debt never exceeds ``batch_size - 1``."""
        return dict(self._deficits)

    @property
    def execution(self) -> str:
        """The execution backend: ``"local"`` or ``"sharded"``."""
        return self._execution

    @property
    def shards(self) -> int:
        return self._shards

    def dataset_names(self) -> list[str]:
        """Registered dataset names, sorted."""
        return sorted(self._repos)

    def shard_backend(self, dataset: str) -> ShardCoordinator | None:
        """The dataset's :class:`ShardCoordinator` under sharded
        execution (built on demand), ``None`` under local execution —
        the seam the simulation harness's worker-kill fault reaches
        through."""
        if self._execution != "sharded":
            return None
        inner = self._shared_detector(dataset).wrapped
        assert isinstance(inner, ShardCoordinator)
        return inner

    def repository(self, dataset: str) -> VideoRepository:
        """The live repository backing ``dataset`` (KeyError if unknown) —
        the object ingestion appends to."""
        return self._repository(dataset)

    def register(self, dataset: str, repository: VideoRepository) -> None:
        """Admit a new dataset at runtime — how a follow-mode server
        accepts footage for a camera that did not exist at startup."""
        if dataset in self._repos:
            raise ValueError(f"dataset {dataset!r} is already registered")
        self._repos[dataset] = repository

    def live_sessions(self) -> list[QuerySession]:
        """The non-terminal sessions, in submission order, read from the
        live index.  Paused sessions and followers idling for footage
        are in it: they are work that can come back."""
        return [s for s in self._live.values() if not s.state.terminal]

    def schedulable_sessions(self) -> list[QuerySession]:
        """Active sessions a tick could actually advance, in submission
        order — excludes ``follow`` sessions idling for footage (ACTIVE
        but drained).

        Read from the ready index, never from a walk: only the sessions
        that reported an event since the last call (their hook fires at
        plan, commit, pause, resume, cancel, absorbed footage, submit and
        restore — ``session.cancel()`` behind the service's back
        included) re-evaluate :attr:`QuerySession.schedulable`.  The ones
        found terminal retire here from the live index and every
        per-session map, so a call costs O(sessions reported), plus a
        copy of the ready list."""
        if self._touched:
            for session_id, session in self._touched.items():
                self._reindex(session_id, session)  # reports nothing back
            self._touched.clear()
        return list(self._ready)

    def _touch(self, session: QuerySession) -> None:
        """A session's readiness hook: re-evaluate it at the next look."""
        self._touched[session.session_id] = session

    def _reindex(self, session_id: str, session: QuerySession) -> None:
        """Move one reported session into or out of the ready index, and
        retire it if it turned terminal."""
        rank = self._rank.get(session_id)
        if rank is None:  # already retired
            return
        ranks = self._ready_ranks
        at = bisect_left(ranks, rank)
        listed = at < len(ranks) and ranks[at] == rank
        if session.schedulable:
            if not listed:
                ranks.insert(at, rank)
                self._ready.insert(at, session)
                self._entered[session_id] = session
            return
        if listed:
            del ranks[at], self._ready[at]
            self._entered.pop(session_id, None)
        if session.state.terminal:
            # paused sessions keep their debt and pay it on resume; a
            # terminal one is gone for good
            del self._live[session_id], self._rank[session_id]
            self._deficits.pop(session_id, None)
            self._behind.pop(session_id, None)
            session._on_change = None
            # every terminal session passes here, cancelled behind the
            # service's back included: its gauges and trace end with it
            telemetry.get().tick_observer.session_closed(session)

    def _admit(self, session: QuerySession) -> None:
        """Index a submitted or restored non-terminal session."""
        session_id = session.session_id
        self._sessions[session_id] = session
        self._live[session_id] = session
        self._rank[session_id] = self._next_rank
        self._next_rank += 1
        session._on_change = self._touch
        self._touched[session_id] = session

    # ------------------------------------------------------------- lifecycle

    def submit(
        self,
        dataset: str,
        category: str,
        limit: int | None = None,
        max_samples: int | None = None,
        priority: float = 1.0,
        seed: int | None = None,
        warm_start: bool = True,
        batch_size: int | None = None,
        follow: bool = False,
    ) -> str:
        """Admit a query; returns its session id.

        With ``warm_start`` (the default) every frame already in the
        cache is replayed through the new session's discriminator first —
        a query over well-trodden data may complete without a single
        detector call.  ``batch_size`` overrides the service default for
        this session's engine batch.  ``follow`` submits a *continuous*
        query: it survives draining the currently known footage and
        resumes whenever ingestion appends more (so its category need not
        exist yet — the objects it searches for may not have been
        recorded).
        """
        admit_start = time.perf_counter()
        repo = self._repository(dataset)
        if not follow and category not in repo.categories():
            raise ValueError(
                f"category {category!r} not present in dataset {dataset!r}; "
                f"available: {repo.categories()}"
            )
        if seed is None:
            seed = derive_session_seed(self._seed, self._next_id)
        spec = SessionSpec(
            dataset=dataset,
            category=category,
            limit=limit,
            max_samples=max_samples,
            seed=seed,
            priority=priority,
            warm_start=warm_start,
            batch_size=self._batch_size if batch_size is None else batch_size,
            follow=follow,
        )
        session_id = f"s{self._next_id}"
        self._next_id += 1
        warm_frames = self._cache.frames(dataset) if warm_start else []
        session = self._build_session(session_id, spec, warm_frames)
        self._admit(session)
        telemetry.get().tick_observer.admitted(session, admit_start, len(warm_frames))
        return session_id

    def pause(self, session_id: str) -> None:
        self._session(session_id).pause()

    def resume(self, session_id: str) -> None:
        self._session(session_id).resume()

    def cancel(self, session_id: str) -> None:
        session = self._session(session_id)
        session.cancel()
        telemetry.get().tick_observer.session_closed(session)

    def status(self, session_id: str) -> SessionStatus:
        return self._session(session_id).status()

    def statuses(self) -> list[SessionStatus]:
        return [s.status() for s in self._sessions.values()]

    def results(self, session_id: str) -> dict:
        """Machine-readable results payload for one session."""
        session = self._session(session_id)
        status = session.status()
        payload = status.to_dict()
        payload["result_frames"] = session.result_frames()
        return payload

    # ------------------------------------------------------------- ingestion

    def feed(
        self,
        dataset: str,
        num_frames: int,
        instances: Iterable[ObjectInstance] = (),
        name: str | None = None,
        fps: float | None = None,
    ) -> VideoClip:
        """Ingest one newly recorded clip and wake the dataset's sessions.

        Appends the clip (and its ground truth) to the dataset's
        repository at the current horizon, then :meth:`sync`\\ s so every
        running session absorbs the footage immediately.  Returns the new
        clip.  The companion path for footage appended *around* the
        service (another process touching the same repository object, or
        the CLI's ingest journal) is :meth:`sync` alone — :meth:`tick`
        calls it automatically, so out-of-band growth is picked up no
        later than the next scheduling round.
        """
        repo = self._repository(dataset)
        clip = repo.append_clip(num_frames, instances, name=name, fps=fps)
        self.sync(dataset)
        return clip

    def sync(self, dataset: str | None = None) -> dict[str, int]:
        """Let sessions absorb any footage appended since they last looked.

        Gated on horizons: a dataset's live sessions are walked only when
        its repository's horizon moved since the last sync that walked
        them, and each extends its engine over the newly visible clips
        via its own chunk feed.  Beside them, the sessions still owed
        footage — restored ones, and those whose parked batch deferred
        an absorption — are walked until each has caught up (a chunk
        feed takes whole clips, so none stays behind for ever).  Both
        walks go in submission order, over ``dataset`` or all.  Returns
        ``{session_id: frames_absorbed}`` for the sessions that grew.
        When no horizon moved and nobody is behind, a call costs one
        integer compare per dataset, so it is safe to call every tick.
        """
        moved = [
            name for name, repo in self._repos.items()
            if (dataset is None or name == dataset) and self._synced.get(name) != repo.horizon
        ]
        behind = self._behind
        if not moved and not behind:
            return {}
        for name in moved:
            self._synced[name] = self._repos[name].horizon
        if moved:
            walk = [
                session for session_id, session in self._live.items()
                if session.spec.dataset in moved or session_id in behind
            ]
        else:
            walk = sorted(behind.values(), key=lambda s: self._rank[s.session_id])
        absorbed: dict[str, int] = {}
        for session in walk:
            session_id, owner = session.session_id, session.spec.dataset
            if dataset is not None and owner != dataset:
                continue
            grew = session.absorb_new_footage()
            if grew:
                absorbed[session_id] = grew
            if not session.state.terminal and session.horizon < self._repos[owner].horizon:
                behind[session_id] = session
            else:
                behind.pop(session_id, None)
        if absorbed:
            telemetry.get().counter("repro_serving_absorbed_frames_total").inc(
                sum(absorbed.values())
            )
        return absorbed

    # ------------------------------------------------------------- execution

    def tick(self) -> dict[str, int]:
        """One scheduling round: split the frames-per-tick budget across
        active sessions and advance each by its share, **coalescing**
        detector work across sessions.  Returns frames actually processed
        per session of the scheduler's allocation, in submission order
        (empty when the service is idle): a session the policy left out
        — round-robin leaves out its zero grants — is left out here too,
        and everything the tick builds is O(sessions granted).

        The tick runs in *rounds*.  Each round, every session with budget
        left plans one engine iteration (its next §III-F batch of frames
        — stage 1 only, no detections needed; the round's Thompson draws
        are one kernel call, :meth:`QuerySession.plan_steps`); the planned frames are
        merged per dataset with duplicates collapsed, issued to the
        shared caching detector as **one batched call** (partial cache
        hits split off, misses fanned out over the shard workers under
        sharded execution), and handed back for each session to commit in
        submission order.  Because a session's plan depends only on its
        own seed and step count — never on other sessions — coalescing
        is invisible to every query's answer: each session processes
        exactly the frames, in exactly the order, that serving it alone
        would have.

        Budget semantics with batched engines: a session always commits
        *whole* engine batches (splitting one would change its sampling
        decisions and break snapshot replay), so a tick may overshoot a
        session's share by up to ``batch_size - 1`` frames.  The
        overshoot is carried as a deficit against the session's future
        allocations, so sustained throughput converges to
        ``frames_per_tick`` — the quantum is a target per tick and an
        exact long-run rate.

        Failure containment: if the shared detector raises mid-tick, the
        sessions that had already planned keep their planned batch and
        re-offer it on the next tick (:meth:`QuerySession.plan_steps`),
        so a transient detector error loses at most the tick in flight —
        the same durability the state layer promises.

        What the tick reports (the ``tick`` trace and its stage children,
        the per-tick series, per-session spans and gauges) goes through
        :class:`~repro.telemetry.observers.TickObserver` — a no-op twin
        unless telemetry is on, and never consulted for a decision.
        """
        obs = telemetry.get().tick_observer
        obs.begin()
        # pick up footage appended out-of-band since the last round; a
        # session holding a pending (failed-tick) batch defers absorption
        # until that batch commits, so this is always replay-safe
        self.sync()
        obs.synced()
        # allocate over sessions a tick can actually advance: a follow
        # session idling for footage is ACTIVE but handing it budget
        # would silently waste its share (plans come back empty and the
        # remainder is never redistributed within the tick)
        active = self.schedulable_sessions()
        if not active:
            return {}
        self._ticks += 1
        allocation = self._scheduler.allocate(active, self._frames_per_tick, self._rng)
        # only the granted sessions plan, commit and settle, in submission
        # order: an ungranted session's debt cannot change this tick
        granted_ids = sorted(allocation, key=self._rank.__getitem__)
        granted = [self._live[sid] for sid in granted_ids]
        entered = list(self._entered.values())
        self._entered.clear()
        obs.scheduled(self._ticks, active, allocation, granted, entered)
        deficits = self._deficits
        processed = dict.fromkeys(granted_ids, 0)
        remaining = {sid: allocation[sid] - deficits.get(sid, 0) for sid in granted_ids}
        completed = False
        try:
            while True:
                # stage 1, all sessions: plan one engine iteration each,
                # in submission order, policy-free — one Thompson draw
                plans: list[tuple[QuerySession, list[tuple[int, int]]]] = []
                due = [s for sid, s in zip(granted_ids, granted) if remaining[sid] > 0]
                for session, pending in zip(due, QuerySession.plan_steps(due)):
                    obs.planned(session, pending)
                    if pending:
                        plans.append((session, pending))
                    else:  # not schedulable (satisfied/exhausted/capped)
                        remaining[session.session_id] = 0
                obs.lap("plan")
                if not plans:
                    break
                # stage 2, once per dataset: one batched detector call over
                # the union of planned frames, duplicates coalesced
                detections = self._detect_coalesced(plans, obs)
                obs.lap("detect")
                # stage 3, all sessions: commit in submission order
                for session, pending in plans:
                    count = session.commit_step(pending, detections[session.spec.dataset])
                    obs.committed(session, count)
                    processed[session.session_id] += count
                    remaining[session.session_id] -= count
                obs.lap("commit")
            completed = True
        finally:
            # settle the books even if the detector raised mid-tick: every
            # committed frame is charged, old debt survives, and the tick's
            # share is only credited when the quantum actually completed
            for session_id in granted_ids:
                debt = deficits.pop(session_id, 0)
                credit = allocation[session_id] if completed else 0
                new_debt = debt + processed[session_id] - credit
                if new_debt > 0:
                    deficits[session_id] = new_debt
            obs.settled(deficits)
            self._cache.flush()  # one durability point per scheduling quantum
        obs.finish(processed)
        return processed

    def _detect_coalesced(
        self, plans, obs=NULL_TICK_OBSERVER
    ) -> dict[str, dict[int, list[Detection]]]:
        """Stage 2 of a round, for the tick and the restore replay alike:
        the frames ``plans`` (``(session, batch)`` pairs) want, merged per
        dataset with duplicates collapsed, fetched through the dataset's
        shared caching detector in **one** batched call — one cache round
        trip, the misses fanned out over the shard workers under sharded
        execution.  Returns ``{dataset: {frame: unfiltered detections}}``.
        ``obs`` hears the coalesce lap and each dispatch."""
        frames_by_dataset: dict[str, dict[int, None]] = {}
        for session, pending in plans:
            ordered = frames_by_dataset.setdefault(session.spec.dataset, {})
            for _, frame in pending:
                ordered[frame] = None
        obs.lap("coalesce")
        detections: dict[str, dict[int, list[Detection]]] = {}
        for dataset, ordered in frames_by_dataset.items():
            frames = list(ordered)
            obs.begin_dispatch(dataset, plans, frames)
            try:
                per_frame = self._shared_detector(dataset).detect_many(frames)
            finally:
                obs.end_dispatch()
            detections[dataset] = dict(zip(frames, per_frame))
        return detections

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Tick until no session can be advanced (or ``max_ticks``);
        returns the number of ticks executed.

        "Idle" means no *schedulable* session — ``follow`` sessions that
        drained the known footage stay ACTIVE (awaiting ingestion) but do
        not keep this loop spinning.
        """
        if max_ticks is not None and max_ticks <= 0:
            raise ValueError("max_ticks must be positive")
        executed = 0
        while self.schedulable_sessions():
            if max_ticks is not None and executed >= max_ticks:
                break
            self.tick()
            executed += 1
        return executed

    def collect_worker_telemetry(self) -> int:
        """Harvest every built shard coordinator's workers into the
        active pipeline's fleet view (no-op under local execution or
        with telemetry disabled); returns workers collected.  The stats
        surfaces call this so a snapshot taken mid-run already carries
        ``repro_worker_*`` series — :meth:`close` harvests once more for
        the final ``--metrics-out`` write."""
        if self._execution != "sharded":
            return 0
        collected = 0
        for detector in self._detectors.values():
            inner = detector.wrapped
            if isinstance(inner, ShardCoordinator):
                collected += inner.collect_telemetry()
        return collected

    def close(self) -> None:
        """Release execution resources: the shard workers and the
        cache handle (committing any buffered on-disk writes).  Under
        sharded execution each coordinator harvests its workers'
        telemetry before shutting them down; open traces are closed so
        the export carries a root span for every session."""
        telemetry.get().tick_observer.service_closed(self._sessions)
        for detector in self._detectors.values():
            closer = getattr(detector.wrapped, "close", None)
            if closer is not None:
                closer()
        self._cache.close()

    # --------------------------------------------------------- serialization

    def snapshot(self, session_id: str) -> SessionSnapshot:
        return self._session(session_id).snapshot()

    def snapshot_all(self) -> list[SessionSnapshot]:
        return [s.snapshot() for s in self._sessions.values()]

    def restore(self, snapshot: SessionSnapshot) -> str:
        """Rebuild one session from its snapshot; returns its session id.

        Called alone, this is :meth:`restore_many` of the one snapshot
        (see there).  Inside :meth:`restore_many` — which builds every
        snapshot through here, so whatever watches this method sees each
        restored session — it builds the session at step 0 and leaves
        the replay and the admission to the batch.
        """
        batch = self._restoring
        if batch is None:
            return self.restore_many([snapshot])[0]
        state = SessionState(snapshot.state)
        if state.terminal:  # restored sealed: nothing to replay
            batch.append((QuerySession.from_sealed_snapshot(snapshot), None))
            return snapshot.session_id
        spec = snapshot.spec
        warm_frames = snapshot.warm_start_frames
        if warm_frames is None and spec.warm_start:
            # a submission that never ran warm-starts over the cache as the
            # snapshots before it leave it: replay those first
            self._replay(batch)
            warm_frames = self._cache.frames(spec.dataset)
        session = self._build_session(
            snapshot.session_id, spec, warm_frames or (), state, snapshot.horizons
        )
        batch.append((session, snapshot.steps_taken))
        return snapshot.session_id

    def restore_many(self, snapshots: Iterable[SessionSnapshot]) -> list[str]:
        """Rebuild sessions from their snapshots by deterministic replay,
        all of them together; returns their ids in snapshot order.

        Terminal snapshots restore *sealed*: no engine, no history and no
        replay — they can never be scheduled again, and the snapshot
        already answers every status/results poll.  Every other session is built
        at step 0: warm-start frames are re-absorbed from the cache (or,
        for a not-yet-started submission, taken fresh from the cache as
        the snapshots before it left it), a frame that fell out of the
        cache re-detected.  Then the recorded engine steps are re-run for
        all of them in lockstep rounds
        (:meth:`QuerySession.replay_steps`): each round plans one batch
        per session still short of its step count in one Thompson draw,
        fetches the round's frames per dataset in one batched call
        through the shared caching detector — all hits when the
        snapshots' frames are still cached, so no detector calls — and
        commits each session's share.  A session's decisions depend on
        its own seed and step count only, so the result is exactly what
        restoring the snapshots one at a time gives.

        The snapshot's horizon log drives the chunk-set evolution:
        chunks are taken up to the admission-time horizon first and
        re-extended at each recorded absorption point, so sessions that
        caught up with footage ingested mid-query replay bit-exact even
        though the repository has grown since.  Footage beyond the last
        logged horizon is *not* absorbed here — the next :meth:`sync`
        (or tick) picks it up, exactly as it would have for the live
        session.  A replayed session must land on the result frames its
        snapshot recorded; one that does not was saved under another
        decision stream (an older release, or a numpy whose Thompson draw
        changed) and raises :class:`StateError` naming it.  The check runs
        for every session whose *snapshot* is not terminal, one the replay
        itself turned terminal (and so sealed) included.  Sessions are
        admitted in snapshot order once every replay is done; none is
        admitted when a snapshot is invalid (an id already held, an
        unknown dataset) or a replay fails or misses its results.
        """
        snapshots = list(snapshots)
        ids: set[str] = set()
        for snapshot in snapshots:  # validate before building anything
            if snapshot.session_id in self._sessions or snapshot.session_id in ids:
                raise ValueError(f"session {snapshot.session_id!r} already exists")
            ids.add(snapshot.session_id)
            if not SessionState(snapshot.state).terminal:
                self._repository(snapshot.dataset)
        self._restoring = batch = []
        try:
            for snapshot in snapshots:
                self.restore(snapshot)
            self._replay(batch)
        finally:
            self._restoring = None
        for snapshot, (session, steps) in zip(snapshots, batch):
            # a submission that never ran recorded no results to replay; a
            # replayed session that sealed itself on the way is checked too
            if steps is None or snapshot.warm_start_frames is None:
                continue
            if session.result_frames() != sorted(snapshot.result_frames):
                raise StateError(
                    f"session {snapshot.session_id!r} replays to result frames "
                    f"{session.result_frames()}, not the recorded "
                    f"{sorted(snapshot.result_frames)}: it was saved under "
                    "another decision stream"
                )
        for session, steps in batch:
            if steps is None:  # restored sealed
                self._sessions[session.session_id] = session
            else:
                self._admit(session)
                # its horizon log may stop short of the repository's horizon
                self._behind[session.session_id] = session
            self._reserve_id(session.session_id)
        return [session.session_id for session, _steps in batch]

    def _replay(self, batch: list[tuple[QuerySession, int | None]]) -> None:
        """Bring every replayed session of ``batch`` up to its step count,
        in lockstep rounds; the ones already there, and the ones restored
        sealed (step count ``None``), cost nothing."""
        QuerySession.replay_steps(
            [(session, steps) for session, steps in batch if steps is not None],
            self._detect_coalesced,
        )

    def _reserve_id(self, session_id: str) -> None:
        """Keep fresh ids clear of restored ones (s7 -> next is s8)."""
        suffix = session_id[1:]
        if session_id.startswith("s") and suffix.isdigit():
            self._next_id = max(self._next_id, int(suffix) + 1)

    # ------------------------------------------------------------- internals

    def _repository(self, dataset: str) -> VideoRepository:
        repo = self._repos.get(dataset)
        if repo is None:
            raise KeyError(
                f"unknown dataset {dataset!r}; available: {sorted(self._repos)}"
            )
        return repo

    def _session(self, session_id: str) -> QuerySession:
        session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session {session_id!r}")
        return session

    def _shared_detector(self, dataset: str) -> CachingDetector:
        detector = self._detectors.get(dataset)
        if detector is None:
            # execution sits *inside* the cache so hits never pay the
            # (simulated) per-call overhead — a local detector and the
            # sharded coordinator alike only ever see cache misses
            if self._execution == "sharded":
                inner: Detector = ShardCoordinator(
                    self._repository(dataset),
                    self._shards,
                    detector_spec=self._detector_spec,
                    latency=self._detector_latency,
                    dataset=dataset,
                )
            else:
                inner = with_latency(
                    self._detector_factory(self._repository(dataset)),
                    self._detector_latency,
                )
            detector = CachingDetector(inner, self._cache, dataset)
            self._detectors[dataset] = detector
        return detector

    def _chunk_frames_for(self, dataset: str) -> int | None:
        if isinstance(self._chunk_frames, Mapping):
            return self._chunk_frames.get(dataset)
        return self._chunk_frames

    def _build_session(
        self,
        session_id: str,
        spec: SessionSpec,
        warm_frames,
        state: SessionState = SessionState.ACTIVE,
        horizons: tuple[tuple[int, int], ...] = (),
    ) -> QuerySession:
        """A session at step 0: its chunks taken up to the first logged
        horizon and its warm-start frames absorbed.  A restore replays
        its recorded steps afterwards (:meth:`restore_many`)."""
        repo = self._repository(spec.dataset)
        rng = DecisionRng(spec.seed)
        chunker = IncrementalChunker(
            repo,
            rng,
            chunk_frames=self._chunk_frames_for(spec.dataset),
            use_random_plus=self._use_random_plus,
        )
        log = [(int(steps), int(horizon)) for steps, horizon in horizons]
        if not log:
            # fresh submission (or a pre-ingestion snapshot): the whole
            # current repository is the admission-time chunk set
            log = [(0, repo.horizon)]
        chunks = chunker.take(up_to_horizon=log[0][1])
        # no detector: the tick and the restore replay commit with the
        # coalesced call's detections in hand (QuerySession.commit_step)
        engine = ExSample(
            chunks,
            None,
            self._discriminator_factory(repo, spec.category),
            rng=rng,
            batch_size=spec.batch_size,
            repository=repo,
        )
        # the detector behind the shared cache backs the replay so a
        # warm-start frame that fell out of the cache (process crash with
        # an in-memory backend, an operator wiping cache.sqlite) is
        # re-detected instead of silently skipped — skipping would silently
        # change every sampling decision a restored session makes after
        # the divergence point.  The replay's own lookup already missed,
        # so the re-detection bypasses the cache and the replay writes it
        # back.
        replayed, result_frames = replay_cached_frames(
            engine,
            self._cache,
            spec.dataset,
            category=spec.category,
            frames=warm_frames,
            detector=self._shared_detector(spec.dataset).wrapped,
        )
        return QuerySession(
            session_id,
            spec,
            engine,
            warm_start_frames=replayed,
            warm_result_frames=result_frames,
            state=state,
            chunker=chunker,
            horizon_log=log,
        )
