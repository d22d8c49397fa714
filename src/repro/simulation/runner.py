"""Drive one scenario against the real serving stack, deterministically.

The runner owns the whole lifecycle of a simulated deployment: it
journals the scenario's initial footage, builds a real
:class:`~repro.serving.service.QueryService` (real cache backend, real
schedulers, real worker pools), submits the scenario's sessions at their
arrival ticks, applies mid-run ingestion through the same journal path
the CLI uses, injects the fault plan, and ticks the service — recording
every externally visible decision into a flat **event log**.

The event log is the harness's currency.  It contains only quantities
that are deterministic by design (frame indices, d0 counts, result
totals, integer allocations, state transitions) and none that are not
(wall-clock, thread interleavings, raw-detector call counts under
parallel faults), so two runs of the same scenario must produce
*byte-identical* logs — asserted by the test suite — and the log doubles
as the decision stream the oracle parity check replays.

Crash-restart is the strongest fault: the runner persists the state
directory, discards the entire process state (service, sessions,
schedulers, in-memory caches — a crash loses what memory held), rebuilds
from disk exactly as ``python -m repro serve`` would, and then *proves*
the restore: every rebuilt session's replayed decision stream must match
what the live run already logged, and every status field must survive
the round trip.

Sessions are read through :attr:`QuerySession.history`, never through
their engine: a session drops its engine when it turns terminal (it
seals) but keeps its history, so the step that ended it is logged like
any other.  Only a session restored sealed has no history — its
snapshot is all the state directory held — and the restore proof
checks its status alone.
"""

from __future__ import annotations

import hashlib
import pathlib
import tempfile
from dataclasses import dataclass, field

from ..detection.cache import DetectionCache, SqliteBackend
from ..detection.detector import OracleDetector, SimulatedDetector
from ..distributed.worker import DetectorSpec
from ..serving import ingest as serving_ingest
from ..serving import state as serving_state
from ..serving.ingest import IngestEntry
from ..serving.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)
from ..serving.service import QueryService
from ..video.repository import VideoRepository, empty_repository
from .faults import FaultController, FaultError, FlakyDetector
from .invariants import (
    InvariantViolation,
    check_allocation_records,
    check_budget_conservation,
    check_session_consistency,
    check_tick_overshoot,
)
from .oracle import materialize_repositories, reference_check
from .scenario import Scenario

__all__ = ["RecordingScheduler", "SimulationReport", "SimulationRunner", "run_scenario"]


class RecordingScheduler:
    """Wraps a budget policy and records every grant for the invariant
    checker — the scheduler-facing equivalent of the event log.  A policy
    may leave zero grants out; the record fills them in from the ids it
    was handed, so it covers every requesting session."""

    def __init__(self, inner, records: list):
        self._inner = inner
        self._records = records

    def allocate(self, sessions, budget, rng):
        allocation = self._inner.allocate(sessions, budget, rng)
        ids = tuple(s.session_id for s in sessions)
        self._records.append(
            (ids, int(budget), {sid: allocation.get(sid, 0) for sid in ids})
        )
        return allocation


@dataclass
class SimulationReport:
    """The outcome of one scenario run (checks already passed)."""

    scenario: Scenario
    event_log: list[str] = field(default_factory=list)
    ticks_run: int = 0
    detector_calls: int = 0
    steps_committed: int = 0
    sessions: dict[str, dict] = field(default_factory=dict)
    crashes: int = 0
    detector_errors: int = 0
    #: deterministic per-run observability summary (``simulate --json``
    #: surfaces it as the scenario's ``metrics`` block) — only quantities
    #: that are reproducible by design, never wall-clock
    metrics: dict = field(default_factory=dict)

    def log_digest(self) -> str:
        """SHA-256 over the event log — the bit-reproducibility witness."""
        payload = "\n".join(self.event_log).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _sid_key(sid: str) -> tuple[int, str]:
    """Numeric-aware session-id ordering (s2 before s10)."""
    return (int(sid[1:]), sid) if sid[1:].isdigit() else (1 << 30, sid)


def _fmt(processed: dict[str, int]) -> str:
    if not processed:
        return "-"
    return " ".join(
        f"{sid}={processed[sid]}" for sid in sorted(processed, key=_sid_key)
    )


class SimulationRunner:
    """One scenario, start to finish.  See the module docstring."""

    def __init__(self, scenario: Scenario, workdir: str | pathlib.Path):
        self.scenario = scenario
        self.state_dir = pathlib.Path(workdir) / f"scenario-{scenario.seed}"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.log: list[str] = []
        self.controller = FaultController()
        self.alloc_records: list[tuple[tuple[str, ...], int, dict[str, int]]] = []
        self.logged_steps: dict[str, int] = {}
        self.logged_stream: dict[str, list[tuple[int, int, int]]] = {}
        self.last_state: dict[str, str] = {}
        self.session_ids: list[str] = []
        self.per_tick_growth: list[dict[str, int]] = []
        self.total_allocated: dict[str, int] = {}
        self.crashes = 0
        self.detector_errors = 0
        self.cursor = 0
        self.cache: DetectionCache | None = None
        self.service: QueryService | None = None

    # ------------------------------------------------------------ plumbing

    def _emit(self, line: str) -> None:
        self.log.append(line)

    def _raw_detector(self, repository: VideoRepository):
        if self.scenario.detector == "noisy":
            return SimulatedDetector(
                repository,
                miss_rate=self.scenario.miss_rate,
                false_positive_rate=self.scenario.false_positive_rate,
                seed=self.scenario.seed,
            )
        return OracleDetector(repository)

    def _make_cache(self) -> DetectionCache:
        if self.scenario.cache_backend == "sqlite":
            return DetectionCache(SqliteBackend(self.state_dir / "cache.sqlite"))
        return DetectionCache()

    def _make_policy(self):
        name = self.scenario.scheduler
        if name == "priority":
            inner = PriorityScheduler()
        elif name == "thompson":
            inner = ThompsonSumScheduler()
        else:
            inner = RoundRobinScheduler()
        return RecordingScheduler(inner, self.alloc_records)

    def _dataset_names(self) -> list[str]:
        names = [d.name for d in self.scenario.datasets]
        for entry in serving_ingest.load_entries(self.state_dir):
            if entry.dataset not in names:
                names.append(entry.dataset)
        return names

    def _build_service(self) -> QueryService:
        repos = {name: empty_repository(name) for name in self._dataset_names()}
        if self.scenario.execution == "sharded":
            # detectors are built *inside* the worker processes from a
            # picklable spec; the FlakyDetector seam stays out (its
            # controller cannot cross a process boundary), which is why
            # sharded scenarios carry worker_kill faults instead of
            # detector_error ones (see scenario.sharded_variant)
            noisy = self.scenario.detector == "noisy"
            return QueryService(
                repos,
                cache=self.cache,
                scheduler=self._make_policy(),
                frames_per_tick=self.scenario.frames_per_tick,
                chunk_frames=self.scenario.chunk_frames,
                batch_size=1,
                execution="sharded",
                shards=self.scenario.shards,
                detector_spec=DetectorSpec(
                    kind="simulated" if noisy else "oracle",
                    miss_rate=self.scenario.miss_rate if noisy else 0.1,
                    false_positive_rate=(
                        self.scenario.false_positive_rate if noisy else 0.02
                    ),
                    seed=self.scenario.seed,
                ),
                detector_latency=self.scenario.detector_latency,
                seed=self.scenario.seed,
            )
        return QueryService(
            repos,
            cache=self.cache,
            scheduler=self._make_policy(),
            frames_per_tick=self.scenario.frames_per_tick,
            chunk_frames=self.scenario.chunk_frames,
            detector_factory=lambda repo: FlakyDetector(
                self._raw_detector(repo), self.controller
            ),
            batch_size=1,
            detector_latency=self.scenario.detector_latency,
            seed=self.scenario.seed,
        )

    def _register_missing(self, name: str) -> VideoRepository:
        return empty_repository(name)

    def _apply_journal(self) -> None:
        self.cursor = serving_ingest.apply_journal(
            self.service,
            self.state_dir,
            base_seed=self.scenario.seed,
            start_index=self.cursor,
            on_missing_dataset=self._register_missing,
        )

    # ------------------------------------------------------------- phases

    def _journal_initial_world(self) -> None:
        for plan in self.scenario.datasets:
            for clip in plan.clips:
                entry = IngestEntry(
                    dataset=plan.name,
                    frames=clip.frames,
                    clips=1,
                    category=clip.category if clip.instances > 0 else None,
                    instances=clip.instances if clip.category else 0,
                    mean_duration=clip.mean_duration,
                    skew_fraction=clip.skew_fraction,
                )
                index = serving_ingest.append_entry(self.state_dir, entry)
                self._emit(
                    f"journal entry={index} dataset={entry.dataset} "
                    f"frames={entry.frames} category={entry.category} "
                    f"instances={entry.instances}"
                )

    def _submit(self, tick: int, plan) -> None:
        try:
            sid = self.service.submit(
                plan.dataset,
                plan.category,
                limit=plan.limit,
                max_samples=plan.max_samples,
                priority=plan.priority,
                warm_start=plan.warm_start,
                batch_size=plan.batch_size,
                follow=plan.follow,
            )
        except (ValueError, KeyError) as exc:
            self._emit(
                f"submit-rejected tick={tick} dataset={plan.dataset} "
                f"category={plan.category}: {exc}"
            )
            self.session_ids.append("")  # keep op indices aligned
            return
        session = self.service.sessions[sid]
        self.session_ids.append(sid)
        self.logged_steps.setdefault(sid, 0)
        self.logged_stream.setdefault(sid, [])
        self.last_state[sid] = session.state.value
        self._emit(
            f"submit {sid} tick={tick} dataset={plan.dataset} "
            f"category={plan.category} limit={plan.limit} "
            f"max_samples={plan.max_samples} batch={plan.batch_size} "
            f"follow={plan.follow} seed={session.spec.seed} "
            f"warm={session.warm_frames_replayed}"
        )

    def _apply_op(self, tick: int, op) -> None:
        if op.session_index >= len(self.session_ids):
            self._emit(f"op-skipped tick={tick} {op.op} #{op.session_index}")
            return
        sid = self.session_ids[op.session_index]
        if not sid:
            self._emit(f"op-skipped tick={tick} {op.op} #{op.session_index}")
            return
        try:
            getattr(self.service, op.op)(sid)
            self._emit(f"op {op.op} {sid} tick={tick}")
        except (ValueError, KeyError) as exc:
            self._emit(f"op-rejected {op.op} {sid} tick={tick}: {exc}")

    def _apply_ingest(self, tick: int, plan) -> None:
        entry = IngestEntry(
            dataset=plan.dataset,
            frames=plan.frames,
            clips=plan.clips,
            category=plan.category if plan.instances > 0 else None,
            instances=plan.instances if plan.category else 0,
            mean_duration=plan.mean_duration,
            skew_fraction=plan.skew_fraction,
        )
        index = serving_ingest.append_entry(self.state_dir, entry)
        self._apply_journal()
        self._emit(
            f"ingest tick={tick} entry={index} dataset={entry.dataset} "
            f"clips={entry.clips} frames={entry.frames} "
            f"category={entry.category} instances={entry.instances}"
        )

    def _apply_fault(self, tick: int, fault) -> None:
        kind = fault.kind
        if kind == "cache_drop":
            self.service.cache.clear()
            self._emit(f"fault tick={tick} cache_drop")
        elif kind == "detector_error":
            self.controller.fail_next(int(fault.value))
            self._emit(f"fault tick={tick} detector_error calls={int(fault.value)}")
        elif kind == "latency_spike":
            self.controller.latency = float(fault.value)
            self._emit(f"fault tick={tick} latency_spike")
        elif kind == "latency_clear":
            self.controller.latency = 0.0
            self._emit(f"fault tick={tick} latency_clear")
        elif kind == "journal_torn_write":
            path = serving_ingest.journal_path(self.state_dir)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('{"dataset": "torn')  # no newline: a torn append
            self._emit(f"fault tick={tick} journal_torn_write")
        elif kind == "worker_kill":
            self._worker_kill(tick, int(fault.value))
        elif kind == "crash_restart":
            self._crash_restart(tick)
        else:  # pragma: no cover - scenario validation rejects these
            raise ValueError(f"unknown fault kind {kind!r}")

    def _worker_kill(self, tick: int, which: int) -> None:
        """Hard-kill one shard worker in every dataset's coordinator.

        The strongest distributed fault the coordinator promises to
        absorb transparently: the next batch routed to the dead shard
        respawns a replacement from the worker's spec and — the property
        the oracle check enforces — changes no logged decision.  A no-op (logged as such) under
        local execution or before any worker was spawned.
        """
        killed: list[str] = []
        for name in self.service.dataset_names():
            coordinator = self.service.shard_backend(name)
            if coordinator is None:
                continue
            shard = which % coordinator.num_shards
            if coordinator.kill_worker(shard):
                killed.append(f"{name}:{shard}")
        self._emit(
            f"fault tick={tick} worker_kill "
            f"killed={','.join(killed) if killed else '-'}"
        )

    def _crash_restart(self, tick: int) -> None:
        """Kill the process state, rebuild from disk, prove the restore."""
        pre_statuses = {
            sid: s.status().to_dict() for sid, s in self.service.sessions.items()
        }
        # a restart clears in-flight transient faults: armed-but-unfired
        # detector failures belong to the process that died, and leaving
        # them armed would make the restore's own replay detections fail
        self.controller = FaultController()
        self.controller.latency = 0.0
        serving_state.save_sessions(self.service, self.state_dir)
        self.service.cache.flush()
        self.service.close()
        # everything in memory dies with the process: service, sessions,
        # scheduler state, deficits — and the cache too unless its
        # backend is on disk
        self.cache = self._make_cache()
        self.service = self._build_service()
        self.cursor = 0
        self._apply_journal()
        try:
            self.service.restore_many(serving_state.load_snapshots(self.state_dir))
        except serving_state.StateError as exc:  # a replay missed its results
            raise InvariantViolation(
                self.scenario.seed, f"crash-restart at tick {tick}: {exc}"
            ) from exc
        self.crashes += 1
        # the restore proof: every rebuilt session must land exactly
        # where the live run logged it
        for sid, session in self.service.sessions.items():
            post = session.status().to_dict()
            pre = pre_statuses.get(sid)
            if pre != post:
                raise InvariantViolation(
                    self.scenario.seed,
                    f"crash-restart at tick {tick}: session {sid} status "
                    f"changed across restore: {pre} -> {post}",
                )
            hist = session.history
            if hist is None:  # restored sealed: its snapshot is all there is
                continue
            expected = self.logged_stream.get(sid, [])
            if len(hist) != len(expected):
                raise InvariantViolation(
                    self.scenario.seed,
                    f"crash-restart at tick {tick}: session {sid} replayed "
                    f"{len(hist)} steps, live run had logged {len(expected)}",
                )
            frames = hist.frame_indices
            d0 = hist.d0_counts
            results = hist.results
            for i, (frame, dd, rr) in enumerate(expected):
                got = (int(frames[i]), int(d0[i]), int(results[i]))
                if got != (frame, dd, rr):
                    raise InvariantViolation(
                        self.scenario.seed,
                        f"crash-restart at tick {tick}: session {sid} replay "
                        f"diverges at step {i + 1}: logged {(frame, dd, rr)}, "
                        f"replayed {got}",
                    )
        self._emit(
            f"fault tick={tick} crash_restart "
            f"restored={len(self.service.sessions)}"
        )

    def _log_new_steps(self) -> dict[str, int]:
        growth: dict[str, int] = {}
        for sid, session in self.service.sessions.items():
            # a sealed session keeps its history, so the step that made
            # it terminal is logged too
            hist = session.history
            if hist is None:
                continue
            done = self.logged_steps.get(sid, 0)
            if len(hist) <= done:
                continue
            frames = hist.frame_indices
            d0 = hist.d0_counts
            results = hist.results
            for i in range(done, len(hist)):
                record = (int(frames[i]), int(d0[i]), int(results[i]))
                self.logged_stream.setdefault(sid, []).append(record)
                self._emit(
                    f"step {sid} n={i + 1} frame={record[0]} d0={record[1]} "
                    f"results={record[2]}"
                )
            growth[sid] = len(hist) - done
            self.logged_steps[sid] = len(hist)
        return growth

    def _log_state_changes(self, tick: int) -> None:
        for sid, session in self.service.sessions.items():
            state = session.state.value
            if self.last_state.get(sid) != state:
                self._emit(f"state {sid} {self.last_state.get(sid)}->{state} tick={tick}")
                self.last_state[sid] = state

    # ---------------------------------------------------------------- run

    def run(self) -> SimulationReport:
        scenario = self.scenario
        self._emit(
            f"scenario seed={scenario.seed} profile={scenario.profile} "
            f"scheduler={scenario.scheduler} fpt={scenario.frames_per_tick} "
            f"ticks={scenario.ticks} chunk={scenario.chunk_frames} "
            f"backend={scenario.cache_backend} "
            f"detector={scenario.detector} execution={scenario.execution} "
            f"shards={scenario.shards}"
        )
        self._journal_initial_world()
        self.cache = self._make_cache()
        self.service = self._build_service()
        self._apply_journal()

        ticks_run = 0
        try:
            last_event = max(
                [s.at_tick for s in scenario.sessions]
                + [i.at_tick for i in scenario.ingests]
                + [f.at_tick for f in scenario.faults]
                + [o.at_tick for o in scenario.ops]
                + [0]
            )
            for tick in range(scenario.ticks):
                for plan in scenario.sessions:
                    if plan.at_tick == tick:
                        self._submit(tick, plan)
                for op in scenario.ops:
                    if op.at_tick == tick:
                        self._apply_op(tick, op)
                for ingest in scenario.ingests:
                    if ingest.at_tick == tick:
                        self._apply_ingest(tick, ingest)
                for fault in scenario.faults:
                    if fault.at_tick == tick:
                        self._apply_fault(tick, fault)

                alloc_before = len(self.alloc_records)
                if self.service.schedulable_sessions():
                    try:
                        processed = self.service.tick()
                        # a tick reports its granted sessions only: the
                        # rest of the scheduled ones processed nothing
                        fresh = self.alloc_records[alloc_before:]
                        ids = fresh[-1][0] if fresh else ()
                        processed = {sid: processed.get(sid, 0) for sid in ids}
                        self._emit(f"tick {tick} processed {_fmt(processed)}")
                    except FaultError:
                        self.detector_errors += 1
                        self._emit(f"tick {tick} detector-error")
                    ticks_run += 1
                else:
                    self._emit(f"tick {tick} idle")
                    if tick >= last_event and all(
                        s.state.terminal
                        for s in self.service.sessions.values()
                    ) and self.service.sessions:
                        self._emit(f"terminal-exit tick={tick}")
                        break
                for ids, budget, alloc in self.alloc_records[alloc_before:]:
                    self._emit(f"alloc tick={tick} {_fmt(alloc)}")
                    for sid, share in alloc.items():
                        self.total_allocated[sid] = (
                            self.total_allocated.get(sid, 0) + share
                        )
                self.per_tick_growth.append(self._log_new_steps())
                self._log_state_changes(tick)

            serving_state.save_sessions(self.service, self.state_dir)
            self.service.cache.flush()
            return self._finalize(ticks_run)
        finally:
            if self.service is not None:
                self.service.close()

    def _finalize(self, ticks_run: int) -> SimulationReport:
        scenario = self.scenario
        service = self.service
        statuses = {st.session_id: st.to_dict() for st in service.statuses()}
        for sid in sorted(statuses, key=_sid_key):
            st = statuses[sid]
            self._emit(
                f"final {sid} state={st['state']} results={st['results_found']} "
                f"frames={st['frames_processed']}"
            )
        self._emit(f"detector-calls {service.detector_calls}")

        batch_sizes = {
            sid: s.spec.batch_size for sid, s in service.sessions.items()
        }
        clean = self.crashes == 0 and self.detector_errors == 0
        check_allocation_records(
            scenario.seed, self.alloc_records, scenario.frames_per_tick
        )
        check_tick_overshoot(
            scenario.seed,
            self.per_tick_growth,
            scenario.frames_per_tick,
            batch_sizes,
        )
        check_budget_conservation(
            scenario.seed,
            self.total_allocated,
            {sid: n for sid, n in self.logged_steps.items()},
            batch_sizes,
            service.deficits,
            clean,
        )
        for status in statuses.values():
            check_session_consistency(scenario.seed, status)

        # oracle parity: replay every session standalone over the fully
        # materialized world and diff the decision streams
        entries = serving_ingest.load_entries(self.state_dir)
        world = materialize_repositories(
            self._dataset_names(), entries, scenario.seed
        )
        for snapshot in service.snapshot_all():
            reference_check(
                scenario.seed,
                snapshot,
                self.logged_stream.get(snapshot.session_id, []),
                world[snapshot.dataset],
                self._raw_detector,
                scenario.chunk_frames,
                noisy_detector=scenario.detector == "noisy",
            )

        cache_stats = service.cache.stats
        return SimulationReport(
            scenario=scenario,
            event_log=list(self.log),
            ticks_run=ticks_run,
            detector_calls=service.detector_calls,
            steps_committed=sum(self.logged_steps.values()),
            sessions={
                sid: service.results(sid)
                for sid in sorted(service.sessions, key=_sid_key)
            },
            crashes=self.crashes,
            detector_errors=self.detector_errors,
            metrics={
                "ticks_run": ticks_run,
                "steps_committed": sum(self.logged_steps.values()),
                "detector_calls": service.detector_calls,
                # post-clear when a cache_drop fault fired (clear() resets
                # accounting), so rates always describe one population
                "cache_hits": cache_stats.hits,
                "cache_misses": cache_stats.misses,
                "cache_inserts": cache_stats.inserts,
                "cache_batches": cache_stats.batches,
                "crashes": self.crashes,
                "detector_errors": self.detector_errors,
            },
        )


def run_scenario(
    scenario: Scenario, workdir: str | pathlib.Path | None = None
) -> SimulationReport:
    """Run one scenario end to end; raises
    :class:`~repro.simulation.invariants.InvariantViolation` on any
    oracle-parity or invariant failure.  ``workdir`` keeps the state
    directory around for inspection; by default it lives and dies in a
    temp dir."""
    if workdir is not None:
        return SimulationRunner(scenario, workdir).run()
    with tempfile.TemporaryDirectory(prefix="repro-sim-") as tmp:
        return SimulationRunner(scenario, tmp).run()
