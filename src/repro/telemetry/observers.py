"""The instrumentation seam of the two hot functions.

``QueryService.tick`` and ``ShardCoordinator.detect_many`` call an
observer unconditionally (``telemetry.get().tick_observer`` /
``.dispatch_observer``): a live pipeline hands out the classes below,
``NullTelemetry`` their null twins.  An observer owns every clock read,
metric and span name, instrument handle and trace context of its
function, so new decision-path instrumentation goes in an observer
method (the null twin follows by construction), never inline —
``tests/test_hot_path_shape.py`` holds the two functions to that.

Observers keep per-tick / per-batch scratch and hang off the pipeline,
so one pipeline observes one tick loop at a time (the tracer's dispatch
slot already assumes it).  They only ever read what they are handed.
"""

from __future__ import annotations

from time import perf_counter

from .registry import FRAMES_BUCKETS, null_twin
from .trace import derive_trace_id, tick_tree

__all__ = ["TickObserver", "DispatchObserver", "NULL_TICK_OBSERVER", "NULL_DISPATCH_OBSERVER"]

_STAGES = ("plan", "coalesce", "detect", "commit")
_PLAN_SPLIT = ("draw", "score")  # Thompson sampling vs frame pick + bookkeeping
_SESSION_GAUGES = ("repro_serving_session_grant_frames", "repro_serving_session_deficit_frames")


class TickObserver:
    """What the serving loop reports: the per-tick series and the
    ``tick`` trace, each session's ``admission``/``plan``/``commit``
    spans, and the per-session gauges — which, like the session's trace,
    end when the session turns terminal."""

    def __init__(self, tel):
        self._tel = tel
        self._handles: dict | None = None  # resolved at the first working tick
        # session id -> (grant, deficit) gauges; non-terminal sessions only
        self.session_gauges: dict[str, list] = {}
        # the sessions the last tick granted frames: the only ones besides
        # this tick's whose grant gauge can move
        self._granted: list = []

    # ------------------------------------------- session edges outside a tick

    def admitted(self, session, started: float, warm_frames: int) -> None:
        """``submit`` built ``session``.  Its trace is born here: admission
        (validation, construction, warm-start replay) is the first answer
        to "why was this query's first result slow"."""
        tracer = self._tel.tracer
        if tracer.enabled:
            tracer.record_span(
                tracer.begin_trace(session.session_id), "admission",
                started, perf_counter() - started,
                dataset=session.spec.dataset, category=session.spec.category,
                warm_frames=warm_frames,
            )
        if session.state.terminal:  # satisfied by the warm start alone
            self.session_closed(session)

    def session_closed(self, session) -> None:
        """``session`` turned terminal (idempotent): close its trace and
        retire its gauges, so neither outlives it in a long-lived server."""
        tel, session_id = self._tel, session.session_id
        if tel.tracer.enabled:
            tel.tracer.finish_trace(derive_trace_id(session_id), session.state.value)
        if self.session_gauges.pop(session_id, None) is not None:
            for name in _SESSION_GAUGES:
                tel.registry.drop(name, {"session": session_id})

    def service_closed(self, sessions) -> None:
        """Sessions that never reached terminal still export a root span."""
        self._tel.tracer.finish_all({sid: s.state.value for sid, s in sessions.items()})
        # the next service's ticks start afresh, and hold no session of this one
        self._granted, self._active, self._written = [], [], []

    # ---------------------------------------------------------------- a tick

    def begin(self) -> None:
        self._start = perf_counter()

    def synced(self) -> None:
        self._sync_seconds = perf_counter() - self._start

    def scheduled(self, tick: int, active, allocation, granted=(), entered=()) -> None:
        """The tick has work: ``allocation`` splits it over ``granted``
        (its sessions, in submission order) out of the schedulable
        ``active``; ``entered`` joined the schedulable set since the last
        tick.  An idle round never gets here, so it counts nothing and
        files nothing.

        The per-session gauges cost O(granted + entered), not O(active):
        a grant gauge moves only for a session granted this tick or the
        last, and a session's series are born only when it first enters
        the schedulable set."""
        tel = self._tel
        self._tick, self._active = tick, active
        # stage time is summed over the tick's rounds and filed once at
        # tick end: a span per stage per round would tax the hot loop
        self._seconds = dict.fromkeys(_STAGES + _PLAN_SPLIT, 0.0)
        self._rounds = self._detect_frames = 0
        # begin_trace is idempotent and registers restored sessions (which
        # never passed through submit here), so every span has a home
        self._contexts = {} if tel.tracer.enabled else None
        if self._contexts is not None:
            for session in active:
                trace_id = tel.tracer.begin_trace(session.session_id)
                self._contexts[session.session_id] = (trace_id, tel.tracer.root_span_id(trace_id))
        if self._handles is None:
            # looked up once per pipeline: the tick path must not pay a
            # series-key lookup per emission
            hist = tel.histogram
            self._handles = {
                "schedulable": tel.gauge("repro_serving_sessions_schedulable"),
                "ticks": tel.counter("repro_serving_ticks_total"),
                "frames": tel.counter("repro_serving_frames_total"),
                "tick_seconds": hist("repro_serving_tick_seconds"),
                "tick_frames": hist("repro_serving_tick_frames", buckets=FRAMES_BUCKETS),
                **{s: hist("repro_serving_stage_seconds", {"stage": s}) for s in _STAGES},
                **{s: hist("repro_serving_plan_seconds", {"stage": s}) for s in _PLAN_SPLIT},
            }
        self._handles["schedulable"].set(len(active))
        for session in self._granted:
            # granted last tick, not this one: back to 0 while schedulable
            # (one that left the set keeps its value until it returns)
            gauges = self.session_gauges.get(session.session_id)
            if gauges and session.session_id not in allocation and session.schedulable:
                gauges[0].set(0)
        self._granted, self._written = granted, [*granted, *entered]
        for session in self._written:
            session_id = session.session_id
            gauges = self.session_gauges.get(session_id)
            if gauges is None:
                gauges = self.session_gauges[session_id] = [
                    tel.gauge(name, {"session": session_id}) for name in _SESSION_GAUGES
                ]
            gauges[0].set(allocation.get(session_id, 0))
        self._mark = self._span_mark = perf_counter()

    def _session_span(self, session, name: str, frames: int, seconds=None) -> None:
        """One per-session span from the previous observed event: to now,
        or ``seconds`` long when the session's share is known."""
        start = self._span_mark
        if seconds is None:
            seconds = perf_counter() - start
        self._tel.tracer.record_span(
            self._contexts[session.session_id][0], name,
            start, seconds, tick=self._tick, frames=frames,
        )
        self._span_mark = start + seconds

    def planned(self, session, pending) -> None:
        """The sessions of a round plan in one call, then report one by
        one: each ``plan`` span is the session's own share (its draw and
        score seconds), laid end to end from the start of the planning."""
        timings, seconds = session.last_plan_timings, self._seconds
        seconds["draw"] += timings["draw"]
        seconds["score"] += timings["score"]
        if self._contexts is not None:
            self._session_span(
                session, "plan", len(pending), timings["draw"] + timings["score"]
            )

    def lap(self, stage: str) -> None:
        """``stage`` of the current round just ended."""
        now = perf_counter()
        self._seconds[stage] += now - self._mark
        self._mark = self._span_mark = now
        if stage == "commit":  # the last stage: a round is done
            self._rounds += 1

    def begin_dispatch(self, dataset: str, plans, frames) -> None:
        """Declare which traces ride this coalesced batch, so the shard
        coordinator can parent its dispatch spans."""
        self._detect_frames += len(frames)
        if self._contexts is not None:
            self._tel.tracer.begin_dispatch(
                self._contexts[session.session_id]
                for session, _pending in plans
                if session.spec.dataset == dataset
            )

    def end_dispatch(self) -> None:
        """From a ``finally``: an error never leaks contexts into a later batch."""
        if self._contexts is not None:  # else begin_dispatch declared none
            self._tel.tracer.end_dispatch()

    def committed(self, session, count: int) -> None:
        if self._contexts is not None:
            self._session_span(session, "commit", count)
            if session.state.terminal:
                self.session_closed(session)

    def settled(self, deficits) -> None:
        """The books are settled (also after a failed round): publish the
        debt of each session written at :meth:`scheduled` (no other
        session's debt moved), close the ones that turned terminal."""
        for session in self._written:
            if session.state.terminal:
                self.session_closed(session)
            else:
                self.session_gauges[session.session_id][1].set(deficits.get(session.session_id, 0))

    def finish(self, processed) -> None:
        """The tick completed: emit its series, file its trace."""
        handles, seconds, rounds = self._handles, self._seconds, self._rounds
        for name in _STAGES + _PLAN_SPLIT:
            handles[name].observe(seconds[name])
        frames = sum(processed.values())
        handles["ticks"].inc()
        handles["frames"].inc(frames)
        duration = perf_counter() - self._start
        handles["tick_seconds"].observe(duration)
        handles["tick_frames"].observe(frames)

        def tree() -> dict:  # built only for a tick slow enough to keep
            stages = [("sync", self._sync_seconds, {})]
            for name in _STAGES:
                args = {"rounds": rounds}
                if name == "detect":
                    args["frames"] = self._detect_frames
                stages.append((name, seconds[name], args))
            return tick_tree(
                self._tick, duration, stages,
                tick=self._tick, frames=frames, sessions=len(self._active),
            )

        self._tel.slow_ticks.offer(duration, tree)


class DispatchObserver:
    """What one ``detect_many`` batch reports: the per-shard
    ``repro_shard_*`` series, the coordinator's ``repro_exec_*`` batch
    view, and a ``shard-dispatch`` → ``worker-detect`` span pair per
    shard for every trace riding the batch."""

    def __init__(self, tel):
        self._tel = tel

    def begin(self) -> None:
        self._start = perf_counter()
        self._sent: dict[int, float] = {}

    def sent(self, shard_id: int) -> None:
        self._sent[shard_id] = perf_counter()

    def in_flight(self, requests: int) -> None:
        self._tel.gauge("repro_shard_inflight_requests").set(requests)
        self._tel.gauge("repro_shard_inflight_peak_requests").set_max(requests)

    def answered(self, shard_id: int, frames: int, worker_span) -> None:
        """``shard_id`` answered for ``frames`` frames; ``worker_span`` is
        the reply's ``span`` — what the worker measured on its side."""
        tel, start, end = self._tel, self._sent[shard_id], perf_counter()
        # one shard-dispatch span per trace the tick loop declared for this
        # batch (none when tracing is off or the call is untraced, e.g. a
        # warm-up): the batch coalesces many sessions, and each trace's
        # tree must stand alone (ids are per-trace counters, so the
        # duplication costs events, never determinism)
        for trace_id, parent in tel.tracer.dispatch_contexts():
            dispatch_id = tel.tracer.record_span(
                trace_id, "shard-dispatch", start, end - start,
                parent_id=parent, shard=shard_id, frames=frames,
            )
            if dispatch_id:
                duration = min(float(worker_span["duration_seconds"]), end - start)
                tel.tracer.record_span(
                    trace_id, "worker-detect", max(start, end - duration), duration,
                    parent_id=dispatch_id, tid=shard_id + 1, shard=shard_id,
                    frames=int(worker_span["frames"]),
                    detector_calls=int(worker_span["detector_calls"]),
                )
        # send-to-merge latency as the coordinator experiences it
        # (includes any wait behind earlier shards' responses)
        labels = {"shard": shard_id}
        tel.histogram("repro_shard_request_seconds", labels).observe(perf_counter() - start)
        tel.counter("repro_shard_requests_total", labels).inc()
        tel.counter("repro_shard_frames_total", labels).inc(frames)
        # the worker's own clock: over wall time, this shard's utilisation
        tel.counter("repro_shard_busy_seconds_total", labels).inc(
            float(worker_span["duration_seconds"])
        )

    def finish(self, frames: int) -> None:
        """The batch merged: the coordinator is the one parallel
        execution backend, so this is the exec batch series' one writer."""
        tel = self._tel
        tel.counter("repro_exec_batches_total").inc()
        tel.counter("repro_exec_frames_total").inc(frames)
        tel.histogram("repro_exec_batch_frames", buckets=FRAMES_BUCKETS).observe(frames)
        tel.histogram("repro_exec_batch_seconds").observe(perf_counter() - self._start)


NULL_TICK_OBSERVER = null_twin(TickObserver)
NULL_DISPATCH_OBSERVER = null_twin(DispatchObserver)
