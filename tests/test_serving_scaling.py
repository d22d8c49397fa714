"""A tick touches only the sessions it grants: the live and ready indexes.

``QueryService`` keeps the non-terminal sessions in a live index beside
the map of every session, and the schedulable ones in a ready index that
sessions update at events (plan, commit, pause, resume, cancel, absorbed
footage).  ``sync`` walks sessions only when a repository's horizon moved
or a session is still owed footage, and a tick plans, commits and
settles only the sessions the scheduler granted frames.  The contracts
under test, none of them by the clock:

* *equivalence* — after any sequence of operations the indexes answer
  exactly what a walk over every session would: same objects, same
  order, same absorbed footage;
* *cost* — with hundreds of terminal residents a tick looks at the live
  sessions only (counted reads), and keeps doing so as sessions churn;
  at a fixed budget a tick makes as many readiness evaluations with a
  thousand long-lived sessions as with eight (O(frames granted)), and a
  sync with no new footage makes no absorb call;
* *server* — the per-tick and per-admission paths of
  ``AsyncQueryServer`` neither copy nor walk the whole map, and the
  tenant quota counts non-terminal sessions;
* *memory* — a terminal session holds no engine (counted live ``Chunk``
  objects and dead weakrefs, not bytes), whichever way it ended, and
  sealing changes nothing it reports;
* *answers* — a seeded churn of one-batch sessions through the server
  returns the payloads it returned before the index existed.
"""

import asyncio
import collections
import dataclasses
import gc
import hashlib
import json
import random
import time
import weakref

import numpy as np
import pytest
from contracts import clip_repository

from repro import telemetry
from repro.core.chunking import Chunk
from repro.server import AsyncQueryServer, ServerConfig, ServerThread
from repro.serving import QueryService, ServingClient, SessionState
from repro.serving.scheduler import SCHEDULERS
from repro.serving.session import QuerySession, SessionSnapshot
from repro.simulation.runner import RecordingScheduler
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances

RESIDENTS = 500


def clip_instances(start, frames, count, start_id):
    rng = np.random.default_rng((7, start))
    return place_instances(
        count, frames, rng, mean_duration=60, skew_fraction=None,
        category="bus", with_boxes=False, start_id=start_id,
        frame_offset=start,
    )


def growing_repo():
    """One clip of footage that later clips can be appended to."""
    return clip_repository("cam", (2400,), clip_instances(0, 2400, 8, start_id=0))


def fixed_repo(total_frames=20_000, count=25):
    rng = np.random.default_rng(0)
    buses = place_instances(
        count, total_frames, rng, mean_duration=120, skew_fraction=0.1,
        category="bus", with_boxes=False,
    )
    return single_clip_repository(total_frames, list(buses))


def with_residents(service, dataset, count=RESIDENTS):
    """``count`` terminal sessions: most cancelled, every tenth run to
    its one-batch end."""
    for i in range(count):
        sid = service.submit(dataset, "bus", limit=1, max_samples=8,
                             batch_size=8, seed=i, warm_start=False)
        if i % 10:
            service.cancel(sid)
        else:
            while not service.sessions[sid].state.terminal:
                service.tick()
    assert all(s.state.terminal for s in service.sessions.values())


# ------------------------------------------------------------ equivalence

def assert_index_matches_full_walk(service, repo):
    expected = [s for s in service.sessions.values() if s.schedulable]
    got = service.schedulable_sessions()
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
    # what one absorb_new_footage() per session ever held would return
    # (no batch is ever left pending here: the detector never fails)
    owed = {
        sid: repo.horizon - s.horizon
        for sid, s in service.sessions.items()
        if not s.state.terminal and s.horizon < repo.horizon
    }
    assert service.sync() == owed
    assert service.sync() == {}


@pytest.mark.parametrize("seed", range(24))
def test_index_equals_a_walk_over_every_session(seed):
    rng = random.Random(seed)
    repo = growing_repo()
    first = QueryService(repo, chunk_frames=600, frames_per_tick=16, seed=seed)
    second = QueryService(repo, chunk_frames=600, frames_per_tick=16, seed=seed)
    next_instance = [1000]

    def any_session(predicate=lambda s: True):
        pool = [s for s in first.sessions.values() if predicate(s)]
        return rng.choice(pool) if pool else None

    def submit():
        first.submit("cam", "bus", limit=rng.choice([1, 3, None]),
                     max_samples=rng.choice([8, 40, 200]),
                     batch_size=rng.choice([1, 8]),
                     warm_start=rng.random() < 0.5)

    def submit_warm_complete():
        # a limit the cached frames already satisfy completes inside
        # submit(): the session enters terminal and is never scheduled
        before = len(first.sessions)
        sid = first.submit("cam", "bus", limit=1, warm_start=True)
        assert len(first.sessions) == before + 1
        if first.status(sid).warm_frames_replayed and first.status(sid).satisfied:
            assert first.sessions[sid].state is SessionState.COMPLETED

    def submit_follow():
        first.submit("cam", "bus", limit=rng.choice([2, None]), follow=True,
                     max_samples=rng.choice([30, None]), warm_start=False)

    def tick():
        rng.choice([first, second]).tick()

    def pause():
        session = any_session(lambda s: not s.state.terminal)
        if session is not None:
            first.pause(session.session_id)

    def resume():
        session = any_session(lambda s: s.state is SessionState.PAUSED)
        if session is not None:
            first.resume(session.session_id)

    def cancel():
        session = any_session()
        if session is not None:
            first.cancel(session.session_id)

    def cancel_behind_the_service():
        session = any_session(lambda s: not s.state.terminal)
        if session is not None:
            session.cancel()

    def feed():
        frames = rng.choice([600, 900])
        start = repo.horizon
        instances = clip_instances(start, frames, 3, start_id=next_instance[0])
        next_instance[0] += 3
        if rng.random() < 0.5:
            first.feed("cam", frames, instances)
        else:  # around the services: the next sync finds it
            repo.append_clip(frames, instances)

    def restore(terminal):
        session = any_session(
            lambda s: s.state.terminal == terminal
            and s.session_id not in second.sessions
        )
        if session is not None:
            second.restore(first.snapshot(session.session_id))
            restored = second.sessions[session.session_id]
            assert (restored.history is None) == terminal

    ops = [submit, submit, submit_warm_complete, submit_follow, tick, tick,
           tick, pause, resume, cancel, cancel_behind_the_service, feed,
           lambda: restore(terminal=False), lambda: restore(terminal=True)]
    submit()
    for _ in range(48):
        rng.choice(ops)()
        for service in (first, second):
            assert_index_matches_full_walk(service, repo)
    for service in (first, second):
        service.run_until_idle(max_ticks=2000)
        assert_index_matches_full_walk(service, repo)
        assert service.live_sessions() == [
            s for s in service.sessions.values() if not s.state.terminal
        ]
        service.close()


@pytest.mark.parametrize("policy", ["round-robin", "priority"])
@pytest.mark.parametrize("seed", range(4))
def test_session_gauges_equal_a_write_for_every_schedulable_session(seed, policy):
    """The tick observer writes the per-session gauges of the sessions
    granted this tick or the last and of those that entered the ready
    set; the series equal writing every schedulable session each tick."""
    rng = random.Random(seed)
    repo = growing_repo()
    records = []
    tel = telemetry.enable()
    service = QueryService(
        repo, chunk_frames=600, frames_per_tick=4, seed=seed,
        scheduler=RecordingScheduler(SCHEDULERS[policy](), records),
    )
    expected: dict[str, list[int]] = {}  # session -> [grant, deficit]

    def submit():
        service.submit("cam", "bus", max_samples=rng.choice([8, 40, 200]),
                       batch_size=rng.choice([1, 8]), follow=rng.random() < 0.3,
                       priority=rng.choice([1.0, 3.0]), warm_start=False)

    def tick():
        before = len(records)
        service.tick()
        for ids, _budget, allocation in records[before:]:
            for sid in ids:
                expected.setdefault(sid, [0, 0])[0] = allocation[sid]
            for sid in ids:
                if service.sessions[sid].state.terminal:
                    expected.pop(sid)
                else:
                    expected[sid][1] = service.deficits.get(sid, 0)

    def live(predicate):
        pool = [s for s in service.sessions.values() if predicate(s)]
        return rng.choice(pool).session_id if pool else None

    def pause():
        sid = live(lambda s: not s.state.terminal)
        if sid is not None:
            service.pause(sid)

    def resume():
        sid = live(lambda s: s.state is SessionState.PAUSED)
        if sid is not None:
            service.resume(sid)

    def cancel():
        sid = live(lambda s: not s.state.terminal)
        if sid is not None:
            service.cancel(sid)
            expected.pop(sid, None)

    def feed():
        service.feed("cam", 600, clip_instances(repo.horizon, 600, 3, start_id=9000 + repo.horizon))

    try:
        for _ in range(6):
            submit()
        for _ in range(120):
            rng.choice([submit, tick, tick, tick, tick, pause, resume, cancel, feed])()
            gauges = tel.snapshot()["gauges"]
            got = {}
            for key, value in gauges.items():
                for index, name in enumerate(("grant", "deficit")):
                    prefix = f'repro_serving_session_{name}_frames{{session="'
                    if key.startswith(prefix):
                        got.setdefault(key[len(prefix):-2], [0, 0])[index] = value
            assert got == expected
    finally:
        service.close()
        telemetry.disable()


# ------------------------------------------------------------------- cost

@pytest.fixture
def touched(monkeypatch):
    """Counts the per-session reads a walk makes."""
    counts = collections.Counter()
    schedulable = QuerySession.schedulable.fget
    results_found = QuerySession.results_found.fget
    absorb = QuerySession.absorb_new_footage

    def counted(name, function):
        def wrapper(self):
            counts[name] += 1
            return function(self)
        return wrapper

    monkeypatch.setattr(
        QuerySession, "schedulable", property(counted("schedulable", schedulable))
    )
    monkeypatch.setattr(
        QuerySession, "results_found",
        property(counted("results_found", results_found)),
    )
    monkeypatch.setattr(
        QuerySession, "absorb_new_footage", counted("absorb", absorb)
    )
    return counts


def test_a_tick_looks_at_live_sessions_only(touched):
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
    with_residents(service, "synthetic")
    live = service.submit("synthetic", "bus", max_samples=10_000,
                          warm_start=False, seed=99)
    service.tick()  # retires the residents from the index

    def one_tick():
        touched.clear()
        assert service.tick() == {live: 8}
        return touched["schedulable"], touched["absorb"]

    reads, absorbs = one_tick()
    assert reads <= 4 and absorbs <= 2, (reads, absorbs)
    # 500 more sessions churn through beside the live one
    for i in range(RESIDENTS):
        sid = service.submit("synthetic", "bus", limit=1, max_samples=8,
                             batch_size=8, seed=1000 + i, warm_start=False)
        while not service.sessions[sid].state.terminal:
            service.tick()
    assert len(service.sessions) == 2 * RESIDENTS + 1
    service.tick()
    assert one_tick() == (reads, absorbs)
    assert [s.session_id for s in service.live_sessions()] == [live]
    service.close()


@pytest.mark.parametrize("live", [8, 100, 1000])
def test_a_tick_costs_the_sessions_it_grants(touched, live):
    budget = 8
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=budget)
    for seed in range(live):
        service.submit("synthetic", "bus", max_samples=10_000,
                       warm_start=False, seed=seed)
    service.tick()  # the first look evaluates every new session once
    per_tick = []
    for _ in range(6):
        touched.clear()
        service.schedulable_sessions()  # the serving loop's look, then the tick's
        processed = service.tick()
        assert len(processed) == budget and sum(processed.values()) == budget
        per_tick.append((touched["schedulable"], touched["absorb"]))
    # each granted session reports its plan and commit, and is evaluated
    # once at the next look; the other sessions are never read
    assert per_tick == [(budget, 0)] * 6
    touched.clear()
    assert service.sync() == {}
    assert touched["absorb"] == 0  # no horizon moved: no walk
    service.feed("synthetic", 600)
    assert touched["absorb"] == live  # one walk over the dataset's sessions
    touched.clear()
    assert service.sync() == {}
    assert touched["absorb"] == 0
    service.close()


def test_a_restored_session_catches_up_with_no_horizon_move(touched):
    """A restore can land behind footage the service has already synced
    past: the next sync absorbs it, and then walks it no more."""
    repo = growing_repo()
    live = QueryService(repo, chunk_frames=600, frames_per_tick=16)
    sid = live.submit("cam", "bus", max_samples=200, warm_start=False, seed=1)
    live.tick()
    snapshot = live.snapshot(sid)
    repo.append_clip(600, clip_instances(2400, 600, 3, start_id=100))
    host = QueryService(repo, chunk_frames=600, frames_per_tick=16)
    assert host.sync() == {}  # the host has now seen horizon 3000
    host.restore(snapshot)
    assert host.sessions[sid].horizon == 2400
    assert host.sync() == {sid: 600}
    touched.clear()
    assert host.sync() == {}
    assert touched["absorb"] == 0
    live.close()
    host.close()


# ----------------------------------------------------------------- server

def test_first_result_check_touches_only_awaiting_sessions(touched):
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
    with_residents(service, "synthetic")
    server = AsyncQueryServer(service)
    awaiting = [
        service.submit("synthetic", "bus", max_samples=10_000, follow=True,
                       warm_start=False, seed=seed)
        for seed in (1, 2)
    ]
    for sid in awaiting:
        server._awaiting_first[sid] = time.perf_counter()
    touched.clear()
    server._note_first_results()
    assert touched["results_found"] == 2
    assert set(server._awaiting_first) == set(awaiting)  # no result yet
    service.close()


def test_sessions_is_a_read_only_live_view():
    service = QueryService(fixed_repo(), chunk_frames=2500)
    view = service.sessions
    assert len(view) == 0
    sid = service.submit("synthetic", "bus", limit=1, warm_start=False)
    assert list(view) == [sid] and view[sid] is service.sessions[sid]
    with pytest.raises(TypeError):
        service.sessions["x"] = view[sid]
    with pytest.raises(TypeError):
        del service.sessions[sid]
    assert dict(view) == {sid: view[sid]}  # copying stays the caller's call
    service.close()


def test_tenant_quota_counts_non_terminal_sessions_only(touched):
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
    server = AsyncQueryServer(service, ServerConfig(tenant_quota=2, max_queue=8))
    request = {"op": "submit", "dataset": "synthetic", "category": "bus",
               "follow": True, "warm_start": False, "tenant": "team-a"}

    async def submit(**overrides):
        task = asyncio.ensure_future(server._admit("submit", {**request, **overrides}))
        await asyncio.sleep(0)
        server._apply_commands()
        return await task

    async def scenario():
        # a long history of team-a sessions, every one terminal
        for _ in range(RESIDENTS // 10):
            reply = await submit()
            service.cancel(reply["session_id"])
        held = [(await submit())["session_id"] for _ in range(2)]
        assert server._active_tenant_sessions("team-a") == 2
        rejected = await submit()
        assert rejected["error"] == "quota-exceeded"
        assert (await submit(tenant="team-b"))["ok"]
        service.pause(held[0])  # paused is still concurrent
        assert (await submit())["error"] == "quota-exceeded"
        service.sessions[held[1]].cancel()  # terminal, behind the service
        readmitted = await submit()
        assert readmitted["ok"]
        assert server._active_tenant_sessions("team-a") == 2
        stats = server._op_stats()["stats"]
        assert stats["sessions"] == RESIDENTS // 10 + 4
        assert stats["sessions_active"] == 3

    asyncio.run(scenario())
    service.close()


# ----------------------------------------------------------------- memory

def live_chunks():
    gc.collect()
    return sum(isinstance(o, Chunk) for o in gc.get_objects())


def test_terminal_sessions_hold_no_chunks():
    """Served one after another, one-batch sessions leave no chunk behind:
    the live ``Chunk`` count after 400 equals the count after 100."""
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)

    def serve(count, first_seed):
        for i in range(count):
            sid = service.submit("synthetic", "bus", limit=1, max_samples=8,
                                 batch_size=8, seed=first_seed + i, warm_start=False)
            while not service.sessions[sid].state.terminal:
                service.tick()

    serve(100, 0)
    after_100 = live_chunks()
    serve(300, 100)
    assert live_chunks() == after_100
    assert len(service.sessions) == 400
    assert not service.live_sessions()
    service.close()


def ending(service, how):
    """Submit a session and end it ``how``; returns it."""
    limit, max_samples = {"completed": (1, None), "exhausted": (None, 8)}.get(how, (None, None))
    sid = service.submit("synthetic", "bus", limit=limit, max_samples=max_samples,
                         batch_size=4, warm_start=False)
    session = service.sessions[sid]
    service.tick()
    if how == "cancelled":
        service.cancel(sid)
    elif how == "cancelled behind the service":
        session.cancel()
    elif how == "cancelled holding a parked batch":
        # what a tick whose detector raised leaves behind
        assert QuerySession.plan_steps([session])[0]
        assert session._pending  # parked
        service.cancel(sid)
    while not session.state.terminal:
        service.tick()
    service.tick()  # the ready index retires it
    assert session.state.value == how.split()[0]
    return session


ENDINGS = ["completed", "exhausted", "cancelled", "cancelled behind the service",
           "cancelled holding a parked batch"]


@pytest.mark.parametrize("how", ENDINGS)
def test_a_terminal_session_drops_its_engine(how):
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
    session = ending(service, how)
    assert session.engine is None and not session._pending
    # what it sampled stays readable
    assert len(session.history) == session.frames_processed > 0
    assert sum(session.chunk_stats.n) == session.frames_processed
    service.close()


@pytest.mark.parametrize("how", ENDINGS)
def test_a_terminal_sessions_engine_is_collected(how):
    service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
    engines = []
    record = QuerySession.plan_steps

    def plan_steps(sessions):  # take a weakref to every engine that plans
        engines.extend(weakref.ref(s.engine) for s in sessions if s.engine is not None)
        return record(sessions)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuerySession, "plan_steps", staticmethod(plan_steps))
        session = ending(service, how)
    assert engines
    gc.collect()
    assert all(ref() is None for ref in engines), how
    assert session.snapshot().state == how.split()[0]
    service.close()


def test_a_closed_service_leaves_no_session_to_the_tick_observer():
    """The tick observer keeps the last tick's sessions for their gauges
    and outlives the service: closing the service lets them go."""
    telemetry.enable()
    try:
        service = QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
        sid = service.submit("synthetic", "bus", max_samples=64, batch_size=4,
                             warm_start=False)
        service.tick()
        session = weakref.ref(service.sessions[sid])
        service.close()
        del service
        gc.collect()
        assert session() is None
    finally:
        telemetry.disable()


def test_sealing_changes_nothing_a_session_reports(monkeypatch):
    """``status``, ``results`` and ``snapshot`` read the same just before
    and just after each seal, across every way a session ends, follow
    sessions and footage fed mid-run included (their ``horizon`` comes
    from the chunk feed live and from the horizon log sealed)."""
    rng = random.Random(11)
    repo = growing_repo()
    service = QueryService(repo, chunk_frames=600, frames_per_tick=16, seed=11)
    seal = QuerySession._seal
    sealed = collections.Counter()

    def reports(session):
        # QueryService.results' payload, built from the session: one that
        # completes on its warm start seals before the service holds it
        results = dict(session.status().to_dict(), result_frames=session.result_frames())
        return session.status().to_dict(), results, session.snapshot().to_dict()

    def checked_seal(session):
        before = reports(session)
        seal(session)
        assert reports(session) == before
        sealed[session.state.value, session.spec.follow] += 1

    monkeypatch.setattr(QuerySession, "_seal", checked_seal)
    next_instance = 1000
    for step in range(60):
        op = rng.random()
        if op < 0.3:
            service.submit("cam", "bus", limit=rng.choice([1, 3, None]),
                           max_samples=rng.choice([8, 40, None]),
                           batch_size=rng.choice([1, 8]), follow=rng.random() < 0.4,
                           warm_start=rng.random() < 0.5)
        elif op < 0.4:
            live = service.live_sessions()
            if live:
                victim = rng.choice(live)
                if rng.random() < 0.5:
                    service.cancel(victim.session_id)
                else:
                    victim.cancel()
        elif op < 0.5:
            start = repo.horizon
            service.feed("cam", 600, clip_instances(start, 600, 3, start_id=next_instance))
            next_instance += 3
        else:
            service.tick()
    for session in service.live_sessions():
        session.cancel()
    service.tick()
    assert {state for state, _ in sealed} == {"completed", "exhausted", "cancelled"}
    assert any(follow for _, follow in sealed)
    assert all(s.engine is None for s in service.sessions.values())
    service.close()


# ---------------------------------------------------------------- answers

# measured before the session index (dict(self._sessions) copies, full
# walks); re-recorded once when the Thompson draw moved onto numpy's
# standard_gamma, every session's results checked against
# repro.simulation.oracle's standalone re-run of its snapshot
CHURN_DIGEST = "cf99e805e5ace13c9e9991ec363f15b00a89dfbb121cd812e0f3c1108a526116"


def churn_digest():
    """200 one-batch sessions, one after another, through the server."""
    payloads = []
    with ServerThread(
        lambda: AsyncQueryServer(
            QueryService(fixed_repo(), chunk_frames=2500, frames_per_tick=8)
        )
    ) as host:
        with ServingClient(*host.address) as client:
            for i in range(200):
                sid = client.submit(
                    "synthetic", "bus", limit=1, max_samples=8, batch_size=8,
                    seed=5000 + i, warm_start=False, tenant=f"t{i % 2}",
                )
                client.wait_terminal(sid, poll=0.001)
                payloads.append(client.results(sid))
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_churn_answers_are_the_ones_served_before_the_index():
    assert churn_digest() == CHURN_DIGEST
    assert churn_digest() == CHURN_DIGEST


# ------------------------------------------------------- to_dict satellite

def test_to_dict_equals_the_asdict_form():
    """``to_dict`` stopped deep-copying through ``dataclasses.asdict``;
    the dict it builds is the same one, key order included."""
    service = QueryService(growing_repo(), chunk_frames=600, frames_per_tick=16)
    seeded = service.submit("cam", "bus", limit=2, warm_start=False, seed=3)
    service.run_until_idle()
    sid = service.submit("cam", "bus", limit=6, max_samples=64, seed=4)
    service.tick()
    service.feed("cam", 600, clip_instances(2400, 600, 3, start_id=500))
    service.tick()

    status = service.status(sid)
    assert status.to_dict() == dataclasses.asdict(status)
    assert list(status.to_dict()) == list(dataclasses.asdict(status))

    snapshot = service.snapshot(sid)
    assert snapshot.warm_start_frames and snapshot.result_frames
    assert len(snapshot.horizons) == 2
    old = dataclasses.asdict(snapshot)
    old["warm_start_frames"] = list(snapshot.warm_start_frames)
    old["result_frames"] = list(snapshot.result_frames)
    old["horizons"] = [list(pair) for pair in snapshot.horizons]
    new = snapshot.to_dict()
    assert new == old and list(new) == list(old)
    assert json.loads(json.dumps(new)) == json.loads(json.dumps(old))
    assert SessionSnapshot.from_dict(new) == snapshot
    pending = dataclasses.replace(snapshot, warm_start_frames=None)
    assert pending.to_dict()["warm_start_frames"] is None
    assert SessionSnapshot.from_dict(pending.to_dict()) == pending
    assert service.status(seeded).to_dict()["state"] == "completed"
    service.close()
