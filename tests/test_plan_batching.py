"""One Thompson draw per tick round, invisible to every decision.

``plan_many`` plans many samplers with one multi-stream
``gamma_matrices`` call, and the serving tick plans every session of a round through it.  The contract: each engine — each
session — ends up exactly where planning it alone would have put it.
These tests hold the engine level, the service level (against the same
script planned one session at a time, and against each session's solo
replay), the Thompson scheduler's batched bids, that a round really
makes one kernel call (counted, with no clock), and that each session's
trace span carries its own share of the round's planning.
"""

import dataclasses
import json

import pytest
from contracts import (
    CountingDetector,
    assert_same_decisions,
    clip_repository,
    fingerprint,
    stationary_instance,
)

from repro.core import rng as rng_module
from repro.core import sampler as sampler_module
from repro.core.chunking import fixed_size_chunks
from repro.core.policies import ThompsonSampling
from repro.core.rng import DecisionRng
from repro.core.sampler import ExSample, plan_many
from repro.detection.detector import OracleDetector
from repro.serving.scheduler import (
    RoundRobinScheduler,
    ThompsonSumScheduler,
    proportional_allocation,
)
from repro.serving.service import QueryService
from repro.serving.session import QuerySession, SessionState
from repro.telemetry import Telemetry
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import single_clip_repository


# --------------------------------------------------------------- engines

_REDRAWS = [0]


class _CountingThompson(ThompsonSampling):
    """Thompson sampling that counts its own draws: with the matrix drawn
    by ``plan_many``, only a redraw (a chunk drained mid-batch) gets here."""

    def choose(self, stats, rng, available, batch_size=1):
        _REDRAWS[0] += 1
        return super().choose(stats, rng, available, batch_size)


class _RandomAvailable:
    """A non-Thompson policy on the decision RNG: uniform over the
    chunks with frames left."""

    def choose(self, stats, rng, available, batch_size=1):
        open_chunks = [m for m, ok in enumerate(available) if ok]
        return [open_chunks[rng.integers(len(open_chunks))] for _ in range(batch_size)]


# (frames, chunk frames, batch, policy): mixed M, rows > 1, chunks of two
# frames that drain mid-batch, and one policy the kernel cannot batch
ENGINE_SPECS = [
    (60, 2, 8, _CountingThompson),
    (900, 30, 1, ThompsonSampling),
    (70, 10, 3, ThompsonSampling),
    (400, 8, 8, _CountingThompson),
    (90, 3, 4, _RandomAvailable),
    (35, 35, 2, ThompsonSampling),
]


def _engines(seed):
    engines = []
    for i, (frames, chunk_frames, batch, policy) in enumerate(ENGINE_SPECS):
        rng = DecisionRng((seed, i))
        chunks = fixed_size_chunks(frames, chunk_frames, rng)
        repo = single_clip_repository(frames, [])
        engine = ExSample(
            chunks, OracleDetector(repo), OracleDiscriminator(),
            policy=policy(), rng=rng, batch_size=batch,
        )
        for m in range(len(chunks)):  # an uneven mid-query posterior
            engine.stats.record(m, (m * (seed + 3)) % 4, 0)
        engines.append(engine)
    return engines


def _state(engine):
    return (
        engine._rng.state,
        [bool(b) for b in engine.chunk_availability],
        [c.remaining for c in engine.chunks],
    )


# "numpy-" ids: the surviving cells of a deleted second gamma executor
@pytest.mark.parametrize("seed", range(4), ids=lambda seed: f"numpy-{seed}")
def test_plan_many_equals_planning_one_by_one(seed):
    batched, serial = _engines(seed), _engines(seed)
    _REDRAWS[0] = 0
    while not all(e.exhausted for e in serial):
        live = [i for i, e in enumerate(serial) if not e.exhausted]
        got = plan_many([(batched[i], None) for i in live])
        want = [serial[i].plan() for i in live]
        assert got == want
        for i, pending in zip(live, want):
            batched[i].commit(pending, detections={f: [] for _, f in pending})
            serial[i].commit(pending, detections={f: [] for _, f in pending})
            assert _state(batched[i]) == _state(serial[i])
    assert all(e.exhausted for e in batched)
    assert _REDRAWS[0] > 0  # a chunk drained mid-batch and was re-drawn


def test_plan_many_rejects_engines_sharing_an_rng():
    rng = DecisionRng(5)
    repo = single_clip_repository(40, [])
    engines = [
        ExSample(fixed_size_chunks(40, 10, rng), OracleDetector(repo),
                 OracleDiscriminator(), rng=rng)
        for _ in range(2)
    ]
    before = rng.state
    with pytest.raises(ValueError, match="share an rng"):
        plan_many([(engines[0], 1), (engines[1], 1)])
    assert rng.state == before  # nothing was drawn
    with pytest.raises(ValueError, match="share an rng"):
        plan_many([(engines[0], 1), (engines[0], 1)])
    with pytest.raises(ValueError, match="one row per planned frame"):
        engines[0].plan(2, draws=[[1.0] * 4])
    assert rng.state == before
    assert plan_many([]) == []


# --------------------------------------------------------------- service


def _repository(name, clip_frames, seed):
    """A bus, a car and a bus in every clip, placed by ``seed``."""
    instances, start = [], 0
    for clip_id, frames in enumerate(clip_frames):
        for k, category in enumerate(("bus", "car", "bus")):
            instances.append(stationary_instance(
                len(instances), start + (7 * seed + 13 * k + 5 * clip_id) % (frames - 20),
                12 + k, category,
            ))
        start += frames
    return clip_repository(name, clip_frames, instances)


def _repositories(seed):
    # different chunk counts: 20-frame chunks over 420 frames, 45 over 300
    return {
        "cam0": _repository("cam0", (140, 160, 120), seed),
        "cam1": _repository("cam1", (100, 90, 110), seed + 1),
    }


SCHEDULERS = {"round-robin": RoundRobinScheduler, "thompson": ThompsonSumScheduler}


def _service(seed, scheduler, detector_factory=None):
    return QueryService(
        _repositories(seed),
        scheduler=SCHEDULERS[scheduler](),
        chunk_frames={"cam0": 20, "cam1": 45},
        frames_per_tick=7,
        seed=seed,
        detector_factory=detector_factory,
    )


def _feed(service, seed):
    start = service.repository("cam1").horizon
    service.feed("cam1", 80, [stationary_instance(900, start + 10 + seed, 15, "car")])


def _scripted_run(seed, scheduler):
    """Two datasets, batches of 1, 2 and 3, a follow session fed mid-run,
    pause/resume, and one failed tick (cam0's third detector batch);
    returns the service afterwards."""
    def factory(repo):
        inner = OracleDetector(repo)
        return CountingDetector(inner, fail_on={3}) if repo.name == "cam0" else inner

    service = _service(seed, scheduler, detector_factory=factory)
    service.submit("cam0", "bus", limit=5, seed=seed + 11)
    service.submit("cam0", "car", max_samples=40, batch_size=3, seed=seed + 12)
    service.submit("cam1", "car", follow=True, max_samples=70, batch_size=2, seed=seed + 13)
    service.submit("cam1", "bus", limit=4, seed=seed + 14, warm_start=False)
    failed = 0
    for tick in range(60):
        if tick == 2:
            service.pause("s2")
        if tick == 5:
            service.resume("s2")
        if tick == 4:
            _feed(service, seed)
        try:
            service.tick()
        except RuntimeError:
            failed += 1
    assert failed == 1
    return service


def _plan_one_by_one(plans):
    return [engine.plan(size) for engine, size in plans]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", [0, 1], ids=lambda seed: f"numpy-{seed}")
def test_service_matches_planning_one_session_at_a_time(monkeypatch, seed, scheduler):
    rng_states = []

    def run(plan):
        with monkeypatch.context() as patch:
            if plan is not plan_many:
                patch.setattr(sampler_module, "plan_many", plan)
                patch.setattr("repro.serving.session.plan_many", plan)
            service = _scripted_run(seed, scheduler)
        rng_states.append(service._rng.state)  # the scheduler's stream too
        return fingerprint(service, service.sessions)

    batched = json.loads(assert_same_decisions(run, plan_many, _plan_one_by_one))
    assert rng_states[0] == rng_states[1]
    assert sum(len(s["sampled_frames"]) for s in batched.values()) > 60


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS), ids=lambda s: f"numpy-{s}")
def test_each_session_matches_its_solo_replay(scheduler):
    """Restore replays a session alone, plan by plan, from its seed, warm
    start and horizon log: the batched run must be that history."""
    service = _scripted_run(3, scheduler)
    solo = _service(3, scheduler)
    _feed(solo, 3)
    for sid, session in service.sessions.items():
        # a terminal session would restore sealed; replay it as paused
        snapshot = dataclasses.replace(session.snapshot(), state="paused")
        solo.restore(snapshot)
        replayed = solo.sessions[sid].history
        live = session.history
        assert list(replayed.frame_indices) == list(live.frame_indices), sid
        assert list(replayed.d0_counts) == list(live.d0_counts), sid


# ------------------------------------------------------ scheduler bids


def _population(seed):
    """Sessions mid-flight: some exhausted, some with drained chunks."""
    repos = {
        "cam0": _repository("cam0", (40,), seed),
        "cam1": _repository("cam1", (100, 90, 110), seed + 1),
    }
    service = QueryService(
        repos, chunk_frames={"cam0": 5, "cam1": 10}, frames_per_tick=24, seed=seed
    )
    for k in range(7):
        dataset = "cam0" if k % 3 == 0 else "cam1"
        service.submit(dataset, "bus", priority=1.0 + k, seed=seed * 10 + k,
                       warm_start=False, batch_size=1 + k % 3)
    service.run_until_idle(max_ticks=25)
    sessions = list(service.sessions.values())
    assert any(s.state is SessionState.EXHAUSTED for s in sessions)  # sealed
    assert any(
        s.engine is not None and not all(s.engine.chunk_availability)
        for s in sessions
    )
    return sessions


def _sequential_allocation(sessions, budget, rng):
    """``ThompsonSumScheduler.allocate`` as one bid draw per session."""
    bids = [session.thompson_draw(rng) for session in sessions]
    return proportional_allocation([s.session_id for s in sessions], bids, budget)


# the surviving cells of a deleted scheduler option and of the deleted
# second gamma executor keep their ids
@pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda seed: f"numpy-{seed}-False")
def test_thompson_bids_in_one_call_equal_the_loop(seed):
    sessions = _population(seed)
    scheduler = ThompsonSumScheduler()
    for round_seed in range(3):
        batched_rng, loop_rng = DecisionRng((seed, round_seed)), DecisionRng((seed, round_seed))
        got = scheduler.allocate(sessions, 64, batched_rng)
        want = _sequential_allocation(sessions, 64, loop_rng)
        assert got == want
        assert batched_rng.state == loop_rng.state
        shared = DecisionRng(round_seed)
        assert QuerySession.thompson_draws(sessions, DecisionRng(round_seed)) == [
            s.thompson_draw(shared) for s in sessions
        ]


# ------------------------------------------------------ counted, no clock


@pytest.fixture
def counters(monkeypatch):
    """Calls of the gamma kernel (wherever it is entered from) and of
    ``ExSample.plan``."""
    counts = {"kernel": 0, "plan": 0}
    kernel, plan = rng_module.gamma_matrices, ExSample.plan

    def counting_kernel(requests):
        counts["kernel"] += 1
        return kernel(requests)

    def counting_plan(self, *args, **kwargs):
        counts["plan"] += 1
        return plan(self, *args, **kwargs)

    monkeypatch.setattr(rng_module, "gamma_matrices", counting_kernel)
    monkeypatch.setattr(sampler_module, "gamma_matrices", counting_kernel)
    monkeypatch.setattr(ExSample, "plan", counting_plan)
    return counts


def test_a_tick_round_makes_one_kernel_call(counters):
    service = QueryService(
        _repositories(0), chunk_frames={"cam0": 20, "cam1": 45},
        frames_per_tick=4, seed=0,
    )
    for k in range(4):
        service.submit("cam0" if k % 2 else "cam1", "bus", max_samples=30,
                       seed=k, warm_start=False)
    for _ in range(5):  # batch 1, one frame each: one round per tick
        counters["kernel"] = counters["plan"] = 0
        processed = service.tick()
        assert counters["plan"] == len(processed) == 4
        assert counters["kernel"] == 1


def test_a_restore_round_makes_one_kernel_call(counters, monkeypatch):
    """Restoring N sessions of S steps each at batch 1 replays them in S
    lockstep rounds: S kernel calls, not N·S, and one cache round trip
    per round per dataset."""
    steps, live = 5, QueryService(
        _repositories(0), chunk_frames={"cam0": 20, "cam1": 45},
        frames_per_tick=4, seed=0,
    )
    for k in range(4):
        live.submit("cam0" if k % 2 else "cam1", "bus", max_samples=30,
                    seed=k, warm_start=False)
    for _ in range(steps):
        live.tick()
    snapshots = live.snapshot_all()
    assert [s.steps_taken for s in snapshots] == [steps] * 4
    restored = QueryService(
        _repositories(0), cache=live.cache, chunk_frames={"cam0": 20, "cam1": 45},
        frames_per_tick=4, seed=0,
    )
    lookups = []
    get_many = live.cache.get_many

    def counting_get_many(dataset, frames):
        lookups.append(dataset)
        return get_many(dataset, frames)

    monkeypatch.setattr(live.cache, "get_many", counting_get_many)
    counters["kernel"] = counters["plan"] = 0
    restored.restore_many(snapshots)
    assert counters["plan"] == 4 * steps
    assert counters["kernel"] == steps
    assert sorted(lookups) == ["cam0"] * steps + ["cam1"] * steps
    assert fingerprint(restored, live.sessions) == fingerprint(live, live.sessions)


class _PlannedSession:
    """What the tick observer reads of a session that just planned."""

    def __init__(self, session_id, draw, score):
        self.session_id = session_id
        self.last_plan_timings = {"draw": draw, "score": score}


def test_plan_spans_carry_each_sessions_share(monkeypatch):
    """A round's sessions plan in one call and report afterwards: each
    ``plan`` span lasts the session's own draw + score seconds, laid end
    to end — not the whole round on the first and nothing on the rest."""
    tel = Telemetry(trace=True)
    spans = []
    monkeypatch.setattr(
        tel.tracer, "record_span",
        lambda _trace, name, start, duration, **_args: spans.append((name, start, duration)),
    )
    sessions = [_PlannedSession(f"s{k}", 0.001 * k, 0.0005) for k in (1, 2, 3)]
    obs = tel.tick_observer
    obs.scheduled(1, sessions, {})
    for session in sessions:
        obs.planned(session, [(0, 0)])
    assert [name for name, _, _ in spans] == ["plan"] * 3
    assert [duration for _, _, duration in spans] == [0.0015, 0.0025, 0.0035]
    for (_, start, duration), (_, following, _) in zip(spans, spans[1:]):
        assert following == start + duration
