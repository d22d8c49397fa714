"""Cross-shard answer parity: the distributed subsystem's acceptance bar.

For a matrix of seeds × shard counts × schedulers, a sharded service
must return **byte-identical** matches (result frames) and per-chunk
sample counts to a single-process service — because every sampling
decision lives in the coordinator and depends only on each session's
seed and step count, never on where detection ran.  The matrix also
covers the distributed fault path: a mid-run worker kill followed by a
snapshot/restore into a fresh sharded service must land on the same
bytes, and so must mid-run ingestion (a clip fed one tick in): a
sharded session absorbs footage at exactly the step its local twin does.
"""

import pytest
from contracts import (
    MATRIX_CLIPS,
    assert_same_decisions,
    fingerprint,
    matrix_world,
    parity_service,
    stationary_instance,
)

from repro.serving.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    ThompsonSumScheduler,
)

SEEDS = [0, 1, 2, 3, 4]
SHARD_COUNTS = [1, 2, 4]
SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "priority": PriorityScheduler,
    "thompson-sum": ThompsonSumScheduler,
}


def _submit_all(service):
    a = service.submit("cam0", "bus", limit=3, max_samples=50, priority=2.0)
    b = service.submit("cam0", "car", max_samples=35)
    return [a, b]


def _submit_unbounded(service):
    """Sample-capped only: no session can turn terminal within the first
    few ticks, so a mid-run snapshot always carries live (replayable)
    engines — what the kill+restore leg needs to read full fingerprints
    after restoring."""
    a = service.submit("cam0", "bus", max_samples=40, priority=2.0)
    b = service.submit("cam0", "car", max_samples=30)
    return [a, b]


def _submit_and_feed(service):
    """Mid-run ingestion: one tick in, a clip with one more bus lands and
    every live session absorbs it."""
    sids = _submit_unbounded(service)
    service.tick()
    service.feed("cam0", 60, [stationary_instance(9, sum(MATRIX_CLIPS) + 10, 20)])
    return sids


def _run_plain(seed, scheduler, execution, shards, submit=_submit_all):
    service = parity_service(
        matrix_world(seed), seed, execution, shards, scheduler=SCHEDULERS[scheduler]()
    )
    try:
        sids = submit(service)
        service.run_until_idle(max_ticks=60)
        return fingerprint(service, sids)
    finally:
        service.close()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_answers_are_byte_identical_to_local(seed, scheduler):
    assert_same_decisions(
        lambda leg: _run_plain(seed, scheduler, *leg),
        ("local", 1), *[("sharded", shards) for shards in SHARD_COUNTS],
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_parity_survives_worker_kill_and_restore(seed, scheduler):
    """The distributed fault path: kill a worker mid-run, keep going,
    snapshot everything, restore into a *fresh* sharded service (new
    coordinator, new workers, empty cache), finish there — and still
    match the uninterrupted single-process bytes."""

    def run(leg):
        if leg == "local":
            return _run_plain(seed, scheduler, "local", 1, submit=_submit_unbounded)
        service = parity_service(
            matrix_world(seed), seed, "sharded", 2, scheduler=SCHEDULERS[scheduler]()
        )
        try:
            sids = _submit_unbounded(service)
            service.tick()
            service.shard_backend("cam0").kill_worker(seed % 2)
            service.tick()
            snapshots = service.snapshot_all()
            # the point of this leg is restoring *live* engines mid-flight
            assert all(not s.state.terminal for s in service.sessions.values())
        finally:
            service.close()
        restored = parity_service(
            matrix_world(seed), seed, "sharded", 2, scheduler=SCHEDULERS[scheduler]()
        )
        try:
            for snapshot in snapshots:
                restored.restore(snapshot)
            restored.run_until_idle(max_ticks=60)
            return fingerprint(restored, sids)
        finally:
            restored.close()

    assert_same_decisions(run, "local", "kill+restore")


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_parity_survives_a_mid_run_feed(seed, scheduler):
    assert_same_decisions(
        lambda leg: _run_plain(seed, scheduler, *leg, submit=_submit_and_feed),
        ("local", 1), ("sharded", 2), ("sharded", 4),
    )


def test_matrix_shape_meets_the_acceptance_bar():
    """Pin the matrix advertised in the acceptance criteria so a future
    edit cannot quietly shrink it below >=5 seeds x {1,2,4} shards x
    {round_robin, priority} schedulers."""
    assert len(SEEDS) >= 5
    assert set(SHARD_COUNTS) == {1, 2, 4}
    assert set(SCHEDULERS) >= {"round-robin", "priority"}
