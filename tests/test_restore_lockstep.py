"""Restoring many snapshots at once equals restoring them one at a time.

``QueryService.restore_many`` replays every restored session together,
in lockstep rounds that share one Thompson draw and one cache round trip
per dataset.  ``restore`` is ``restore_many`` of one snapshot, so a loop
of ``restore`` calls is the old one-session-at-a-time replay and stays
the reference.  The contract is the parity harness's: the same decision
bytes — each session's fingerprint, its next plan, and every status row
in service order.

The restored population covers what a state directory holds: sessions
that absorbed a clip fed mid-run (a two-entry horizon log), a paused
session, a terminal one (restored sealed), and a submission that never
ran (no warm-start list yet: it warm-starts over the cache the snapshots
before it leave).  The legs restore with the live cache kept and with it
lost (a fresh in-memory backend, every replayed frame re-detected), and
over one or two shard workers.
"""

import json

import pytest
from contracts import (
    assert_same_decisions,
    fingerprint,
    matrix_world,
    parity_service,
    stationary_instance,
)

from repro.detection.cache import DetectionCache
from repro.serving.session import QuerySession, SessionSnapshot

SEEDS = [0, 1, 2]


def _live_run(seed, batch, warm):
    """A served population, snapshotted mid-run; returns the repository
    (with the fed clip) and the snapshots, a pending submission last."""
    service = parity_service(matrix_world(seed), seed, "local", 1, batch_size=batch)
    opts = {"warm_start": warm}
    service.submit("cam0", "car", max_samples=16, **opts)
    service.tick()
    early = [
        service.submit("cam0", "bus", max_samples=60, **opts),
        service.submit("cam0", "car", max_samples=45, **opts),
    ]
    service.tick()
    service.feed("cam0", 60, [stationary_instance(9, 410, 20)])
    late = service.submit("cam0", "bus", max_samples=50, **opts)
    for _ in range(2):
        service.tick()
    service.pause(late)
    service.tick()
    assert all(len(service.sessions[sid].horizon_log) >= 2 for sid in early)
    assert any(s.state.terminal for s in service.sessions.values())
    snapshots = service.snapshot_all()
    pending = dict(snapshots[1].to_dict(), session_id="s9", steps_taken=0,
                   horizons=[], result_frames=[], results_found=0)
    del pending["warm_start_frames"]
    snapshots.append(SessionSnapshot.from_dict(pending))
    repository = service.repository("cam0")
    live_cache = service.cache
    service.close()
    return repository, snapshots, live_cache


def _decisions(service):
    """Fingerprint, next plan and status row of every restored session."""
    engines = [sid for sid, s in service.sessions.items() if s.history is not None]
    live = service.live_sessions()
    return json.dumps({
        "fingerprint": fingerprint(service, engines).decode("utf-8"),
        "next_plans": dict(zip(
            [s.session_id for s in live], [QuerySession.plan_steps([s])[0] for s in live]
        )),
        "statuses": [status.to_dict() for status in service.statuses()],
    }, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("seed", SEEDS)
def test_restore_many_equals_restoring_one_at_a_time(seed, batch, warm):
    shards = 2 if seed == 0 else 1  # worker processes are the slow part

    def run(leg):
        mode, cache = leg
        repository, snapshots, live_cache = _live_run(seed, batch, warm)
        service = parity_service(
            repository, seed, "sharded" if shards > 1 else "local", shards,
            batch_size=batch, cache=live_cache if cache == "kept" else DetectionCache(),
        )
        try:
            if mode == "many":
                ids = service.restore_many(snapshots)
            else:
                ids = [service.restore(snapshot) for snapshot in snapshots]
            assert ids == [s.session_id for s in snapshots]
            # a kept cache answers the whole replay; a lost one re-detects
            assert (service.detector_calls == 0) == (cache == "kept")
            return _decisions(service)
        finally:
            service.close()

    assert_same_decisions(
        run, ("one", "kept"), ("many", "kept"), ("one", "lost"), ("many", "lost"),
    )


def test_restore_many_validates_before_building_anything():
    repository, snapshots, _ = _live_run(0, 1, True)
    service = parity_service(repository, 0, "local", 1)
    try:
        with pytest.raises(ValueError, match="already exists"):
            service.restore_many(snapshots + snapshots[:1])
        assert dict(service.sessions) == {}
        unknown = SessionSnapshot.from_dict(
            dict(snapshots[1].to_dict(), session_id="s20", dataset="nowhere")
        )
        with pytest.raises(KeyError, match="nowhere"):
            service.restore_many(snapshots + [unknown])
        assert dict(service.sessions) == {}
        assert service.restore_many([]) == []
    finally:
        service.close()
