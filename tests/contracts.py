"""The parity-contract harness, shared by every suite that says "this
execution mode makes exactly the plain loop's sampling decisions".

A contract is a baseline plus variants run through one ``run`` function
(the shape of an ablation study, with *equal* as the only relation):
:func:`assert_same_decisions` runs each and requires every variant's
:func:`fingerprint` bytes to equal the baseline's.  The fingerprint holds
decisions only.  Cost counters such as ``detector_calls`` or cache hits
are not decisions (a cache budget legitimately moves them), so the tests
that pin them assert them beside the comparison.

The rest is the scaffolding those suites share: a world of stationary
instances over clips laid end to end (:func:`clip_repository`; the
five-clip :func:`matrix_world` of the sharded, eviction and
staggered-session matrices; the four-clip :func:`small_world` of the
snapshot-replay and telemetry tests), the service they run
(:func:`parity_service`), and one detector wrapper that counts batches
and fails on chosen calls (:class:`CountingDetector`).
"""

import json

from repro.serving.service import QueryService
from repro.video.geometry import Box, Trajectory
from repro.video.instances import InstanceSet, ObjectInstance
from repro.video.repository import VideoClip, VideoRepository


def stationary_instance(instance_id, start, duration, category="bus"):
    """An object parked in a unit box for ``duration`` frames from ``start``."""
    return ObjectInstance(
        instance_id=instance_id,
        category=category,
        trajectory=Trajectory.stationary(start, duration, Box(0.0, 0.0, 1.0, 1.0)),
    )


def clip_repository(name, clip_frames, instances):
    """Clips of ``clip_frames`` frames each, laid end to end from frame 0
    and named ``c0``, ``c1``, ..., over ``instances``."""
    clips, start = [], 0
    for clip_id, frames in enumerate(clip_frames):
        clips.append(VideoClip(clip_id, f"c{clip_id}", start, frames))
        start += frames
    return VideoRepository(clips, InstanceSet(instances), name=name)


#: Clip lengths of the matrix world.
MATRIX_CLIPS = (80, 70, 90, 60, 100)


def matrix_world(seed, *extra):
    """Dataset ``cam0``: four buses and two cars over :data:`MATRIX_CLIPS`
    (plus ``extra`` instances).  The seed shifts the ground truth, so every
    matrix row searches different footage."""
    return clip_repository("cam0", MATRIX_CLIPS, [
        stationary_instance(0, (10 + 31 * seed) % 60, 25, "bus"),
        stationary_instance(1, 90 + (17 * seed) % 50, 30, "bus"),
        stationary_instance(2, 230 + (7 * seed) % 40, 20, "bus"),
        stationary_instance(3, 310 + (11 * seed) % 60, 30, "bus"),
        stationary_instance(4, 40 + (13 * seed) % 100, 22, "car"),
        stationary_instance(5, 250 + (19 * seed) % 80, 28, "car"),
        *extra,
    ])


def small_world(seed):
    """Dataset ``cam0``: three buses and two cars over four clips."""
    return clip_repository("cam0", (80, 70, 90, 60), [
        stationary_instance(i, (20 + 37 * seed + 61 * i) % 270, 25, "bus" if i < 3 else "car")
        for i in range(5)
    ])


def parity_service(world, seed, execution, shards, frames_per_tick=16, **options):
    """A service over ``world`` seeded ``seed``, ``execution`` over
    ``shards`` workers, with 50-frame chunks."""
    return QueryService(
        world, chunk_frames=50, frames_per_tick=frames_per_tick,
        execution=execution, shards=shards, seed=seed, **options,
    )


def fingerprint(service, session_ids):
    """The canonical decision bytes of ``session_ids`` in ``service``.

    Per session: lifecycle state, results found and the frames that found
    them, frames processed, per-chunk sample counts, and the sampled
    frames with each one's ``d0`` count and the running results curve.
    """
    record = {}
    for sid in session_ids:
        session = service.sessions[sid]
        history = session.history
        record[sid] = {
            "state": session.state.value,
            "results_found": session.results_found,
            "result_frames": session.result_frames(),
            "frames_processed": session.frames_processed,
            "per_chunk_samples": [int(n) for n in session.chunk_stats.n],
            "sampled_frames": [int(f) for f in history.frame_indices],
            "d0_counts": [int(d) for d in history.d0_counts],
            "results": [int(r) for r in history.results],
        }
    return json.dumps(record, sort_keys=True).encode("utf-8")


def assert_same_decisions(run, baseline, *variants):
    """``run(variant)`` returns fingerprint bytes; every variant's must
    equal the baseline's.  Returns the baseline's bytes."""
    reference = run(baseline)
    for variant in variants:
        assert run(variant) == reference, f"{variant!r} diverged from {baseline!r}"
    return reference


class CountingDetector:
    """Wraps a detector: records the size of every batch it serves in
    ``batches`` and raises on the ``detect_many`` calls whose 1-based
    numbers are in ``fail_on`` (a failed call is counted too)."""

    def __init__(self, inner, fail_on=()):
        self._inner = inner
        self.stats = inner.stats
        self.batches = []
        self.fail_on = set(fail_on)

    def detect(self, frame_index):
        return self.detect_many([frame_index])[0]

    def detect_many(self, frame_indices):
        self.batches.append(len(frame_indices))
        if len(self.batches) in self.fail_on:
            raise RuntimeError("transient detector outage")
        return self._inner.detect_many(frame_indices)
