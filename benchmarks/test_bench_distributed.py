"""Bench: shard-parallel query serving across worker processes.

Workload: the multi-tenant serving setting the distributed subsystem
exists for — one :class:`~repro.serving.service.QueryService` over a
multi-clip latency-simulated corpus, four concurrent sessions (one per
category) whose per-tick §III-F batches the service coalesces into one
batched detector call.  Two execution backends run the *same* sessions:

* **local** — the coalesced batch served in-process, frame-at-a-time,
  each call paying the full simulated per-call latency;
* **sharded** — the batch split evenly by a
  :class:`~repro.distributed.coordinator.ShardCoordinator` over 4
  worker processes, each paying its slice's latency concurrently with
  the others.

A second workload is the paper's own shape: **one** session whose
Thompson sampler deliberately *concentrates* its §III-F batches on the
few clips that hold its objects (that is the algorithm working).  Every
worker is a full replica and a batch is split by count, so a batch
drawn from one clip occupies the fleet exactly as a spread one does.

Measured claims:

* the sharded service achieves >= 2x detector-call throughput over the
  single-process reference at 4 shards, on the same budget — for the
  four coalesced tenants and for the single concentrating query alike;
* **parity** — the backend is invisible to answers: the coordinator
  returns exactly the local per-frame detections, and every session
  lands on the identical sampled-frame sequence, results, and result
  frames as its single-process twin.
"""

import time

import numpy as np

from repro.detection.detector import SimulatedDetector
from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.worker import DetectorSpec
from repro.experiments.reporting import format_table, section
from repro.serving.service import QueryService
from repro.video.instances import InstanceSet
from repro.video.repository import VideoClip, VideoRepository
from repro.video.synthetic import place_instances

NUM_CLIPS = 16
CLIP_FRAMES = 2_500
TOTAL_FRAMES = NUM_CLIPS * CLIP_FRAMES
CATEGORIES = ("car", "bus", "person", "bicycle")
INSTANCES_PER_CATEGORY = 30
LATENCY = 0.002  # 2 ms per detector call — what the shards overlap
SHARDS = 4
BATCH = 8  # per-session §III-F batch; 4 sessions coalesce to ~32/tick
FRAMES_PER_TICK = 32
# sized so the benchmark clears the regression gate's --min-share noise
# floor (~1% of suite time): a key below the floor is listed but never
# enforced, and this key exists to be enforced
BUDGET_PER_SESSION = 200  # detector-charged frames per session
SEED = 3


# the concentrating query: its objects sit in ~2 of the 16 clips
HOT_CATEGORY = "tram"
HOT_CLIP = 5
HOT_BATCH = 16
HOT_BUDGET = 320


def _repo():
    rng = np.random.default_rng(SEED)
    boundaries = list(range(0, TOTAL_FRAMES + 1, CLIP_FRAMES))
    instances = []
    for k, category in enumerate(CATEGORIES):
        instances.extend(
            place_instances(
                INSTANCES_PER_CATEGORY, TOTAL_FRAMES, rng, mean_duration=60,
                skew_fraction=None, category=category, with_boxes=False,
                start_id=1000 * k, boundaries=boundaries,
            )
        )
    # drawn after the four spread categories, so their ground truth (and
    # the first benchmark's decision streams) is what it always was
    instances.extend(
        place_instances(
            INSTANCES_PER_CATEGORY, TOTAL_FRAMES, rng, mean_duration=60,
            skew_fraction=1.0 / NUM_CLIPS, center_fraction=(HOT_CLIP + 0.5) / NUM_CLIPS,
            category=HOT_CATEGORY, with_boxes=False,
            start_id=1000 * len(CATEGORIES), boundaries=boundaries,
        )
    )
    clips = [
        VideoClip(i, f"clip-{i}", i * CLIP_FRAMES, CLIP_FRAMES)
        for i in range(NUM_CLIPS)
    ]
    return VideoRepository(clips, InstanceSet(instances), name="bench-dist")


def _service(execution, shards, batch=BATCH, frames_per_tick=FRAMES_PER_TICK):
    repo = _repo()
    common = dict(
        frames_per_tick=frames_per_tick,
        batch_size=batch,
        detector_latency=LATENCY,
        seed=SEED,
    )
    if execution == "sharded":
        return QueryService(
            repo,
            execution="sharded",
            shards=shards,
            detector_spec=DetectorSpec(kind="simulated", seed=SEED),
            **common,
        )
    return QueryService(
        repo,
        detector_factory=lambda r: SimulatedDetector(r, seed=SEED),
        **common,
    )


def _run_service(execution, shards=1, categories=CATEGORIES,
                 budget=BUDGET_PER_SESSION, **shape):
    service = _service(execution, shards, **shape)
    try:
        for category in categories:
            service.submit(
                "bench-dist", category, max_samples=budget, warm_start=False,
            )
        if execution == "sharded":
            service.shard_backend("bench-dist").warm_up()  # spawn != throughput
        start = time.perf_counter()
        service.run_until_idle()
        elapsed = time.perf_counter() - start
        outcome = {
            sid: {
                "frames": [int(f) for f in s.history.frame_indices],
                "results": [int(r) for r in s.history.results],
                "result_frames": s.result_frames(),
            }
            for sid, s in service.sessions.items()
        }
        return service.detector_calls, elapsed, outcome
    finally:
        service.close()


def _run():
    calls_seq, t_seq, outcome_seq = _run_service("local")
    calls_shard, t_shard, outcome_shard = _run_service("sharded", SHARDS)
    return calls_seq, t_seq, outcome_seq, calls_shard, t_shard, outcome_shard


def test_bench_distributed(benchmark, save_report):
    calls_seq, t_seq, outcome_seq, calls_shard, t_shard, outcome_shard = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )
    seq_tput = calls_seq / t_seq
    shard_tput = calls_shard / t_shard
    speedup = shard_tput / seq_tput

    # ------- parity: the distributed backend is invisible to the answer
    # (a) every session's decision stream and results match its local twin
    assert calls_seq == calls_shard
    assert outcome_shard == outcome_seq
    # (b) the coordinator returns exactly the local per-frame detections
    repo = _repo()
    raw = SimulatedDetector(repo, seed=SEED)
    probe = outcome_seq["s1"]["frames"][:48]
    with ShardCoordinator(
        repo, SHARDS, detector_spec=DetectorSpec(kind="simulated", seed=SEED)
    ) as checker:
        assert checker.detect_many(probe) == [raw.detect(f) for f in probe]

    rows = [
        ["local (1 process)", calls_seq,
         f"{t_seq:.3f}", f"{seq_tput:.0f}",
         sum(len(o["result_frames"]) for o in outcome_seq.values())],
        [f"sharded ({SHARDS} workers)", calls_shard,
         f"{t_shard:.3f}", f"{shard_tput:.0f}",
         sum(len(o["result_frames"]) for o in outcome_shard.values())],
    ]
    report = "\n".join(
        [
            section(
                "Distributed serving — 4 coalesced sessions, shard workers vs "
                f"one process ({LATENCY * 1e3:.0f} ms simulated per-call latency)"
            ),
            format_table(
                ["mode", "detector calls", "seconds", "calls/s", "result frames"],
                rows,
            ),
            f"throughput: {speedup:.2f}x single-process "
            f"(parity: identical decision streams and results per seed)",
        ]
    )
    save_report("distributed", report)

    # every session spent its full budget; real detector calls may dip
    # below the sum when sessions collide on a frame (the shared cache
    # serving one session's detection to another — sharing working)
    assert all(
        len(o["frames"]) == BUDGET_PER_SESSION for o in outcome_seq.values()
    )
    assert calls_seq <= len(CATEGORIES) * BUDGET_PER_SESSION
    # the acceptance claim: >= 2x detector throughput at 4 shards
    assert speedup >= 2.0


def _run_hot():
    shape = dict(categories=(HOT_CATEGORY,), budget=HOT_BUDGET,
                 batch=HOT_BATCH, frames_per_tick=HOT_BATCH)
    return _run_service("local", **shape) + _run_service("sharded", SHARDS, **shape)


def test_bench_distributed_concentrated_query(benchmark, save_report):
    """One session, batches concentrated on its hot clips: the shape
    ownership routing pinned to one or two of the four workers."""
    calls_seq, t_seq, outcome_seq, calls_shard, t_shard, outcome_shard = (
        benchmark.pedantic(_run_hot, rounds=1, iterations=1)
    )
    speedup = (calls_shard / t_shard) / (calls_seq / t_seq)
    assert calls_seq == calls_shard == HOT_BUDGET
    assert outcome_shard == outcome_seq

    # the workload is what it says: most sampled frames sit in two clips
    frames = outcome_seq["s1"]["frames"]
    per_clip = sorted(
        (sum(1 for f in frames if f // CLIP_FRAMES == clip) for clip in range(NUM_CLIPS)),
        reverse=True,
    )
    hot_share = sum(per_clip[:2]) / len(frames)
    assert hot_share >= 0.5, per_clip

    save_report(
        "distributed_concentrated",
        "\n".join(
            [
                section(
                    "Distributed serving — one query concentrating on its hot "
                    f"clips ({hot_share:.0%} of {len(frames)} frames in 2 of "
                    f"{NUM_CLIPS} clips), batch {HOT_BATCH}"
                ),
                format_table(
                    ["mode", "detector calls", "seconds", "calls/s"],
                    [
                        ["local (1 process)", calls_seq, f"{t_seq:.3f}",
                         f"{calls_seq / t_seq:.0f}"],
                        [f"sharded ({SHARDS} workers)", calls_shard,
                         f"{t_shard:.3f}", f"{calls_shard / t_shard:.0f}"],
                    ],
                ),
                f"throughput: {speedup:.2f}x single-process (parity: identical "
                "decision stream and results)",
            ]
        ),
    )
    assert speedup >= 2.0
