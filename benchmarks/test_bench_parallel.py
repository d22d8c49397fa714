"""Bench: batched detection over the one parallel execution substrate.

Workload: the Fig. 2 setting — a heavily skewed synthetic corpus whose
instances concentrate in a small fraction of the video — searched by the
ExSample loop, with detector cost simulated as a fixed per-call latency
(the dispatch/transfer overhead real GPU detectors amortize away by
batching and pipelining).  Two execution modes run the *same* sampling
policy:

* **sequential** — frame-at-a-time ``detect`` calls in this process,
  each paying the full per-call latency (``batch_size=1``, through
  :func:`~repro.detection.execution.with_latency`);
* **batched + parallel** — the policy emits §III-F batches which a
  :class:`~repro.distributed.coordinator.ShardCoordinator` splits over
  worker processes, each charging the same per-call latency through the
  same wrapper, concurrently.

Measured claims:

* batched+parallel achieves >= 2x detector-call throughput over the
  sequential reference on the same budget — gated on the median speedup
  of the timed pair and ``EXTRA_PAIRS`` more pairs whose order
  alternates, so one slow run on a loaded machine cannot decide it;
* **parity** — execution mode is invisible to the answer: with the same
  seed, the batch path returns identical detections for every frame and
  the query lands on identical results/recall (the score-equivalence
  contract of the execution layer).
"""

import statistics
import time

import numpy as np

from repro.core.chunking import even_count_chunks
from repro.core.sampler import ExSample
from repro.detection.detector import SimulatedDetector
from repro.detection.execution import with_latency
from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.worker import DetectorSpec
from repro.experiments.reporting import format_table, section
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances

TOTAL_FRAMES = 40_000
INSTANCES = 120
NUM_CHUNKS = 16
LATENCY = 0.002  # 2 ms per detector call, the overhead batching hides
WORKERS = 4
BATCH = 8
BUDGET = 320  # detector-charged frames per run
SEED = 3
# (sequential, parallel) pairs timed beside the ``benchmark`` one, outside
# it, so the regression-gated runtime stays the one pair's
EXTRA_PAIRS = 4


def _repo():
    rng = np.random.default_rng(SEED)
    instances = place_instances(
        INSTANCES, TOTAL_FRAMES, rng, mean_duration=60,
        skew_fraction=0.15, category="car", with_boxes=False,
    )
    return single_clip_repository(TOTAL_FRAMES, instances)


def _sampler(repo, detector, batch_size):
    rng = np.random.default_rng(SEED)
    chunks = even_count_chunks(repo.total_frames, NUM_CHUNKS, rng)
    return ExSample(
        chunks, detector, OracleDiscriminator(), rng=rng, batch_size=batch_size
    )


def _fleet(repo, latency=LATENCY):
    return ShardCoordinator(
        repo, WORKERS,
        detector_spec=DetectorSpec(kind="simulated", seed=SEED),
        latency=latency,
    )


def _timed_run(repo, detector, batch_size):
    sampler = _sampler(repo, detector, batch_size)
    start = time.perf_counter()
    sampler.run(max_samples=BUDGET)
    return sampler, time.perf_counter() - start


def _local(repo, batch_size, latency):
    detector = with_latency(SimulatedDetector(repo, seed=SEED), latency)
    return _timed_run(repo, detector, batch_size)


def _run():
    repo = _repo()
    sequential, t_seq = _local(repo, batch_size=1, latency=LATENCY)
    # context-managed so the workers are shut down even if the run raises
    with _fleet(repo) as fleet:
        fleet.warm_up()  # spawn cost is set-up, not throughput
        parallel, t_par = _timed_run(repo, fleet, BATCH)
    return repo, sequential, parallel, t_seq, t_par


def _extra_speedups(repo) -> list[float]:
    """Per-pair ``t_seq / t_par`` over ``EXTRA_PAIRS`` more pairs, the
    parallel run first in even pairs and second in odd ones (the timed
    pair runs sequential first)."""
    speedups = []
    with _fleet(repo) as fleet:
        fleet.warm_up()
        for pair in range(EXTRA_PAIRS):
            seconds = {}
            for mode in ("par", "seq") if pair % 2 == 0 else ("seq", "par"):
                if mode == "seq":
                    _, seconds[mode] = _local(repo, batch_size=1, latency=LATENCY)
                else:
                    _, seconds[mode] = _timed_run(repo, fleet, BATCH)
            speedups.append(seconds["seq"] / seconds["par"])
    return speedups


def test_bench_parallel(benchmark, save_report):
    repo, sequential, parallel, t_seq, t_par = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    seq_tput = sequential.frames_processed / t_seq
    par_tput = parallel.frames_processed / t_par
    speedups = [par_tput / seq_tput] + _extra_speedups(repo)
    speedup = statistics.median(speedups)

    # ------- parity: same seed, same batch structure, execution-mode blind
    # (a) the fleet returns exactly the per-frame detections
    frames = [int(f) for f in parallel.history.frame_indices[:64]]
    raw = SimulatedDetector(repo, seed=SEED)
    with _fleet(repo, latency=0.0) as fanned:
        assert fanned.detect_many(frames) == [raw.detect(f) for f in frames]
    # (b) the same batched plan executed locally lands on the same answer
    replay, _ = _local(repo, batch_size=BATCH, latency=0.0)
    np.testing.assert_array_equal(
        replay.history.frame_indices, parallel.history.frame_indices
    )
    np.testing.assert_array_equal(replay.history.results, parallel.history.results)
    assert replay.results_found == parallel.results_found
    assert (
        replay.discriminator.distinct_true_instances()
        == parallel.discriminator.distinct_true_instances()
    )

    rows = [
        ["sequential (b=1, local)", sequential.frames_processed,
         f"{t_seq:.3f}", f"{seq_tput:.0f}", sequential.results_found],
        [f"batched+parallel (b={BATCH}, shards={WORKERS})", parallel.frames_processed,
         f"{t_par:.3f}", f"{par_tput:.0f}", parallel.results_found],
    ]
    report = "\n".join(
        [
            section(
                "Execution layer — batched+parallel vs sequential "
                f"({LATENCY * 1e3:.0f} ms simulated per-call latency)"
            ),
            format_table(
                ["mode", "frames", "seconds", "frames/s", "results"], rows
            ),
            f"throughput: {speedup:.2f}x sequential, the median of "
            f"{len(speedups)} alternating pairs "
            f"({', '.join(f'{s:.2f}' for s in speedups)}; parity: identical "
            "detections and results per seed)",
        ]
    )
    save_report("parallel", report)

    assert sequential.frames_processed == parallel.frames_processed == BUDGET
    # the acceptance claim: >= 2x detector-call throughput
    assert speedup >= 2.0, f"median speedup {speedup:.2f}x over pairs {speedups}"
