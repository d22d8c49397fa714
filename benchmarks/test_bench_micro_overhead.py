"""Micro-bench: the sampler's per-decision overhead.

§III says ExSample's runtime "is roughly proportional to the number of
frames processed by the detector" — which is only true if the decision
machinery (M Gamma draws + argmax + without-replacement draw + state
update) is negligible next to a detector invocation (~50 ms at the
paper's 20 fps).  This bench measures the full non-detector iteration
cost at three chunk counts and asserts it stays below 5 ms even at
M = 8192 — two orders of magnitude under the detector's share.

A second bench guards the serving refactor: ``run()`` is now a thin
wrapper over the incremental ``steps()`` generator, and the generator
machinery must not tax the non-serving callers — the wrapped loop is
held to <5% overhead against the pre-refactor inline loop on a
Fig.-2-scale skewed workload.
"""

import time

import numpy as np
import pytest

from repro.core.chunking import even_count_chunks
from repro.core.sampler import ExSample
from repro.detection.detector import OracleDetector
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import single_clip_repository
from repro.video.synthetic import place_instances

DETECTOR_SECONDS = 1.0 / 20.0  # one detector call at the paper's 20 fps


def make_sampler(num_chunks: int, seed: int = 0) -> ExSample:
    # an empty repository isolates pure decision overhead: the oracle
    # detector returns instantly, so each step is belief + bookkeeping.
    repo = single_clip_repository(num_chunks * 1000, [])
    rng = np.random.default_rng(seed)
    chunks = even_count_chunks(repo.total_frames, num_chunks, rng)
    return ExSample(chunks, OracleDetector(repo), OracleDiscriminator(), rng=rng)


@pytest.mark.parametrize("num_chunks", [64, 1024, 8192])
def test_bench_step_overhead(benchmark, num_chunks):
    sampler = make_sampler(num_chunks)

    def run_steps():
        for _ in range(50):
            sampler.step()

    benchmark.pedantic(run_steps, rounds=3, iterations=1, warmup_rounds=1)
    per_step = benchmark.stats.stats.mean / 50
    # decision cost must vanish against one detector invocation.
    assert per_step < 0.1 * DETECTOR_SECONDS, (
        f"per-step overhead {per_step * 1e3:.2f} ms at M={num_chunks} is not "
        f"negligible vs a {DETECTOR_SECONDS * 1e3:.0f} ms detector call"
    )


# ---------------------------------------------------- steps() refactor cost

FIG2_INSTANCES = 1000  # the §III-D simulation scale Fig. 2 is drawn at
FIG2_FRAMES = 120_000
FIG2_SAMPLES = 1000
FIG2_CHUNKS = 32
ROUNDS = 21  # first round is warm-up and discarded


def make_fig2_sampler(seed: int = 0) -> ExSample:
    # the Fig. 2 workload: ~1000 heavily skewed lognormal-duration
    # instances, sampled adaptively; oracle substrate so the measured
    # cost is the loop itself, not detector simulation noise.
    rng = np.random.default_rng(seed)
    instances = place_instances(
        FIG2_INSTANCES, FIG2_FRAMES, rng, mean_duration=60.0,
        skew_fraction=0.25, with_boxes=False,
    )
    repo = single_clip_repository(FIG2_FRAMES, instances)
    loop_rng = np.random.default_rng(seed + 1)
    chunks = even_count_chunks(repo.total_frames, FIG2_CHUNKS, loop_rng)
    return ExSample(chunks, OracleDetector(repo), OracleDiscriminator(), rng=loop_rng)


def _legacy_run(sampler: ExSample, max_samples: int) -> None:
    """The pre-refactor run() loop, inlined: direct step() calls with the
    stopping clauses checked in the loop header, no generator."""
    while not sampler.exhausted:
        if sampler.frames_processed >= max_samples:
            break
        sampler.step()


def _wrapped_run(sampler: ExSample, max_samples: int) -> None:
    sampler.run(max_samples=max_samples)


def test_bench_steps_refactor_overhead(benchmark):
    """The iterator-based run() must stay within 5% of the inline loop."""
    import gc
    import statistics

    ratios: list[float] = []
    # interleave the variants (same seed, same workload per round) and
    # gate the median of the per-round wrapped/legacy ratios: individual
    # rounds on a busy machine spike by 10%+, but a spike lands on one
    # ratio, not on the median of 20.  The order alternates round by
    # round, so whatever the second run of a pair gains or loses (a
    # warmer cache) lands on each arm equally often.  Both arms are pure
    # computation in this process, so each is timed in this process's
    # CPU time: on a 2-core box with other processes runnable, the
    # wall-clock median swung 0.91-1.31 over runs where CPU time read
    # 0.99-1.04.
    arms = (("legacy", _legacy_run), ("wrapped", _wrapped_run))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(ROUNDS):
            elapsed: dict[str, float] = {}
            for name, runner in arms if round_index % 2 else arms[::-1]:
                sampler = make_fig2_sampler(seed=round_index)
                start = time.process_time()
                runner(sampler, FIG2_SAMPLES)
                elapsed[name] = time.process_time() - start
                assert sampler.frames_processed == FIG2_SAMPLES
            if round_index > 0:  # round 0 is warm-up
                ratios.append(elapsed["wrapped"] / elapsed["legacy"])
    finally:
        if gc_was_enabled:
            gc.enable()

    ratio = statistics.median(ratios)
    benchmark.pedantic(
        lambda: _wrapped_run(make_fig2_sampler(), FIG2_SAMPLES),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["overhead_ratio"] = ratio
    assert ratio < 1.05, (
        f"steps() refactor costs {(ratio - 1) * 100:.1f}% over the "
        f"pre-refactor loop on the Fig. 2 workload (median of "
        f"{len(ratios)} per-round ratios, {FIG2_SAMPLES} samples per run)"
    )
