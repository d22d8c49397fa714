"""Bench: the vectorized sampler hot path (Alg. 1 planning throughput).

Times ``ExSample.plan()`` — the Thompson draw + argmax + frame pick that
dominates serving-tick cost — over a 1000-chunk repository at the
serving batch size, and checks the throughput claims the draw is held
to.  The reference is the same engine planning on a persistent numpy
``Generator`` (the paper-figure experiments' generator): its
``rng.gamma`` is the cheapest way numpy can draw the matrix, while a
:class:`~repro.core.rng.DecisionRng` validates its parameters and
re-keys a Philox for every draw so that the draw is a function of the
op key alone.

* at every shape the shipped plan costs at most 2.5x the Generator's:
  the per-draw keying and validation must stay a bounded overhead on
  numpy's own ``standard_gamma``;
* a served tick round — 8 such engines — planned through ``plan_many``
  (one multi-stream Thompson draw) is at least 1.3x faster than the 8
  plans one by one.

The ``benchmark`` timing (the regression-gated number) measures the
shipped draw.
"""

import math
import time

import numpy as np

from repro.core.chunking import fixed_size_chunks
from repro.core.rng import DecisionRng
from repro.core.sampler import ExSample, plan_many
from repro.detection.detector import OracleDetector
from repro.tracking.discriminator import OracleDiscriminator
from repro.video.repository import single_clip_repository

NUM_CHUNKS = 1000
CHUNK_FRAMES = 40
BATCH = 8
PLANS = 120
# the served shapes (benchmarks/ledger: dashcam at scale 0.04 is 30
# chunks, planned at batch 1 or 8) beside the offline one above
SERVED_CHUNKS = 30
SERVED_SHAPES = [(SERVED_CHUNKS, 1), (SERVED_CHUNKS, BATCH), (NUM_CHUNKS, BATCH)]

# the generator an engine plans on: the shipped decision stream, or a
# persistent numpy Generator as the reference
RNGS = {
    "shipped": DecisionRng,
    "generator": lambda seed: np.random.Generator(np.random.Philox(seed)),
}


def build_engine(
    seed: int = 0, num_chunks: int = NUM_CHUNKS, batch: int = BATCH, rng_kind="shipped"
) -> ExSample:
    total = num_chunks * CHUNK_FRAMES
    rng = RNGS[rng_kind](seed)
    chunks = fixed_size_chunks(total, CHUNK_FRAMES, rng)
    repo = single_clip_repository(total, [])
    engine = ExSample(
        chunks,
        OracleDetector(repo),
        OracleDiscriminator(),
        rng=rng,
        batch_size=batch,
    )
    # a realistic mid-query posterior: skewed hit counts, uneven visits
    for m in range(num_chunks):
        n = 1 + (m * 7) % 23
        n1 = (m % 11) % n
        engine.stats.record(m, n1, 0)
        for _ in range(n - 1):
            engine.stats.record(m, 0, 0)
    return engine


def run_plans(engine: ExSample, plans: int = PLANS) -> int:
    picked = 0
    for _ in range(plans):
        picked += len(engine.plan(batch_size=BATCH))
    return picked


def timed_plans(engine: ExSample, plans: int = PLANS) -> float:
    run_plans(engine, plans=4)  # warm the layout and allocator
    start = time.perf_counter()
    run_plans(engine, plans=plans)
    return time.perf_counter() - start


def plan_microseconds(num_chunks: int, batch: int, attempts: int = 5) -> dict:
    """Best-of-``attempts`` mean cost of one ``plan(batch)`` per
    generator, as ``{kind: microseconds}`` over the kinds of RNGS.

    Fresh engines of 12 plans each, so a 30-chunk repository (1200
    frames) is never drained and every timing plans over the same
    posterior; the generators alternate attempt by attempt, so a drift
    in machine speed lands on both sides of the ratio.  Timed in this
    process's CPU time: planning is pure computation here, and another
    process taking the CPU mid-timing is not a cost of either generator.
    """
    best = dict.fromkeys(RNGS, math.inf)
    for _ in range(attempts):
        for kind in best:
            engine = build_engine(seed=4, num_chunks=num_chunks, batch=batch, rng_kind=kind)
            engine.plan(batch_size=batch)
            start = time.process_time()
            for _ in range(12):
                engine.plan(batch_size=batch)
            elapsed = (time.process_time() - start) / 12
            best[kind] = min(best[kind], elapsed * 1e6)
    return best


def tick_round_microseconds(engines: int = 8, attempts: int = 25) -> dict:
    """Best-of-``attempts`` cost of planning one served tick round —
    ``engines`` engines at 30 chunks, batch 1 — as ``{"one_by_one": us,
    "plan_many": us}``.  The two ways alternate attempt by attempt over
    fresh engines with the same posteriors."""
    best = {"one_by_one": math.inf, "plan_many": math.inf}
    for _ in range(attempts):
        for mode in best:
            group = [
                build_engine(seed=10 + i, num_chunks=SERVED_CHUNKS, batch=1)
                for i in range(engines)
            ]
            plan_many([(engine, 1) for engine in group])  # warm
            start = time.perf_counter()
            for _ in range(12):
                if mode == "plan_many":
                    plan_many([(engine, 1) for engine in group])
                else:
                    for engine in group:
                        engine.plan(batch_size=1)
            elapsed = (time.perf_counter() - start) / 12
            best[mode] = min(best[mode], elapsed * 1e6)
    return best


def test_bench_sampler_vectorized(benchmark, save_report):
    benchmark.pedantic(
        run_plans,
        setup=lambda: ((build_engine(),), {}),
        rounds=3,
        iterations=1,
    )

    lines = [
        "sampler hot path: plan() over "
        f"{NUM_CHUNKS} chunks, batch={BATCH}, {PLANS} plans per timing",
    ]
    for kind in RNGS:
        elapsed = timed_plans(build_engine(seed=1, rng_kind=kind))
        lines.append(
            f"{kind:<9}: {elapsed:.4f}s ({PLANS * BATCH / elapsed:,.0f} frames planned/s)"
        )

    lines.append("per plan() by shape (best of 5; the served shape best of 25):")
    for num_chunks, batch in SERVED_SHAPES:
        served = (num_chunks, batch) == (SERVED_CHUNKS, 1)
        cost = plan_microseconds(num_chunks, batch, attempts=25 if served else 5)
        ratio = cost["shipped"] / cost["generator"]
        lines.append(
            f"  M={num_chunks:<4d} batch={batch} : shipped {cost['shipped']:8.0f} us   "
            f"generator {cost['generator']:8.0f} us   shipped/generator = {ratio:.2f}"
        )
        assert ratio <= 2.5, (
            f"at M={num_chunks} batch={batch} the shipped draw plans {ratio:.2f}x "
            f"the numpy Generator's ({cost['shipped']:.0f} vs "
            f"{cost['generator']:.0f} us): the per-draw keying has regressed"
        )
    cost = tick_round_microseconds()
    speedup = cost["one_by_one"] / cost["plan_many"]
    lines.append(
        f"tick round, 8 engines x M={SERVED_CHUNKS} batch=1 (best of 25): "
        f"one by one {cost['one_by_one']:.0f} us   plan_many "
        f"{cost['plan_many']:.0f} us   speedup {speedup:.1f}x"
    )
    assert speedup >= 1.3, (
        "one Thompson draw for a served tick round is only "
        f"{speedup:.1f}x planning its sessions one by one"
    )
    save_report("sampler_vectorized", "\n".join(lines))
