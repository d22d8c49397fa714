"""Bench: the vectorized sampler hot path (Alg. 1 planning throughput).

Times ``ExSample.plan()`` — the Thompson draw + argmax + frame pick that
dominates serving-tick cost — over a 1000-chunk repository at the
serving batch size, and checks the throughput claims the draw's
executors are held to.  The "scalar executor" is the pure-Python round
code running every draw whole (``rng._SCALAR_ROUND_MAX`` raised past any
draw, as the contract tests set it); the "vector executor" runs every
round through numpy (``_SCALAR_ROUND_MAX = 0``); the shipped executor
vectorises every round over ``_SCALAR_ROUND_MAX`` elements and hands
smaller rounds to the scalar code.

* the shipped executor plans at least 5x faster than the scalar
  executor on the same flat-array layout;
* at the served shape (30 chunks, batch 1) the shipped plan is no
  slower than 1.25x the vector executor's: that draw is small enough
  to run whole through the scalar code, and the handover must never
  cost a session more than vectorising it would (the crossover the
  ``_SCALAR_ROUND_MAX`` comment in ``core/rng.py`` measures);
* a served tick round — 8 such engines — planned through ``plan_many``
  (one multi-stream Thompson draw) is at least 2x faster than the 8
  plans one by one.

The ``benchmark`` timing (the regression-gated number) measures the
shipped executor.
"""

import contextlib
import math
import time

from repro.core import rng as rng_module
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


# ``rng._SCALAR_ROUND_MAX`` per executor; "shipped" keeps the module's own
THRESHOLDS = {"scalar": 10**9, "vector": 0, "shipped": None}


@contextlib.contextmanager
def executor(kind: str):
    """Run the block's Thompson draws on one executor of THRESHOLDS."""
    shipped = rng_module._SCALAR_ROUND_MAX
    threshold = THRESHOLDS[kind]
    rng_module._SCALAR_ROUND_MAX = shipped if threshold is None else threshold
    try:
        yield
    finally:
        rng_module._SCALAR_ROUND_MAX = shipped


def build_engine(
    seed: int = 0, num_chunks: int = NUM_CHUNKS, batch: int = BATCH
) -> ExSample:
    total = num_chunks * CHUNK_FRAMES
    rng = DecisionRng(seed)
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
    """Best-of-``attempts`` mean cost of one ``plan(batch)`` per executor,
    as ``{kind: microseconds}`` over the kinds of THRESHOLDS.

    Fresh engines of 12 plans each, so a 30-chunk repository (1200
    frames) is never drained and every timing plans over the same
    posterior; the executors alternate attempt by attempt, so a drift in
    machine speed lands on both sides of the ratio.  Timed in this
    process's CPU time: planning is pure computation here, and another
    process taking the CPU mid-timing is not a cost of either executor.
    """
    best = dict.fromkeys(THRESHOLDS, math.inf)
    for _ in range(attempts):
        for kind in best:
            with executor(kind):
                engine = build_engine(seed=4, num_chunks=num_chunks, batch=batch)
                engine.plan(batch_size=batch)
                start = time.process_time()
                for _ in range(12):
                    engine.plan(batch_size=batch)
                elapsed = (time.process_time() - start) / 12
            best[kind] = min(best[kind], elapsed * 1e6)
    return best


def tick_round_microseconds(engines: int = 8, attempts: int = 25) -> dict:
    """Best-of-``attempts`` cost of planning one served tick round —
    ``engines`` engines at 30 chunks, batch 1 — on the shipped executor,
    as ``{"one_by_one": us, "plan_many": us}``.  The two ways alternate
    attempt by attempt over fresh engines with the same posteriors."""
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
    fast_elapsed = timed_plans(build_engine(seed=1))
    with executor("scalar"):
        scalar_elapsed = timed_plans(build_engine(seed=1))
    speedup = scalar_elapsed / fast_elapsed
    lines += [
        f"shipped executor: {fast_elapsed:.4f}s "
        f"({PLANS * BATCH / fast_elapsed:,.0f} frames planned/s)",
        f"scalar executor : {scalar_elapsed:.4f}s "
        f"({PLANS * BATCH / scalar_elapsed:,.0f} frames planned/s)",
        f"speedup         : {speedup:.1f}x",
    ]
    assert speedup >= 5.0, (
        f"vectorized planning is only {speedup:.1f}x the scalar executor; "
        "the hot path has regressed"
    )

    lines.append("per plan() by shape (best of 5; the gated shape best of 25):")
    for num_chunks, batch in SERVED_SHAPES:
        gated = (num_chunks, batch) == (SERVED_CHUNKS, 1)
        cost = plan_microseconds(num_chunks, batch, attempts=25 if gated else 5)
        shape = f"  M={num_chunks:<4d} batch={batch}"
        lines.append(
            f"{shape} : shipped {cost['shipped']:8.0f} us   "
            f"scalar {cost['scalar']:8.0f} us   vector {cost['vector']:8.0f} us   "
            f"shipped/scalar = {cost['shipped'] / cost['scalar']:.2f}   "
            f"shipped/vector = {cost['shipped'] / cost['vector']:.2f}"
        )
        if gated:
            assert cost["shipped"] <= cost["vector"] * 1.25, (
                "at the served shape the shipped executor plans slower than "
                f"the vector one ({cost['shipped']:.0f} vs {cost['vector']:.0f} us)"
            )
    cost = tick_round_microseconds()
    speedup = cost["one_by_one"] / cost["plan_many"]
    lines.append(
        f"tick round, 8 engines x M={SERVED_CHUNKS} batch=1 (best of 25): "
        f"one by one {cost['one_by_one']:.0f} us   plan_many "
        f"{cost['plan_many']:.0f} us   speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, (
        "one Thompson draw for a served tick round is only "
        f"{speedup:.1f}x planning its sessions one by one"
    )
    save_report("sampler_vectorized", "\n".join(lines))
