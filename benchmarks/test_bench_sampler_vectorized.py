"""Bench: the vectorized sampler hot path (Alg. 1 planning throughput).

Times ``ExSample.plan()`` — the Thompson draw + argmax + frame pick that
dominates serving-tick cost — over a 1000-chunk repository at the
serving batch size, and checks the two throughput claims the PR gates:

* the numpy fast path plans at least 5x faster than the pure-Python
  fallback on the same flat-array layout;
* the fallback itself is no slower than the naive per-arm scalar loop
  it replaced (within noise), so losing numpy costs vectorization, not
  an extra penalty;
* at the served shape (30 chunks, batch 1) the numpy backend's plan is
  no slower than 1.25x the fallback's: the draw hands rounds that small
  to the scalar code, so having numpy installed never costs a session;
* a served tick round — 8 such engines — planned through ``plan_many``
  (one multi-stream Thompson draw) is at least 2x faster than the 8
  plans one by one.

The ``benchmark`` timing (the regression-gated number) measures the
backend the run actually uses, so the nightly baseline tracks the fast
path while a force-fallback run still produces a comparable report.
"""

import math
import time

from repro.core import backend
from repro.core.belief import DEFAULT_ALPHA0, DEFAULT_BETA0
from repro.core.chunking import fixed_size_chunks
from repro.core.estimator import ChunkStatistics
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
    """Best-of-``attempts`` mean cost of one ``plan(batch)`` per backend,
    as ``{forced_fallback: microseconds}``.

    Fresh engines of 12 plans each, so a 30-chunk repository (1200
    frames) is never drained and every timing plans over the same
    posterior; the backends alternate attempt by attempt, so a drift in
    machine speed lands on both sides of the ratio.
    """
    modes = (True, False) if backend.HAVE_NUMPY else (True,)
    best = dict.fromkeys(modes, math.inf)
    old = backend.set_force_fallback(False)
    try:
        for _ in range(attempts):
            for forced in modes:
                backend.set_force_fallback(forced)
                engine = build_engine(seed=4, num_chunks=num_chunks, batch=batch)
                engine.plan(batch_size=batch)
                start = time.perf_counter()
                for _ in range(12):
                    engine.plan(batch_size=batch)
                elapsed = (time.perf_counter() - start) / 12
                best[forced] = min(best[forced], elapsed * 1e6)
    finally:
        backend.set_force_fallback(old)
    return best


def tick_round_microseconds(engines: int = 8, attempts: int = 25) -> dict:
    """Best-of-``attempts`` cost of planning one served tick round —
    ``engines`` engines at 30 chunks, batch 1 — on the numpy backend, as
    ``{"one_by_one": us, "plan_many": us}``.  The two ways alternate
    attempt by attempt over fresh engines with the same posteriors."""
    best = {"one_by_one": math.inf, "plan_many": math.inf}
    old = backend.set_force_fallback(False)
    try:
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
    finally:
        backend.set_force_fallback(old)
    return best


def naive_scalar_gamma(rng: DecisionRng, shape: float) -> float:
    """Marsaglia-Tsang, one arm at a time — the pre-vectorization cost
    model: a Python-level loop body per (row, arm) pair."""
    boost = 1.0
    if shape < 1.0:
        boost = rng.random() ** (1.0 / shape)
        shape += 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return boost * d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return boost * d * v


def naive_plan_loop(stats: ChunkStatistics, rng: DecisionRng, plans: int) -> float:
    """Per-arm scalar Thompson rounds over the same statistics."""
    n1 = list(stats.n1)
    n = list(stats.n)
    start = time.perf_counter()
    for _ in range(plans):
        for _row in range(BATCH):
            best, best_val = 0, -1.0
            for m in range(NUM_CHUNKS):
                draw = naive_scalar_gamma(rng, n1[m] + DEFAULT_ALPHA0) / (
                    n[m] + DEFAULT_BETA0
                )
                if draw > best_val:
                    best, best_val = m, draw
            assert 0 <= best < NUM_CHUNKS
    return time.perf_counter() - start


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
    fallback_elapsed = None
    if backend.HAVE_NUMPY:
        old = backend.set_force_fallback(False)
        try:
            fast_elapsed = timed_plans(build_engine(seed=1))
            backend.set_force_fallback(True)
            fallback_elapsed = timed_plans(build_engine(seed=1))
        finally:
            backend.set_force_fallback(old)
        speedup = fallback_elapsed / fast_elapsed
        lines += [
            f"numpy fast path : {fast_elapsed:.4f}s "
            f"({PLANS * BATCH / fast_elapsed:,.0f} frames planned/s)",
            f"pure fallback   : {fallback_elapsed:.4f}s "
            f"({PLANS * BATCH / fallback_elapsed:,.0f} frames planned/s)",
            f"speedup         : {speedup:.1f}x",
        ]
        assert speedup >= 5.0, (
            f"vectorized planning is only {speedup:.1f}x the fallback; "
            "the hot path has regressed"
        )
    else:
        fallback_elapsed = timed_plans(build_engine(seed=1))
        lines.append(f"pure fallback   : {fallback_elapsed:.4f}s (numpy absent)")

    # the fallback must not lose to the per-arm scalar loop it replaced
    naive_plans = max(4, PLANS // 8)  # the naive loop is slow; sample it
    old = backend.set_force_fallback(True)
    try:
        engine = build_engine(seed=2)
        naive_elapsed = (
            naive_plan_loop(engine.stats, DecisionRng(3), naive_plans)
            * PLANS
            / naive_plans
        )
        layout_elapsed = timed_plans(build_engine(seed=2))
    finally:
        backend.set_force_fallback(old)
    lines.append(
        f"naive per-arm   : {naive_elapsed:.4f}s (extrapolated from "
        f"{naive_plans} plans); fallback/naive = "
        f"{layout_elapsed / naive_elapsed:.2f}"
    )
    # a sanity bound, not a tight race: the fallback pays for the
    # bit-identical counter-substream schedule, so it may run somewhat
    # behind the unconstrained naive loop — but never half again as long
    assert layout_elapsed <= naive_elapsed * 1.5, (
        "the flat-array fallback is slower than the naive per-arm loop "
        f"({layout_elapsed:.3f}s vs {naive_elapsed:.3f}s)"
    )

    lines.append("per plan() by shape (best of 5; the gated shape best of 25):")
    for num_chunks, batch in SERVED_SHAPES:
        gated = (num_chunks, batch) == (SERVED_CHUNKS, 1)
        cost = plan_microseconds(num_chunks, batch, attempts=25 if gated else 5)
        shape = f"  M={num_chunks:<4d} batch={batch}"
        if not backend.HAVE_NUMPY:
            lines.append(f"{shape} : pure {cost[True]:8.0f} us (numpy absent)")
            continue
        lines.append(
            f"{shape} : numpy {cost[False]:8.0f} us   pure {cost[True]:8.0f} us   "
            f"numpy/pure = {cost[False] / cost[True]:.2f}"
        )
        if gated:
            assert cost[False] <= cost[True] * 1.25, (
                "at the served shape the numpy backend plans slower than the "
                f"fallback it accelerates ({cost[False]:.0f} vs {cost[True]:.0f} us)"
            )
    if backend.HAVE_NUMPY:
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
