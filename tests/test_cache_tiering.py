"""Bounded cache tiering and the eviction-parity contract.

The serving layer's core invariant — sampling decisions depend only on
each session's seed and step count, never on cache contents — makes
eviction a pure cost event: a bounded cache may change detector-call
counts and ``repro_cache_*`` telemetry, but never any query's decision
stream.  This module pins that contract over a seed matrix × budget
matrix × execution backends, plus the :class:`TieredBackend` mechanics
(LRU order, budgets, write-through) and cross-service sharing: one
:class:`DetectionCache` passed to several services as ``cache=`` (a
frame detected under one is a hit for all, again without touching
answers).
"""

from contracts import assert_same_decisions, fingerprint, matrix_world, parity_service
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.cache import (
    CachingDetector,
    DetectionCache,
    InMemoryBackend,
    TieredBackend,
)
from repro.distributed.coordinator import ShardCoordinator
from repro.video.geometry import Box


def _submit(service, **options):
    return [
        service.submit(
            "cam0", "bus", limit=3, max_samples=50, priority=2.0, **options
        ),
        service.submit("cam0", "car", max_samples=35, **options),
    ]


def _run(seed, execution, shards, cache_budget):
    """One full service run; returns (fingerprint, detector_calls).

    Sessions are submitted up front on an *empty* cache: a fresh
    submission's warm-start set is read from the cache at submit time,
    so submitting mid-run would legitimately couple warm-start contents
    (and therefore decisions) to the budget — see CONTRIBUTING.md.
    """
    service = parity_service(
        matrix_world(seed), seed, execution, shards, cache_budget=cache_budget
    )
    try:
        sids = _submit(service)
        service.run_until_idle(max_ticks=200)
        return fingerprint(service, sids), service.detector_calls
    finally:
        service.close()


# ----------------------------------------------------- eviction parity

BUDGETS = (None, 4, 0)  # unbounded, far below working set, nothing


def test_eviction_parity_matrix_local():
    """Decision streams are byte-identical across cache budgets; eviction
    may only grow the detector-call count (monotonically as the budget
    shrinks)."""
    total = [0, 0, 0]
    for seed in (0, 1, 2, 3, 4):
        calls = []

        def run(leg):
            fp, detector_calls = _run(*leg)
            calls.append(detector_calls)
            return fp

        assert_same_decisions(run, *[(seed, "local", 1, budget) for budget in BUDGETS])
        assert calls[0] <= calls[1] <= calls[2], (
            f"seed {seed}: shrinking the budget must not *save* detector "
            f"calls: {calls}"
        )
        total = [t + c for t, c in zip(total, calls)]
    # across the matrix, eviction must actually have cost something, or
    # the budgets were never below the working set and the test is vacuous
    assert total[2] > total[0], f"zero budget cost nothing: {total}"


def test_eviction_parity_matrix_sharded():
    """The same contract under sharded execution: the one cache in front
    of the coordinator is bounded, the workers hold nothing."""
    for seed in (0, 1, 2):
        assert_same_decisions(
            lambda leg: _run(*leg)[0],
            (seed, "local", 1, None), *[(seed, "sharded", 2, budget) for budget in BUDGETS],
        )


def test_eviction_parity_with_shared_cache():
    """Two services ticking side by side over one bounded cache evict
    each other's entries all the way through; neither's answers move."""
    local_fp, _ = _run(0, "local", 1, None)
    shared = DetectionCache(TieredBackend(max_entries=3))
    tenants = [
        parity_service(matrix_world(0), 0, "sharded", 2, cache=shared) for _ in range(2)
    ]
    try:
        sids = [_submit(service) for service in tenants]  # cache still empty
        for _ in range(200):
            if not any(service.tick() for service in tenants):
                break
        for service, session_ids in zip(tenants, sids):
            assert fingerprint(service, session_ids) == local_fp
        assert shared.backend.tier_stats.evictions > 0
    finally:
        for service in tenants:
            service.close()


# ----------------------------------------------------- tiered backend

def _rows(frame, n=1):
    return [
        {"frame": frame, "box": [0.0, 0.0, 1.0, 1.0], "category": "bus",
         "score": 0.9, "instance": i}
        for i in range(n)
    ]


def test_lru_evicts_oldest_and_touch_refreshes():
    tier = TieredBackend(max_entries=2)
    tier.put_many("d", [(1, _rows(1))])
    tier.put_many("d", [(2, _rows(2))])
    assert tier.get_many("d", [1])[0] is not None  # touch 1: now 2 is the LRU head
    tier.put_many("d", [(3, _rows(3))])  # evicts 2
    assert tier.get_many("d", [2])[0] is None
    assert tier.get_many("d", [1])[0] is not None
    assert tier.get_many("d", [3])[0] is not None
    assert tier.tier_stats.evictions == 1
    assert tier.tier_entries == 2


def test_zero_budget_stores_nothing_but_backing_keeps_all():
    backing = InMemoryBackend()
    tier = TieredBackend(backing, max_entries=0)
    tier.put_many("d", [(1, _rows(1))])
    assert tier.tier_entries == 0
    assert tier.get_many("d", [1])[0] == _rows(1)  # served by the backing store
    assert len(tier) == 1


def test_write_through_makes_eviction_lossless():
    backing = InMemoryBackend()
    tier = TieredBackend(backing, max_entries=1)
    tier.put_many("d", [(1, _rows(1))])
    tier.put_many("d", [(2, _rows(2))])  # evicts 1 from the tier only
    assert tier.tier_stats.evictions == 1
    assert tier.get_many("d", [1])[0] == _rows(1)  # falls through, re-admitted
    assert tier.tier_stats.hits == 0 and tier.tier_stats.misses == 1
    assert tier.get_many("d", [1])[0] == _rows(1)  # now a tier hit
    assert tier.tier_stats.hits == 1


def test_frames_and_len_delegate_to_backing():
    backing = InMemoryBackend()
    tier = TieredBackend(backing, max_entries=1)
    tier.put_many("d", [(5, _rows(5)), (3, _rows(3)), (8, _rows(8))])
    assert tier.frames("d") == [3, 5, 8]  # full truth, not the tier's slice
    assert len(tier) == 3
    assert tier.tier_entries == 1


def test_memory_only_tier_eviction_is_data_loss():
    tier = TieredBackend(max_entries=1)
    tier.put_many("d", [(1, _rows(1))])
    tier.put_many("d", [(2, _rows(2))])
    assert tier.get_many("d", [1])[0] is None  # gone for good: caller re-detects
    assert tier.frames("d") == [2]
    assert len(tier) == 1


def test_get_many_splits_tier_hits_from_backing():
    backing = InMemoryBackend()
    tier = TieredBackend(backing, max_entries=2)
    tier.put_many("d", [(1, _rows(1)), (2, _rows(2)), (3, _rows(3))])
    # tier holds {2, 3}; 1 lives only in the backing store
    out = tier.get_many("d", [1, 2, 3, 99])
    assert out == [_rows(1), _rows(2), _rows(3), None]


def test_facade_over_tiered_backend_round_trips(tmp_path):
    from repro.detection.cache import SqliteBackend
    from repro.detection.detector import Detection

    backend = TieredBackend(
        SqliteBackend(tmp_path / "cache.sqlite"), max_entries=1
    )
    cache = DetectionCache(backend)
    det = Detection(7, Box(1.0, 2.0, 3.0, 4.0), "bus", 0.5, true_instance_id=1)
    cache.put_many("d", [(7, [det])])
    cache.put_many("d", [(8, [])])  # evicts 7 from the tier
    assert cache.get_many("d", [7])[0] == (det,)  # sqlite still has it
    assert cache.frames("d") == [7, 8]
    cache.close()
    reopened = DetectionCache(
        TieredBackend(SqliteBackend(tmp_path / "cache.sqlite"), max_entries=1)
    )
    assert reopened.get_many("d", [7])[0] == (det,)
    reopened.close()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
        max_size=40,
    ),
    max_entries=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)
def test_tiered_backing_always_agrees_with_bare_backend(ops, max_entries):
    """Property: for any op sequence and any budget, a TieredBackend over
    a backing store returns exactly what the bare backing store would —
    the tier is an invisible accelerator, never a source of truth."""
    bare = InMemoryBackend()
    tiered = TieredBackend(InMemoryBackend(), max_entries=max_entries)
    for is_put, frame in ops:
        if is_put:
            bare.put_many("d", [(frame, _rows(frame))])
            tiered.put_many("d", [(frame, _rows(frame))])
        else:
            assert tiered.get_many("d", [frame])[0] == bare.get_many("d", [frame])[0]
    frames = list(range(10))
    assert tiered.get_many("d", frames) == bare.get_many("d", frames)
    assert tiered.frames("d") == bare.frames("d")
    assert len(tiered) == len(bare)


# ------------------------------------------------------- shared cache
#
# Cross-service sharing is one ``DetectionCache`` passed to every tenant:
# the cache only ever forwards misses, so a frame any tenant paid for
# never reaches another tenant's workers.

def _worker_calls(coordinator):
    return sum(s["detector_calls"] for s in coordinator.worker_stats().values())


def test_shared_cache_spares_second_coordinator_every_worker():
    """A frame one coordinator paid for is a hit for the next — its
    workers are never even spawned."""
    shared = DetectionCache()
    frames = [5, 85, 160, 240, 330]
    first = ShardCoordinator(matrix_world(0), 2)
    a = CachingDetector(first, shared, "cam0").detect_many(frames)
    assert _worker_calls(first) == len(frames)
    first.close()

    second = ShardCoordinator(matrix_world(0), 2)
    b = CachingDetector(second, shared, "cam0").detect_many(frames)
    assert second.stats.frames_processed == 0
    assert second.worker_stats() == {}  # all hits: no worker ever spawned
    second.close()
    assert a == b  # cache hits decode byte-identical to worker results


def test_shared_cache_partial_overlap_dispatches_only_misses():
    shared = DetectionCache()
    first = ShardCoordinator(matrix_world(0), 2)
    CachingDetector(first, shared, "cam0").detect_many([5, 85])
    first.close()
    second = ShardCoordinator(matrix_world(0), 2)
    CachingDetector(second, shared, "cam0").detect_many([5, 85, 160])
    assert second.stats.frames_processed == 1
    assert _worker_calls(second) == 1  # only the miss reached a worker
    second.close()


def test_shared_cache_saves_second_tenant_detector_calls():
    """The multi-tenant story: two services over the same footage.  With
    one cache between them the second tenant's workers do nothing; with
    private caches it pays full price.  Answers are identical either
    way."""

    def tenant_worker_calls(cache):
        service = parity_service(matrix_world(1), 1, "sharded", 2, cache=cache)
        try:
            # no warm start: replaying the first tenant's frames into
            # the second's beliefs is the one way cache contents reach
            # decisions, and it is the submitter's choice
            sids = _submit(service, warm_start=False)
            service.run_until_idle(max_ticks=200)
            calls = _worker_calls(service.shard_backend("cam0"))
            assert calls == service.detector_calls
            return fingerprint(service, sids), calls
        finally:
            service.close()

    shared = DetectionCache()
    fp_a, calls_a = tenant_worker_calls(shared)
    fp_b, calls_b = tenant_worker_calls(shared)

    private_fp, private_calls = tenant_worker_calls(DetectionCache())

    assert fp_a == fp_b == private_fp  # sharing never changes answers
    assert calls_a == private_calls > 0  # the first tenant always pays
    # the second tenant's workload is identical (same seeds), so the
    # shared cache answers every frame it samples
    assert calls_b == 0
