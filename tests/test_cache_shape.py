"""One detection cache level, two places it can live.

The paper's cost model charges detector invocations and nothing else, so
the cache has one job — pay each ``(dataset, frame)`` once — and the
:class:`~repro.detection.cache.DetectionCache` in front of the detector
does it.  A second level grows back one constructor parameter at a time
(a worker that "may as well" remember its frames, a store "between"
services), so this test reads the shapes: what the packages export, what
the constructors accept, which series a sharded run emits, and that the
paper's metric equals the work the workers really did.  Storage is
batch-only: a per-key ``get``/``put`` twin beside ``get_many``/``put_many``
is a second read path, so the protocol's shape is pinned too.
"""

import dataclasses
import inspect
import pathlib
import re

import pytest
from contracts import clip_repository, stationary_instance

import repro
import repro.detection.cache as cache_module
import repro.distributed
from repro import telemetry
from repro.detection.cache import (
    CacheBackend,
    DetectionCache,
    InMemoryBackend,
    SqliteBackend,
    TieredBackend,
)
from repro.distributed.coordinator import ShardCoordinator
from repro.distributed.worker import WorkerSpec
from repro.serving.service import QueryService
from repro.telemetry import parse_series_key

SRC = pathlib.Path(repro.__file__).parent


def test_distributed_package_has_no_cache_of_its_own():
    assert not (SRC / "distributed" / "plane.py").exists()
    assert not [name for name in dir(repro.distributed) if "plane" in name.lower()]
    for path in sorted((SRC / "distributed").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "DetectionCache(" not in source, f"{path.name} builds a cache"
        assert "Backend" not in source, f"{path.name} names a cache backend"


def test_cache_module_exports_are_pinned():
    assert cache_module.__all__ == [
        "CacheStats",
        "TierStats",
        "CacheBackend",
        "InMemoryBackend",
        "SqliteBackend",
        "TieredBackend",
        "DetectionCache",
        "CachingDetector",
        "CategoryFilterDetector",
    ]


@pytest.mark.parametrize(
    "parameters, forbidden",
    [
        ([f.name for f in dataclasses.fields(WorkerSpec)],
         ("cache_budget", "cache_plane")),
        (list(inspect.signature(ShardCoordinator).parameters),
         ("cache_budget", "cache_plane")),
        (list(inspect.signature(QueryService).parameters), ("cache_plane",)),
        (list(inspect.signature(TieredBackend).parameters), ("max_bytes",)),
    ],
    ids=["WorkerSpec", "ShardCoordinator", "QueryService", "TieredBackend"],
)
def test_constructors_carry_no_second_cache_knob(parameters, forbidden):
    assert not set(parameters) & set(forbidden), parameters


@pytest.mark.parametrize(
    "storage",
    [CacheBackend, InMemoryBackend, SqliteBackend, TieredBackend, DetectionCache],
    ids=lambda cls: cls.__name__,
)
def test_storage_protocol_is_batch_only(storage):
    defined = set(vars(storage))
    assert {"get_many", "put_many", "frames", "clear", "flush", "close"} <= defined
    assert not defined & {"get", "put", "contains"}, sorted(defined)


def test_no_source_line_makes_a_per_key_cache_call():
    per_key = re.compile(
        r"\b(cache|_cache|backend|_backend|backing|_backing|tier)\.(get|put|contains)\("
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if per_key.search(line)
    ]
    assert not hits, hits


def test_removed_names_stay_out_of_the_source_tree():
    gone = re.compile(
        r"CachePlane|cache_plane|JsonlBackend|CacheError|max_bytes|step_frames"
        r"|record_batch|priority_weighted"
    )
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if gone.search(line)
    ]
    # the wire protocol's request-size limit is the one unrelated use
    assert all(hit.startswith("server/protocol.py:") for hit in hits), hits


# ------------------------------------------------------- a 2-shard run

def _repository():
    return clip_repository("cam0", (200, 200), [
        stationary_instance(i, begin, 25, category)
        for i, (begin, category) in enumerate(
            [(10, "bus"), (230, "bus"), (90, "car"), (310, "car")]
        )
    ])


def _sharded_service(cache_budget):
    service = QueryService(
        _repository(),
        frames_per_tick=16,
        chunk_frames=50,
        execution="sharded",
        shards=2,
        seed=0,
        cache_budget=cache_budget,
    )
    # two sessions over the same footage: with a small budget and no
    # backing store, a frame the first evicted is re-detected for the
    # second — the case a worker-side cache used to answer unseen
    service.submit("cam0", "bus", max_samples=120)
    service.submit("cam0", "car", max_samples=120)
    return service


@pytest.mark.parametrize("cache_budget", [None, 4], ids=["unbounded", "budget4"])
def test_detector_calls_equal_the_work_the_workers_did(cache_budget):
    """The paper's metric must not over-report: every frame the one
    cache forwards is exactly one detector invocation in one worker."""
    service = _sharded_service(cache_budget)
    try:
        service.run_until_idle(max_ticks=200)
        stats = service.shard_backend("cam0").worker_stats()
        assert set(stats) == {0, 1}
        for shard in stats.values():
            assert shard["served"] == shard["detector_calls"] > 0
        total = sum(shard["detector_calls"] for shard in stats.values())
        assert service.detector_calls == total
        if cache_budget is not None:
            # the budget really was under pressure: frames were paid twice
            sampled = {
                int(frame)
                for session in service.sessions.values()
                for frame in session.history.frame_indices
            }
            assert total > len(sampled)
    finally:
        service.close()


def test_sharded_run_emits_no_second_level_cache_series():
    telemetry.enable()
    service = _sharded_service(cache_budget=4)
    try:
        service.run_until_idle(max_ticks=200)
    finally:
        service.close()  # harvests the workers' registries
        snapshot = telemetry.get().snapshot()
        telemetry.disable()
    names = {
        parse_series_key(key)[0]
        for kind in ("counters", "gauges", "histograms")
        for key in snapshot[kind]
    }
    assert "repro_worker_detector_calls_total" in names  # workers did report
    stale = sorted(
        name for name in names
        if name.startswith(("repro_worker_cache_", "repro_cache_plane_"))
        or name == "repro_cache_tier_bytes"
    )
    assert not stale, stale
