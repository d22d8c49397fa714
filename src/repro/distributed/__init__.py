"""Shard-parallel query serving: scale detection across processes.

The serving stack's execution cost is dominated by detector invocations
(§I); PR 2 overlapped their per-call overhead with threads, but one
process still runs one detector loop.  This package distributes that
loop: a :class:`~repro.distributed.shard.ShardPlan` partitions a
repository's clips into contiguous shards, each shard is owned by a
worker *process* (:mod:`repro.distributed.worker`) holding its own
detector, and a
:class:`~repro.distributed.coordinator.ShardCoordinator` routes every
planned frame batch to its owning shard, fans the per-shard requests
out, and merges the results in input order.

The layer's contract is the same one PRs 2–4 established for batching,
caching, and restarts: **execution is invisible to answers.**  All
sampling state — engines, RNGs, per-chunk beliefs — stays in the
coordinator process; workers compute only detection content, a pure
function of the frame.  A sharded run therefore returns byte-identical
matches and per-chunk sample counts to a single-process run, across
schedulers, shard counts, worker kills, and snapshot/restore — the
parity matrix in ``tests/test_distributed_parity.py`` and the
simulation harness's ``worker_kill`` fault both enforce it.

Front doors: ``QueryService(execution="sharded", shards=N)``,
``QueryEngine(..., shards=N)``, and the CLI's ``--shards`` flag on
``query`` / ``serve`` / ``submit`` / ``simulate``.
"""

from .coordinator import ShardCoordinator, WorkerHandle
from .shard import ShardPlan, ShardSpec, shard_chunk_spans
from .worker import DetectorSpec, ShardWorker, WorkerSpec, worker_main

__all__ = [
    "ShardCoordinator",
    "WorkerHandle",
    "ShardPlan",
    "ShardSpec",
    "shard_chunk_spans",
    "DetectorSpec",
    "ShardWorker",
    "WorkerSpec",
    "worker_main",
]
