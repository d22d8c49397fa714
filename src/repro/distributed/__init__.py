"""Shard-parallel query serving: scale detection across processes.

The serving stack's execution cost is dominated by detector invocations
(§I); PR 2 overlapped their per-call overhead with threads, but one
process still runs one detector loop.  This package distributes that
loop: each shard is a worker *process* (:mod:`repro.distributed.worker`)
— a stateless replica of the repository with its own detector — and a
:class:`~repro.distributed.coordinator.ShardCoordinator` splits every
planned frame batch evenly over them, fans the per-shard requests out,
and merges the results in input order.

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
from .worker import DetectorSpec, ShardWorker, WorkerSpec, worker_main

__all__ = [
    "ShardCoordinator",
    "WorkerHandle",
    "DetectorSpec",
    "ShardWorker",
    "WorkerSpec",
    "worker_main",
]
