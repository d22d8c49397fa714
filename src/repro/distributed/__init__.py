"""Shard-parallel query serving: scale detection across processes.

The serving stack's execution cost is dominated by detector invocations
(§I), and one process runs one detector loop.  This package distributes
that loop: each shard is a worker *process* (:mod:`repro.distributed.worker`)
— a stateless replica of the repository with its own detector — and a
:class:`~repro.distributed.coordinator.ShardCoordinator` splits every
planned frame batch evenly over them, fans the per-shard requests out,
and merges the results in input order.

The layer's contract is the one batching, caching and restarts keep:
**execution is invisible to answers.**  All sampling state — engines,
RNGs, per-chunk beliefs — stays in the coordinator process; workers
compute only detection content, a pure function of the frame.  The
coordinator only sends a batch and collects its replies, so the tick
does the same work in the same order under either backend, and a
sharded run returns byte-identical matches and per-chunk sample counts
to a single-process run, across schedulers, shard counts, worker kills,
snapshot/restore and mid-run ingestion — the parity matrix in
``tests/test_distributed_parity.py`` and the simulation harness's
``worker_kill`` fault both enforce it.

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
