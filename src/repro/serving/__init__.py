"""The query serving subsystem: long-lived, resumable distinct-object search.

The paper's algorithms answer one query at a time; the serving layer turns
them into a *service*: many distinct-object queries over shared video
repositories, admitted at any time, pausable and resumable at any frame,
all sharing one detection cache so no frame is ever detected twice
(see :mod:`repro.detection.cache`).

* :mod:`repro.serving.session` — one query's resumable lifetime: an
  incremental :class:`~repro.core.sampler.ExSample` engine plus
  warm-start from cached frames and replay-based snapshot/restore;
* :mod:`repro.serving.scheduler` — allocating a global frames-per-tick
  detector budget across active sessions (round-robin, priority,
  Thompson-sum);
* :mod:`repro.serving.service` — the :class:`QueryService` facade with
  the full lifecycle (submit / pause / resume / cancel / status /
  results) and the tick loop;
* :mod:`repro.serving.state` — state-directory persistence for
  multi-process lifetimes, and the one way back in: ``boot`` (directory
  + flags -> running service, shared by ``serve`` and ``server``) over
  ``absorb`` (journal tail, then the snapshots not yet held — the
  start-up restore and the ``serve --follow`` poll alike);
* :mod:`repro.serving.ingest` — the live-ingestion journal: durable,
  deterministic footage appends behind ``python -m repro ingest``, the
  server's ``ingest`` op and ``serve --follow``;
* :mod:`repro.serving.script` — the scripted-session interpreter behind
  ``python -m repro serve --script``;
* :mod:`repro.serving.client` — the blocking NDJSON client for the
  network tier (:mod:`repro.server`), used by tests, the closed-loop
  load benchmark, and scripts.

Repositories grow while queries run: :meth:`QueryService.feed` appends a
clip and running sessions absorb it mid-query (their engines extend
without perturbing existing chunk statistics), ``follow`` sessions idle
rather than exhaust when footage runs dry, and snapshots carry a horizon
log so replay-restore stays exact across ingestion.
"""

from .client import ServerError, ServingClient
from .ingest import IngestEntry, JournalError, RepositoryFeeder
from .scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    SchedulerPolicy,
    ThompsonSumScheduler,
    proportional_allocation,
)
from .service import QueryService
from .session import (
    QuerySession,
    SessionSnapshot,
    SessionSpec,
    SessionState,
    SessionStatus,
    derive_session_seed,
    replay_cached_frames,
)

__all__ = [
    "ServerError",
    "ServingClient",
    "IngestEntry",
    "JournalError",
    "RepositoryFeeder",
    "PriorityScheduler",
    "RoundRobinScheduler",
    "SchedulerPolicy",
    "ThompsonSumScheduler",
    "proportional_allocation",
    "QueryService",
    "QuerySession",
    "SessionSnapshot",
    "SessionSpec",
    "SessionState",
    "SessionStatus",
    "derive_session_seed",
    "replay_cached_frames",
]
