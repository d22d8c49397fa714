"""The asyncio front door: a TCP server around one :class:`QueryService`.

Everything the serving stack promises — per-session decision streams
that depend only on the session's own seed and step count, replay-based
snapshots, a shared detection cache — survives putting a network in
front of it because the async layer owns **only I/O**:

* connection handlers parse newline-delimited JSON requests
  (:mod:`repro.server.protocol`) and answer read-only ops (``status``,
  ``results``, ``stats``, ``ping``) directly — safe because asyncio is
  cooperative and :meth:`QueryService.tick` never yields mid-call, so a
  read can never observe a half-applied tick;
* mutating ops (``submit``, ``ingest``) are enqueued on a **bounded
  admission queue** and applied by the tick-loop task, in arrival
  order, between ticks — the service itself stays single-threaded and
  its tick loop byte-deterministic;
* when the queue is full, a tenant is at its concurrent-session quota,
  or the server is draining, admission answers an explicit 429-style
  reject with a ``retry_after`` hint instead of queueing unboundedly —
  backpressure is part of the protocol, not an accident of TCP buffers.

Graceful drain (SIGTERM/SIGINT, or the ``drain`` op): stop admitting,
apply the commands already accepted, finish the tick in flight, persist
every session snapshot (and the tenant ledger) to the state directory,
and exit cleanly.  A restarted server restores those snapshots through
the existing replay machinery, so every session resumes bit-identically
— the network tier adds no new state the replay contract does not
already cover.

Telemetry (``repro_server_*``; observational only, like every layer):
request/accept/reject counters, inflight-connection and queue-depth
gauges, and a submit-to-first-result histogram — the metric the
closed-loop load benchmark gates at p99.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

from .. import telemetry
from ..telemetry.history import SnapshotHistory
from ..telemetry.registry import parse_series_key
from ..serving import state as serving_state
from ..serving import ingest as serving_ingest
from ..serving.ingest import IngestEntry
from ..serving.service import QueryService
from ..serving.state import TENANTS_FILENAME, restore_state
from ..video.repository import VideoRepository, empty_repository
from .protocol import (
    MAX_REQUEST_BYTES,
    OPS,
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_request,
)

# restore_state and TENANTS_FILENAME live with the other state-dir code in
# repro.serving.state; they stay importable from here
__all__ = ["ServerConfig", "AsyncQueryServer", "restore_state", "TENANTS_FILENAME"]

_REJECT_REASONS = ("queue-full", "quota-exceeded", "draining")


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the network tier (the service has its own, separately).

    ``max_queue`` bounds the admission queue — submits and ingests
    waiting for the tick loop; past it, requests are rejected with
    ``queue-full`` + ``retry_after``.  ``tenant_quota`` caps one
    tenant's concurrent non-terminal sessions (queued submits count);
    ``None`` disables quotas.  ``idle_poll`` is how long the tick loop
    sleeps when there is neither queued work nor a schedulable session
    — purely a liveness knob, it cannot affect any session's decisions.

    ``history_capacity`` / ``history_interval`` size the telemetry
    time-series ring behind the ``watch`` op: at most that many samples,
    recorded between ticks no more often than the interval.  Recording
    only reads snapshots — another observational surface, never an
    input to any session's decisions.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    max_queue: int = 64
    tenant_quota: int | None = None
    max_request_bytes: int = MAX_REQUEST_BYTES
    retry_after: float = 0.05
    idle_poll: float = 0.02
    history_capacity: int = 120
    history_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise ValueError("tenant_quota must be at least 1")
        if self.max_request_bytes < 1024:
            raise ValueError("max_request_bytes must be at least 1024")
        if self.retry_after <= 0 or self.idle_poll <= 0:
            raise ValueError("retry_after and idle_poll must be positive")
        if self.history_capacity < 2:
            raise ValueError("history_capacity must be at least 2")
        if self.history_interval < 0:
            raise ValueError("history_interval must be non-negative")


class AsyncQueryServer:
    """One listening socket, one admission queue, one tick loop.

    Parameters
    ----------
    service:
        The :class:`QueryService` to front.  After :meth:`start`, the
        loop task owns every mutation; reads stay safe because nothing
        here ever awaits while the service is mid-mutation.
    config:
        Network-tier knobs; see :class:`ServerConfig`.
    state_dir:
        When given, drain persists session snapshots + the tenant
        ledger there (and ``ingest`` ops are journaled there first, so
        a restart re-materializes identical footage).  ``None`` runs a
        purely in-memory server — fine for tests, no restart story.
    base_seed / journal_cursor / dataset_factory:
        Ingest determinism: the seed journal replay mixes into clip
        content, the index the next journal entry will get, and how to
        build a repository for a dataset name the service has not seen.
    """

    def __init__(
        self,
        service: QueryService,
        config: ServerConfig | None = None,
        state_dir=None,
        base_seed: int = 0,
        journal_cursor: int = 0,
        dataset_factory: Callable[[str], VideoRepository] | None = None,
    ):
        self._service = service
        self._config = config if config is not None else ServerConfig()
        self._state_dir = state_dir
        self._base_seed = base_seed
        self._journal_cursor = journal_cursor
        self._dataset_factory = (
            dataset_factory if dataset_factory is not None else empty_repository
        )
        # admission queue: (kind, payload, future) applied FIFO by the
        # tick loop.  A deque + wake event (not asyncio.Queue) because
        # rejection must be synchronous in the handler — backpressure
        # that parks the client in put() would just move the unbounded
        # buffer into the event loop
        self._pending: deque[tuple[str, dict, asyncio.Future]] = deque()
        self._wake = asyncio.Event()
        self._draining = False
        self._drained = asyncio.Event()
        self._tenants: dict[str, str] = {}  # session_id -> tenant label
        self._queued_by_tenant: dict[str, int] = {}
        # sessions admitted but yet to yield their first result:
        # session_id -> perf_counter at admission (drives the
        # submit-to-first-result histogram)
        self._awaiting_first: dict[str, float] = {}
        self._counts = {
            "accepted": 0, "rejected": 0, "requests": 0,
            "protocol_errors": 0, "connections": 0,
        }
        self._server: asyncio.AbstractServer | None = None
        self._loop_task: asyncio.Task | None = None
        self._address: tuple[str, int] | None = None
        self._tel_memo: tuple | None = None
        self._history = SnapshotHistory(capacity=self._config.history_capacity)
        self._history_last = float("-inf")
        if state_dir is not None:
            self._tenants = serving_state.load_tenants(state_dir)

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read after :meth:`start` (the
        config's port 0 means "let the kernel pick")."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def service(self) -> QueryService:
        return self._service

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> tuple[str, int]:
        """Bind the listener and spawn the tick-loop task."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_conn,
            self._config.host,
            self._config.port,
            # the stream limit is the oversized-request guard: readline
            # raises before buffering more than one legal line's bytes
            limit=self._config.max_request_bytes + 2,
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._loop_task = asyncio.ensure_future(self.run_loop())
        return self._address

    def request_drain(self) -> None:
        """Begin a graceful shutdown (idempotent; signal-handler safe
        when called from the server's own event loop thread): stop
        admitting, finish what was accepted, persist, stop."""
        self._draining = True
        self._wake.set()

    async def wait_drained(self) -> None:
        """Block until the drain (requested or future) has fully landed:
        queue applied, final tick done, snapshots persisted."""
        await self._drained.wait()

    async def run_until_drained(self) -> None:
        """The serve-forever entry point ``repro server`` awaits: runs
        until a drain request completes, then tears the listener down.
        An exception that killed the tick loop (or the final persist)
        re-raises here, after the listener is down."""
        if self._server is None:
            await self.start()
        await self.wait_drained()
        self._server.close()
        await self._server.wait_closed()
        await self._loop_task

    # ------------------------------------------------------------- tick loop

    async def run_loop(self) -> None:
        """The one serving loop: apply admitted commands, tick while
        there is work, idle-poll otherwise; on drain, settle everything
        and persist.  :meth:`start` spawns it behind the listener; a
        process with no listener (``serve --follow``, fed from the state
        directory instead of a socket) awaits it directly.  Whatever
        killed the loop (or the final persist) re-raises from here, once
        waiters are settled and the drain is marked done."""
        fatal: BaseException | None = None
        try:
            while True:
                self._apply_commands()
                if self._draining and not self._pending:
                    break
                if self._service.schedulable_sessions():
                    self._service.tick()
                    self._note_first_results()
                    self._record_history()
                    # yield so connection handlers run between ticks —
                    # the whole fairness story of the cooperative design
                    await asyncio.sleep(0)
                else:
                    self._wake.clear()
                    # re-check after clearing: a handler may have queued
                    # between the drain check and here
                    if self._pending or self._draining:
                        continue
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), self._config.idle_poll
                        )
                    except asyncio.TimeoutError:
                        pass
        except BaseException as exc:  # noqa: BLE001 — a dead tick loop
            # must still persist, settle waiters, and mark itself drained
            # before the exception goes anywhere
            fatal = exc
        finally:
            try:
                self._persist()
            except BaseException as exc:  # noqa: BLE001
                if fatal is None:
                    fatal = exc
            # commands admitted but never applied: fail them explicitly
            # rather than leaving their clients awaiting forever
            while self._pending:
                _, _, future = self._pending.popleft()
                if not future.done():
                    future.set_result(
                        error_response("internal", "server loop terminated")
                    )
            self._drained.set()
        if fatal is not None:
            raise fatal

    def _apply_commands(self) -> None:
        while self._pending:
            kind, payload, future = self._pending.popleft()
            tenant = _tenant_of(payload)
            self._queued_by_tenant[tenant] = self._queued_by_tenant.get(tenant, 1) - 1
            try:
                if kind == "submit":
                    response = self._apply_submit(payload)
                else:
                    response = self._apply_ingest(payload)
            except ProtocolError as exc:
                response = error_response(exc.code, str(exc))
            except Exception as exc:  # noqa: BLE001 — one bad command
                # must never kill the loop that serves everyone else
                response = error_response(
                    "internal", f"{type(exc).__name__}: {exc}"
                )
            if not future.done():
                future.set_result(response)
        inst = self._instruments()
        if inst is not None:
            inst["queue_depth"].set(len(self._pending))

    def _apply_submit(self, payload: dict) -> dict:
        dataset = _str_field(payload, "dataset")
        category = _str_field(payload, "category")
        tenant = _tenant_of(payload)
        kwargs = {
            "limit": _int_field(payload, "limit"),
            "max_samples": _int_field(payload, "max_samples"),
            "priority": _num_field(payload, "priority", default=1.0),
            "seed": _int_field(payload, "seed", minimum=0),
            "batch_size": _int_field(payload, "batch_size"),
            "follow": bool(payload.get("follow", False)),
            # warm-start replays whatever the cache holds *at admission*,
            # which depends on arrival timing; parity workloads submit
            # warm_start=false so decisions are pure functions of the seed
            "warm_start": bool(payload.get("warm_start", True)),
        }
        if kwargs["batch_size"] is None:
            del kwargs["batch_size"]
        if kwargs["follow"]:
            # a follow query may precede its footage: materialize the
            # dataset (an empty live repository by default) the same
            # way an ingest for it would — the CLI's live-dataset
            # semantics, reachable over the wire
            serving_ingest.ensure_dataset(
                self._service, dataset, self._dataset_factory
            )
        try:
            session_id = self._service.submit(dataset, category, **kwargs)
        except KeyError as exc:
            raise ProtocolError("unknown-dataset", str(exc)) from exc
        except ValueError as exc:
            raise ProtocolError("invalid", str(exc)) from exc
        self._tenants[session_id] = tenant
        self._awaiting_first[session_id] = time.perf_counter()
        self._counts["accepted"] += 1
        inst = self._instruments()
        if inst is not None:
            inst["accepted"].inc()
        return ok_response(session_id=session_id, tenant=tenant)

    def _apply_ingest(self, payload: dict) -> dict:
        try:
            entry = IngestEntry(
                dataset=_str_field(payload, "dataset"),
                frames=_int_field(payload, "frames", required=True),
                clips=_int_field(payload, "clips", default=1),
                category=(
                    None if payload.get("category") is None
                    else _str_field(payload, "category")
                ),
                instances=_int_field(payload, "instances", default=0, minimum=0),
                mean_duration=_num_field(payload, "mean_duration", default=60.0),
                fps=_num_field(payload, "fps"),
            )
        except ValueError as exc:
            raise ProtocolError("invalid", str(exc)) from exc
        # durability first: the journal is what a restarted server
        # replays, so footage must hit it before any session sees a
        # frame of it — otherwise restored sessions would replay against
        # a world the dead server invented
        if self._state_dir is not None:
            serving_ingest.append_entry(self._state_dir, entry)
            self._journal_cursor = serving_ingest.apply_journal(
                self._service,
                self._state_dir,
                self._base_seed,
                self._journal_cursor,
                on_missing_dataset=self._dataset_factory,
            )
        else:
            serving_ingest.ensure_dataset(
                self._service, entry.dataset, self._dataset_factory
            )
            serving_ingest.apply_entry(
                self._service, entry, self._journal_cursor, self._base_seed
            )
            self._journal_cursor += 1
        return ok_response(
            dataset=entry.dataset,
            frames=entry.frames * entry.clips,
            entry_index=self._journal_cursor - 1,
        )

    def _note_first_results(self) -> None:
        """Settle the submit-to-first-result clock for sessions that just
        produced (or can no longer produce) their first result."""
        if not self._awaiting_first:
            return
        sessions = self._service.sessions
        inst = self._instruments()
        now = time.perf_counter()
        for session_id in list(self._awaiting_first):
            session = sessions.get(session_id)
            if session is None:
                del self._awaiting_first[session_id]
                continue
            if session.results_found > 0:
                started = self._awaiting_first.pop(session_id)
                if inst is not None:
                    inst["first_result"].observe(now - started)
            elif session.state.terminal:
                # exhausted/cancelled without a result: no observation —
                # the histogram measures time-to-result, not time-to-fate
                del self._awaiting_first[session_id]

    def _persist(self) -> None:
        if self._state_dir is None:
            return
        serving_state.save_sessions(self._service, self._state_dir)
        serving_state.save_tenants(self._state_dir, self._tenants)
        self._service.cache.flush()

    # ------------------------------------------------------------ admission

    def _active_tenant_sessions(self, tenant: str) -> int:
        # over the service's non-terminal sessions, not over the tenant
        # ledger: that one holds every session ever admitted
        live = sum(
            1
            for session in self._service.live_sessions()
            if self._tenants.get(session.session_id) == tenant
        )
        return live + self._queued_by_tenant.get(tenant, 0)

    async def _admit(self, kind: str, payload: dict) -> dict:
        inst = self._instruments()
        if self._draining:
            return self._reject("draining", "server is draining", inst)
        if len(self._pending) >= self._config.max_queue:
            return self._reject(
                "queue-full",
                f"admission queue is full ({self._config.max_queue} waiting)",
                inst,
            )
        tenant = _tenant_of(payload)
        if (
            kind == "submit"
            and self._config.tenant_quota is not None
            and self._active_tenant_sessions(tenant) >= self._config.tenant_quota
        ):
            return self._reject(
                "quota-exceeded",
                f"tenant {tenant!r} is at its quota of "
                f"{self._config.tenant_quota} concurrent sessions",
                inst,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append((kind, payload, future))
        self._queued_by_tenant[tenant] = self._queued_by_tenant.get(tenant, 0) + 1
        if inst is not None:
            inst["queue_depth"].set(len(self._pending))
        self._wake.set()
        return await future

    def _reject(self, reason: str, message: str, inst) -> dict:
        self._counts["rejected"] += 1
        if inst is not None:
            inst["rejected"][reason].inc()
        return error_response(reason, message, retry_after=self._config.retry_after)

    # ----------------------------------------------------------- connections

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._counts["connections"] += 1
        inst = self._instruments()
        if inst is not None:
            inst["connections"].inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the stream limit tripped: an over-long line whose
                    # end we can no longer find.  Answer, then close —
                    # framing on this connection is unrecoverable, the
                    # server itself is unharmed.
                    self._count_protocol_error("oversized", inst)
                    writer.write(encode(error_response(
                        "oversized",
                        f"request line exceeds "
                        f"{self._config.max_request_bytes} bytes",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break  # clean EOF between requests
                if not line.endswith(b"\n"):
                    break  # peer died mid-request; nothing to answer
                try:
                    payload = parse_request(line, self._config.max_request_bytes)
                except ProtocolError as exc:
                    self._count_protocol_error(exc.code, inst)
                    response: Mapping = error_response(exc.code, str(exc))
                else:
                    response = await self._dispatch(payload)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # peer vanished; its sessions live on server-side
        finally:
            if inst is not None:
                inst["connections"].dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass  # teardown may cancel the close wait; socket is closed

    async def _dispatch(self, payload: dict) -> dict:
        op = str(payload["op"])
        self._counts["requests"] += 1
        inst = self._instruments()
        if inst is not None:
            # op is a label: clamp unknown names to one bucket so a
            # misbehaving client cannot mint unbounded series
            inst["requests"][op if op in OPS else "unknown"].inc()
        try:
            if op == "ping":
                return ok_response(pong=True)
            if op == "status":
                return self._op_status(payload)
            if op == "results":
                return self._op_results(payload)
            if op == "stats":
                return self._op_stats()
            if op == "watch":
                return self._op_watch()
            if op == "drain":
                self.request_drain()
                return ok_response(draining=True)
            if op in ("submit", "ingest"):
                return await self._admit(op, payload)
        except ProtocolError as exc:
            self._count_protocol_error(exc.code, inst)
            return error_response(exc.code, str(exc))
        self._count_protocol_error("unknown-op", inst)
        return error_response(
            "unknown-op", f"unknown op {op!r}; known: {', '.join(OPS)}"
        )

    def _op_status(self, payload: dict) -> dict:
        session_id = payload.get("session_id")
        if session_id is None:
            return ok_response(
                sessions=[s.to_dict() for s in self._service.statuses()]
            )
        try:
            status = self._service.status(str(session_id))
        except KeyError as exc:
            raise ProtocolError("unknown-session", str(exc)) from exc
        return ok_response(session=status.to_dict())

    def _op_results(self, payload: dict) -> dict:
        session_id = payload.get("session_id")
        if not isinstance(session_id, str):
            raise ProtocolError("bad-request", "results needs a 'session_id'")
        try:
            results = self._service.results(session_id)
        except KeyError as exc:
            raise ProtocolError("unknown-session", str(exc)) from exc
        return ok_response(results=results)

    def _op_stats(self) -> dict:
        sessions = self._service.sessions
        stats = {
            "requests": self._counts["requests"],
            "accepted": self._counts["accepted"],
            "rejected": self._counts["rejected"],
            "protocol_errors": self._counts["protocol_errors"],
            "connections_total": self._counts["connections"],
            "queue_depth": len(self._pending),
            "sessions": len(sessions),
            "sessions_active": len(self._service.live_sessions()),
            "ticks": self._service.ticks,
            "detector_calls": self._service.detector_calls,
            "draining": self._draining,
        }
        # with telemetry on, the response carries the *fleet* snapshot —
        # worker processes harvested just now, so one stats op shows
        # every layer, including per-shard detector spend
        snapshot = self._fleet_snapshot()
        if snapshot is not None:
            stats["metrics"] = snapshot
        return ok_response(stats=stats)

    def _op_watch(self) -> dict:
        """The live dashboard feed behind ``repro top``: current server
        counters, per-tenant session states, per-shard worker summaries,
        and windowed deltas/rates from the between-ticks history ring.
        Read-only over snapshots, like every observability surface."""
        sessions = self._service.sessions
        tenants: dict[str, dict[str, int]] = {}
        for session_id, session in sessions.items():
            tenant = self._tenants.get(session_id, "default")
            states = tenants.setdefault(tenant, {})
            state = session.state.value
            states[state] = states.get(state, 0) + 1
        snapshot = self._fleet_snapshot()
        return ok_response(
            watch={
                "server": {
                    "queue_depth": len(self._pending),
                    "draining": self._draining,
                    "requests": self._counts["requests"],
                    "accepted": self._counts["accepted"],
                    "rejected": self._counts["rejected"],
                    "protocol_errors": self._counts["protocol_errors"],
                    "sessions": len(sessions),
                    "sessions_active": len(self._service.live_sessions()),
                    "ticks": self._service.ticks,
                    "detector_calls": self._service.detector_calls,
                },
                "tenants": {t: tenants[t] for t in sorted(tenants)},
                "shards": _shard_summary(snapshot) if snapshot else {},
                "history": self._history.summary(),
                "slow_queries": (
                    len(snapshot.get("slow_queries", ())) if snapshot else 0
                ),
                "telemetry": snapshot is not None,
            }
        )

    def _fleet_snapshot(self) -> dict | None:
        """Harvest worker registries (sharded execution only), then one
        merged snapshot of every layer; ``None`` with telemetry off."""
        tel = telemetry.get()
        if not tel.enabled:
            return None
        self._service.collect_worker_telemetry()
        return tel.snapshot()

    def _record_history(self) -> None:
        """One history sample between ticks, throttled by the config's
        interval so a hot tick loop cannot turn sampling into overhead."""
        tel = telemetry.get()
        if not tel.enabled:
            return
        now = time.monotonic()
        if now - self._history_last < self._config.history_interval:
            return
        self._history_last = now
        self._service.collect_worker_telemetry()
        self._history.record(tel.snapshot(), stamp=now)

    def _count_protocol_error(self, code: str, inst) -> None:
        self._counts["protocol_errors"] += 1
        if inst is not None:
            inst["protocol_errors"].inc()

    # ------------------------------------------------------------- telemetry

    def _instruments(self) -> dict | None:
        """Memoized ``repro_server_*`` handles, rebuilt per pipeline
        (identity-checked: a fresh ``telemetry.enable()`` rebuilds them)."""
        tel = telemetry.get()
        if not tel.enabled:
            return None
        memo = self._tel_memo
        if memo is None or memo[0] is not tel:
            handles = {
                "requests": {
                    op: tel.counter("repro_server_requests_total", {"op": op})
                    for op in (*OPS, "unknown")
                },
                "accepted": tel.counter("repro_server_accepted_total"),
                "rejected": {
                    reason: tel.counter(
                        "repro_server_rejected_total", {"reason": reason}
                    )
                    for reason in _REJECT_REASONS
                },
                "protocol_errors": tel.counter(
                    "repro_server_protocol_errors_total"
                ),
                "connections": tel.gauge("repro_server_inflight_connections"),
                "queue_depth": tel.gauge("repro_server_queue_depth_requests"),
                "first_result": tel.histogram(
                    "repro_server_submit_to_first_result_seconds"
                ),
            }
            self._tel_memo = memo = (tel, handles)
        return memo[1]


# ------------------------------------------------------------ field helpers

def _shard_summary(snapshot: dict) -> dict[str, dict]:
    """Fold a merged fleet snapshot into per-shard scalar summaries.

    Worker series carry a ``shard_id`` label (stamped at ingest by the
    coordinator); everything else is coordinator-local and skipped.
    """
    shards: dict[str, dict[str, float]] = {}
    for section in ("counters", "gauges"):
        for key, value in snapshot.get(section, {}).items():
            try:
                name, labels = parse_series_key(key)
            except ValueError:
                continue
            shard = labels.get("shard_id")
            if shard is None:
                continue
            bucket = shards.setdefault(shard, {})
            bucket[name] = bucket.get(name, 0) + value
    return {shard: shards[shard] for shard in sorted(shards)}


def _tenant_of(payload: dict) -> str:
    tenant = payload.get("tenant", "default")
    return tenant if isinstance(tenant, str) and tenant else "default"


def _str_field(payload: dict, name: str) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            "bad-request", f"{payload.get('op', '?')} needs a string {name!r}"
        )
    return value


def _int_field(
    payload: dict,
    name: str,
    default: int | None = None,
    minimum: int = 1,
    required: bool = False,
) -> int | None:
    value = payload.get(name)
    if value is None:
        if required:
            raise ProtocolError("bad-request", f"missing required field {name!r}")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad-request", f"{name!r} must be an integer")
    if value < minimum:
        raise ProtocolError("bad-request", f"{name!r} must be >= {minimum}")
    return value


def _num_field(
    payload: dict, name: str, default: float | None = None
) -> float | None:
    value = payload.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError("bad-request", f"{name!r} must be a number")
    return float(value)
