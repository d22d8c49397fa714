"""``serve`` and ``server``: run a query service over a state directory.

Both commands boot through :func:`repro.serving.state.boot` and, when
they run for as long as there is work to wait for, on the one tick loop
in :meth:`repro.server.AsyncQueryServer.run_loop`:

* ``server`` puts the NDJSON listener in front of it;
* ``serve --follow`` runs it without a listener, beside :func:`_feed` —
  a coroutine that absorbs the state directory (journal appends, new
  submissions) between ticks and asks for a drain when there is nothing
  left to wait for.

SIGTERM and SIGINT reach both through ``request_drain``.  The batch
modes of ``serve`` (``--script``, ``--ticks N``, until-idle) run a
bounded number of ticks and exit; they are the only place this package
calls ``tick`` itself.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import signal

from ..experiments.persistence import to_jsonable
from ..server import AsyncQueryServer, ServerConfig
from ..serving import JournalError, QueryService
from ..serving import script as serving_script
from ..serving import state as serving_state
from . import flags

#: the flags ``serve`` and ``server`` share, one declaration for both
SERVICE_FLAGS = (
    "state_dir", "frames_per_tick", "batch_size", "detector_latency",
    "shards", "cache_budget", "scheduler", "scale", "seed", "json",
    "metrics_out", "trace_out",
)


def _boot(
    args: argparse.Namespace, datasets, config: ServerConfig | None
) -> tuple[serving_state.Boot, AsyncQueryServer | None]:
    """Boot the state directory; with a ``config``, also put the tick
    loop's owner around the service.  Raises ``StateError`` /
    ``JournalError`` with nothing left open."""
    boot = serving_state.boot(
        args.state_dir,
        datasets,
        scale=args.scale,
        seed=args.seed,
        shards=args.shards,
        cache_budget=args.cache_budget,
        scheduler=args.scheduler,
        frames_per_tick=args.frames_per_tick,
        batch_size=args.batch_size,
        detector_latency=args.detector_latency,
    )
    if config is None:
        return boot, None
    try:
        server = AsyncQueryServer(  # reads the tenant ledger
            boot.service,
            config,
            state_dir=args.state_dir,
            base_seed=boot.seed,
            journal_cursor=boot.cursor,
            dataset_factory=boot.factory,
        )
    except BaseException:
        boot.service.close()
        raise
    return boot, server


def _summary_payload(service: QueryService) -> dict:
    return {
        "ticks": service.ticks,
        "detector_calls": service.detector_calls,
        "cache": {
            "size": len(service.cache),
            "hits": service.cache.stats.hits,
            "misses": service.cache.stats.misses,
        },
        "sessions": [service.results(st.session_id) for st in service.statuses()],
    }


def _print_summary(service: QueryService, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_jsonable(_summary_payload(service)), indent=2))
        return
    print(serving_script.status_table(service))
    print(
        f"{service.detector_calls} detector calls total; cache: "
        f"{len(service.cache)} frames, {service.cache.stats.hits} hits"
    )


def _drain_on_signals(server: AsyncQueryServer) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_drain)
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # platforms/threads without signal support: drain op only


# ------------------------------------------------------------------- serve

def _script_datasets(text: str) -> list[str]:
    """Dataset names a serve script will touch (pre-scan of submit lines)."""
    names = []
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) >= 2 and tokens[0] == "submit" and tokens[1] not in names:
            names.append(tokens[1])
    return names


class _graceful_signals:
    """Route SIGTERM through the KeyboardInterrupt path for the scope.

    ``kill`` (what init systems and CI send) and Ctrl-C then take the
    same exit from a batch run: save state, summarize, exit 0 — not a
    traceback with the last tick's progress lost.  The previous handler
    is restored on the way out; off the main thread (embedded use)
    signals cannot be installed, so the scope is a no-op there.
    """

    def __enter__(self) -> "_graceful_signals":
        def raise_interrupt(signum, frame):  # pragma: no cover - signal path
            raise KeyboardInterrupt

        try:
            self._previous = signal.signal(signal.SIGTERM, raise_interrupt)
        except ValueError:
            self._previous = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)


def _run_batch(
    service: QueryService, script_text: str | None, ticks: int | None, quiet: bool
) -> int:
    """A bounded run: the script, ``ticks`` rounds, or until idle.
    SIGTERM/Ctrl-C stop it after the tick in flight, exit code 0."""
    with _graceful_signals():
        try:
            if script_text is not None:
                try:
                    log = serving_script.run_script(service, script_text)
                except serving_script.ScriptError as exc:
                    return flags.fail(exc)
                if not quiet:
                    for line in log:
                        print(line)
            elif ticks is not None:
                for _ in range(ticks):
                    service.tick()
            else:
                service.run_until_idle()
        except KeyboardInterrupt:
            pass  # drained: the caller persists and exits 0
    return 0


async def _feed(
    server: AsyncQueryServer,
    boot: serving_state.Boot,
    state_dir: str,
    rounds_cap: int | None,
    idle_poll: float,
) -> int:
    """The state-directory feeder of ``serve --follow``; returns the
    process exit code.

    One round absorbs the directory (new footage, new submissions),
    persists if the round delivered anything or the loop ticked since
    the last one (so observers see progress live), and requests a drain
    once every known session is terminal or after ``rounds_cap`` rounds
    — the bounded-exit lever for scripted use.  Rounds follow the loop:
    one after every tick while it is ticking (the two coroutines hand
    the event loop back and forth, so ``--ticks N`` stops after exactly
    N ticks of a busy loop), one per ``idle_poll`` while it idles.

    Corruption written by another process mid-run is one stderr line and
    exit 2; however the feeder ends, the loop is asked to drain, and the
    drain saves state.
    """
    service = server.service
    # ticks starts at the booted service's 0, not at service.ticks: the
    # loop has already ticked once by the time the first round runs
    cursor, ticks, rounds = boot.cursor, 0, 0
    try:
        while not server.draining:
            held = len(service.sessions)
            fed = serving_state.absorb(service, state_dir, boot.seed, cursor, boot.factory)
            ticked = service.ticks != ticks
            if ticked or fed != cursor or len(service.sessions) != held:
                serving_state.save_sessions(service, state_dir)
                service.cache.flush()
            cursor, ticks, rounds = fed, service.ticks, rounds + 1
            if (rounds_cap is not None and rounds >= rounds_cap) or (
                service.sessions and not service.live_sessions()
            ):
                break
            await asyncio.sleep(0 if ticked else idle_poll)
        return 0
    except (serving_state.StateError, JournalError) as exc:
        return flags.fail(exc)
    finally:
        server.request_drain()


async def _run_follow(server: AsyncQueryServer, feeder) -> int:
    _drain_on_signals(server)
    feeder = asyncio.ensure_future(feeder)
    await server.run_loop()  # ticks first; the feeder's rounds fall between ticks
    return await feeder


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.script is None and args.state_dir is None:
        return flags.fail("pass --script and/or --state-dir")
    if args.follow:
        if args.script is not None:
            return flags.fail("--follow cannot be combined with --script")
        if args.state_dir is None:
            return flags.fail("--follow needs --state-dir (the journal lives there)")
    if args.ticks is not None:
        if args.script is not None:
            return flags.fail(
                "--ticks cannot be combined with --script "
                "(use a `tick N` line in the script)"
            )
        if args.ticks <= 0:
            return flags.fail("--ticks must be positive")
    error = flags.execution_error(args)
    if error:
        return flags.fail(error)

    script_text = None
    if args.script is not None:
        script_text = pathlib.Path(args.script).read_text(encoding="utf-8")
    config = ServerConfig() if args.follow else None
    try:
        boot, server = _boot(args, _script_datasets(script_text or ""), config)
    except (serving_state.StateError, JournalError) as exc:
        return flags.fail(exc)
    service = boot.service
    # every exit path below — success, clean error, or an exception out
    # of the serving stack — must release worker pools, shard worker
    # processes, and the on-disk cache handle exactly once
    try:
        if args.follow:
            feeder = _feed(server, boot, args.state_dir, args.ticks, config.idle_poll)
            code = asyncio.run(_run_follow(server, feeder))
        elif not service.sessions and not service.dataset_names():
            return flags.fail("nothing to serve (no sessions, empty script)")
        else:
            code = _run_batch(service, script_text, args.ticks, quiet=args.json)
            if code == 0 and args.state_dir is not None:
                serving_state.save_sessions(service, args.state_dir)
        if code == 0:
            _print_summary(service, args.json)
        return code
    finally:
        service.close()  # shard workers, buffered cache writes


# ------------------------------------------------------------------ server

async def _run_server(server: AsyncQueryServer) -> None:
    """Start the listener, announce the bound address, and run until a
    drain completes."""
    _drain_on_signals(server)
    host, port = await server.start()
    # the one line scripts and tests parse to find an ephemeral port
    print(f"repro server listening on {host}:{port}", flush=True)
    await server.run_until_drained()


def _cmd_server(args: argparse.Namespace) -> int:
    error = flags.execution_error(args)
    if error:
        return flags.fail(error)
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            tenant_quota=args.tenant_quota,
            retry_after=args.retry_after,
        )
    except ValueError as exc:
        return flags.fail(exc)
    datasets = [name.strip() for name in (args.datasets or "").split(",") if name.strip()]
    try:
        boot, server = _boot(args, datasets, server_config)
    except (serving_state.StateError, JournalError) as exc:
        return flags.fail(exc)
    service = boot.service
    try:
        asyncio.run(_run_server(server))
        # the drain already persisted snapshots + tenant ledger; what's
        # left is the human-facing close-out
        if not args.json:
            print("server drained")
        _print_summary(service, args.json)
        return 0
    finally:
        service.close()


def register(sub) -> None:
    serve = sub.add_parser(
        "serve", help="run the query service over a state directory or a script"
    )
    serve.set_defaults(func=_cmd_serve)
    flags.add(serve, "script", "ticks")
    flags.add(
        serve, "follow",
        help="keep absorbing the state directory's ingested footage and new "
             "submissions on the server's tick loop; exits when every "
             "session is terminal",
    )
    flags.add(serve, *SERVICE_FLAGS)

    server = sub.add_parser(
        "server",
        help="network front door: asyncio NDJSON server over the query "
             "service (submit/status/results/ingest; SIGTERM drains)",
    )
    server.set_defaults(func=_cmd_server)
    flags.add(server, "host", help="interface to bind (default: loopback)")
    flags.add(
        server, "port",
        help="TCP port (default 0 = ephemeral; the bound port is printed)",
    )
    flags.add(server, "datasets", "max_queue", "tenant_quota", "retry_after")
    flags.add(server, *SERVICE_FLAGS)
