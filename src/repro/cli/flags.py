"""The one flag table: every ``--flag`` of every subcommand, declared once.

A command module never calls ``add_argument`` for an option; it names
the flags it takes by dest (``add(parser, "batch_size", "shards")``)
and this table supplies the literal, ``type``, ``default``, ``action``,
``choices`` and ``metavar`` — so a flag means the same thing on every
parser that carries it, and ``grep -- --cache-budget`` finds its one
declaration.  A command may override ``help`` (the wording is often
command-specific) or ``required``; never ``type`` or ``default``
(``tests/test_cli_shape.py`` holds that).

Validation that spans flags, and therefore cannot live in ``type=``,
is :func:`execution_error`.
"""

from __future__ import annotations

import argparse
import sys

from ..core.query import METHODS
from ..serving.scheduler import SCHEDULERS

FLAGS: dict[str, dict] = {
    # ---- what to search for, and when to stop
    "--limit": dict(
        type=int, default=None, help="stop after this many distinct results"
    ),
    "--recall": dict(
        type=float, default=None,
        help="stop at this ground-truth recall (evaluation mode)",
    ),
    "--max-samples": dict(type=int, default=None, help="frame budget cap"),
    "--method": dict(choices=METHODS, default="exsample", help="sampling method"),
    "--compare": dict(action="store_true", help="run every method on the same query"),
    "--priority": dict(type=float, default=1.0, help="scheduling weight"),
    "--session-seed": dict(
        type=int, default=None,
        help="per-session sampling seed (default: derived per submission)",
    ),
    "--no-warm-start": dict(
        action="store_true", help="skip replaying cached frames into the new session"
    ),
    "--follow": dict(
        action="store_true",
        help="continuous query: survive draining the known footage and "
             "resume whenever ingestion appends more",
    ),
    # ---- dataset build config (a state directory records both on first
    # use; its values win over the flags thereafter)
    "--scale": dict(
        type=float, default=0.05,
        help="dataset scale in (0, 1]; 1.0 is the paper-size corpus "
             "(fixed by a state directory once recorded there)",
    ),
    "--seed": dict(
        type=int, default=0,
        help="seeds dataset synthesis and sampling; same seed => identical "
             "run (fixed by a state directory once recorded there)",
    ),
    # ---- execution layer (see repro.detection.execution, repro.distributed)
    "--batch-size": dict(
        type=int, default=1,
        help="frames a session's engine chooses per sampling iteration "
             "(§III-F batched sampling); on serve/server, the default for "
             "sessions that set none",
    ),
    "--detector-latency": dict(
        type=float, default=0.0,
        help="simulated per-detector-call overhead in seconds (what --shards overlaps)",
    ),
    "--shards": dict(
        type=int, default=None,
        help="shard-parallel execution: run detection across N worker "
             "processes (stateless replicas; each batch is split "
             "evenly over them) — answer-identical to local execution "
             "(default: the state directory's recorded value, else 1 = local)",
    ),
    "--cache-budget": dict(
        type=int, default=None,
        help="bound the detection cache's memory tier to N cached frames "
             "(LRU over the on-disk store; default: the state "
             "directory's recorded value, else unbounded)",
    ),
    # ---- state directory and the serving loop
    "--state-dir": dict(default=None, help="serving state directory"),
    "--frames-per-tick": dict(
        type=int, default=16, help="global detector budget per scheduling round"
    ),
    "--scheduler": dict(
        choices=tuple(SCHEDULERS), default="round-robin",
        help="budget allocation policy across sessions",
    ),
    "--script": dict(
        default=None, help="scripted session transcript (see repro.serving.script)"
    ),
    "--ticks": dict(
        type=int, default=None,
        help="scheduling rounds to run (default: until idle); state-dir mode "
             "only — with --follow, a cap on total poll rounds",
    ),
    # ---- output
    "--json": dict(
        action="store_true",
        help="print machine-readable JSON instead of the human-readable lines",
    ),
    "--metrics-out": dict(
        default=None, metavar="FILE",
        help="enable telemetry and write the metrics snapshot (stable JSON) "
             "to FILE on exit",
    ),
    "--trace-out": dict(
        default=None, metavar="FILE",
        help="enable query tracing and write causal span events (Chrome "
             "trace-event JSONL; package with `repro trace`) to FILE on "
             "exit — never changes any session's decisions",
    ),
    # ---- ingest
    "--frames": dict(type=int, required=True, help="frames per appended clip"),
    "--clips": dict(type=int, default=1, help="number of clips to append"),
    "--category": dict(default=None, help="object category the new footage contains"),
    "--instances": dict(
        type=int, default=0, help="instances of --category per appended clip"
    ),
    "--mean-duration": dict(
        type=float, default=60.0,
        help="mean visible duration (frames) of the appended instances",
    ),
    "--skew": dict(
        type=float, default=None,
        help="skew fraction for instance placement inside each clip "
             "(default: uniform)",
    ),
    "--fps": dict(
        type=float, default=None,
        help="frame rate of the appended clips (default: the dataset's)",
    ),
    # ---- network tier
    "--host": dict(default="127.0.0.1", help="server host"),
    "--port": dict(type=int, default=0, help="server port"),
    "--datasets": dict(
        default=None, metavar="NAMES",
        help="comma-separated datasets to pre-register (profile names build "
             "the calibrated corpus, other names start empty); state-dir "
             "sessions and journal datasets register automatically",
    ),
    "--max-queue": dict(
        type=int, default=64,
        help="bounded admission queue depth; beyond it submits/ingests get "
             "a queue-full reject with retry_after",
    ),
    "--tenant-quota": dict(
        type=int, default=None,
        help="max concurrent non-terminal sessions per tenant "
             "(default: unlimited)",
    ),
    "--retry-after": dict(
        type=float, default=0.05,
        help="retry hint (seconds) attached to backpressure rejections",
    ),
    # ---- simulate
    "--scenarios": dict(type=int, default=1, help="number of scenarios to run"),
    "--profile": dict(
        default="quick", help="scenario scale: quick (CI smoke), default, stress"
    ),
    "--fail-fast": dict(
        action="store_true", help="stop the sweep at the first failing scenario"
    ),
    "--failures-file": dict(
        default=None,
        help="write failing seeds (one per line) to this file — what the "
             "nightly sweep uploads as an artifact",
    ),
    "--quiet": dict(action="store_true", help="suppress per-scenario lines"),
    # ---- stats / trace / top
    "--metrics": dict(
        required=True, metavar="FILE",
        help="metrics snapshot file written by --metrics-out",
    ),
    "--format": dict(
        choices=("table", "json", "prometheus"), default="table",
        help="output rendering (default: table)",
    ),
    "--validate": dict(
        action="store_true",
        help="check the snapshot against the bundled JSON schema first "
             "(exit 1 on violations)",
    ),
    "--watch": dict(
        type=float, default=None, metavar="SECONDS",
        help="re-read and re-render the snapshot file on this cadence "
             "until Ctrl-C (writers rewrite it atomically, so reads "
             "never tear)",
    ),
    "--events": dict(
        required=True, metavar="FILE", help="span-event JSONL written by --trace-out"
    ),
    "--out": dict(
        default=None, metavar="FILE",
        help="write the packaged Chrome trace document here",
    ),
    "--interval": dict(
        type=float, default=1.0, help="seconds between refreshes (default: 1)"
    ),
    "--iterations": dict(
        type=int, default=None, metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    ),
}


def add(parser, *dests: str, **overrides) -> None:
    """Declare table flags on ``parser`` (or an argument group) by dest:
    ``"batch_size"`` is ``--batch-size``.  ``overrides`` — ``help`` or
    ``required`` — apply to each flag named in the call."""
    for dest in dests:
        literal = "--" + dest.replace("_", "-")
        parser.add_argument(literal, **{**FLAGS[literal], **overrides})


def fail(message) -> int:
    """One ``error: ...`` line on stderr; returns exit code 2 — how every
    command refuses unusable arguments or on-disk state."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def execution_error(args: argparse.Namespace) -> str | None:
    """Shared validation of the execution-layer flags; None when valid.

    Every flag is checked here, before any dataset is built or state
    directory touched, so a bad value is one clean line on stderr and
    exit 2 — never a mid-run traceback.
    """
    if getattr(args, "frames_per_tick", 1) <= 0:
        return "--frames-per-tick must be positive"
    if args.batch_size < 1:
        return "--batch-size must be at least 1"
    if getattr(args, "detector_latency", 0.0) < 0.0:
        return "--detector-latency must be non-negative"
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        return "--shards must be at least 1"
    budget = getattr(args, "cache_budget", None)
    if budget is not None and budget < 0:
        return "--cache-budget must be non-negative"
    return None
