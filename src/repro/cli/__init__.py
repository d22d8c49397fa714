"""User-facing command line: run queries against the dataset profiles.

This is the "downstream user" surface, distinct from the experiment CLI
(``python -m repro.experiments``) which regenerates the paper:

    python -m repro datasets
    python -m repro query dashcam bicycle --limit 20
    python -m repro query amsterdam boat --recall 0.5 --compare
    python -m repro query bdd1k motor --limit 25 --method random --scale 0.1
    python -m repro query dashcam bicycle --limit 20 --json

The package is one module per command family — ``query``, ``statedir``
(``submit``/``ingest``), ``serve`` (``serve``/``server``), ``simulate``,
``observe`` (``stats``/``trace``/``top``) — over the one flag table in
``flags``.  Each family's ``register(subparsers)`` adds its parsers and
binds each handler with ``set_defaults(func=...)``.

The serving subsystem (:mod:`repro.serving`) is driven through two
subcommands.  ``submit`` appends a query to a state directory without
doing any work; ``serve`` loads the directory (sessions + shared
detection cache), runs the budget scheduler, and persists everything
back — or executes a scripted session transcript:

    python -m repro submit dashcam bicycle --limit 10 --state-dir ./state
    python -m repro submit dashcam bus --limit 10 --state-dir ./state
    python -m repro serve --state-dir ./state
    python -m repro serve --script session.txt --scale 0.05 --json

Execution-layer flags (see :mod:`repro.detection.execution`): both
``query`` and ``serve`` take ``--batch-size`` (frames the sampling
policy chooses per iteration, issued to the detector as one batched
call) and ``--detector-latency`` (simulated per-call detector overhead,
the cost ``--shards`` overlaps).  Latency never changes a query's
answer; batch size changes only which frames the policy picks,
deterministically per seed:

    python -m repro query dashcam bicycle --limit 20 \
        --batch-size 8 --detector-latency 0.002
    python -m repro serve --state-dir ./state --batch-size 8

Shard-parallel execution (see :mod:`repro.distributed`): ``--shards N``
on ``query``/``serve``/``submit`` moves detection into N worker
processes — stateless replicas, each with its own detector, over which
every batch is split evenly; the coordinator keeps all sampling state,
so answers are byte-identical to local execution.  ``submit --shards``
records the count in the state directory so later ``serve`` runs shard
by default:

    python -m repro query dashcam bicycle --limit 20 \
        --batch-size 8 --shards 4 --detector-latency 0.002
    python -m repro serve --state-dir ./state --shards 4

Live ingestion (see :mod:`repro.serving.ingest`): ``ingest`` appends
synthetic footage to a state directory's journal — to a paper profile
dataset or to a fresh *live* dataset that starts empty — and ``serve
--follow`` keeps absorbing that journal (and the sessions directory) on
the same tick loop ``server`` runs, so running queries pick up clips,
and even whole submissions, that arrive while it is up:

    python -m repro submit cam0 bus --limit 10 --follow --state-dir ./state
    python -m repro serve --state-dir ./state --follow &
    python -m repro ingest cam0 --state-dir ./state \
        --frames 2000 --category bus --instances 5

Deterministic simulation (see :mod:`repro.simulation`): ``simulate``
generates seed-driven randomized end-to-end scenarios — session mixes,
mid-query ingestion, crash-restarts, cache drops, detector errors, torn
journal writes — runs each against a real service, and checks every run
against a brute-force oracle plus the system invariants.  A failure
prints the scenario seed; re-running that seed reproduces the run
bit-for-bit:

    python -m repro simulate --scenarios 200 --profile quick
    python -m repro simulate --seed 1234 --scenarios 1 --json
"""

from __future__ import annotations

import argparse

from .. import telemetry
from . import observe, query, serve, simulate, statedir

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distinct-object search over the calibrated dataset profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (query, statedir, serve, simulate, observe):
        family.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_out is None and trace_out is None:
        return args.func(args)
    # --metrics-out / --trace-out: run the whole command under a live
    # pipeline and dump on every exit path (including errors — a failed
    # run's partial metrics/spans are exactly what an operator wants)
    telemetry.enable(trace=trace_out is not None)
    try:
        return args.func(args)
    finally:
        if trace_out is not None:
            observe.write_trace_events(trace_out)
        if metrics_out is not None:
            observe.write_metrics_snapshot(metrics_out)
        telemetry.disable()
