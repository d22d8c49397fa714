"""``submit`` and ``ingest``: write to a state directory, do no work.

``submit`` queues a query as a pending snapshot, ``ingest`` appends a
footage recipe to the journal; whichever of ``serve`` / ``server`` next
boots the directory (or a running ``serve --follow``) picks both up
through :func:`repro.serving.state.absorb`.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from ..experiments.persistence import to_jsonable
from ..serving import (
    IngestEntry,
    SessionSnapshot,
    SessionSpec,
    SessionState,
    derive_session_seed,
)
from ..serving import ingest as serving_ingest
from ..serving import state as serving_state
from ..video.datasets import dataset_names, get_profile
from . import flags


def _cmd_submit(args: argparse.Namespace) -> int:
    # profile datasets get a typo check against the calibrated category
    # list — unless the session follows a growing repository, where the
    # sought category may simply not have been recorded yet.  Non-profile
    # names are live datasets whose content only the journal defines.
    if args.dataset in dataset_names() and not args.follow:
        profile = get_profile(args.dataset)
        if args.category not in profile.category_names():
            return flags.fail(
                f"{args.dataset!r} has no category {args.category!r}; "
                f"options: {profile.category_names()}"
            )
    error = flags.execution_error(args)
    if error:
        return flags.fail(error)
    try:
        SessionSpec(  # validate limit/max-samples/priority before queuing
            dataset=args.dataset,
            category=args.category,
            limit=args.limit,
            max_samples=args.max_samples,
            priority=args.priority,
            batch_size=args.batch_size,
            follow=args.follow,
        )
    except ValueError as exc:
        return flags.fail(exc)
    state_dir = pathlib.Path(args.state_dir)
    try:
        config = serving_state.load_or_init_config(
            state_dir, scale=args.scale, seed=args.seed, shards=args.shards or 1,
            cache_budget=args.cache_budget,
        )
    except serving_state.StateError as exc:
        return flags.fail(exc)
    session_id = serving_state.next_session_id(state_dir)
    session_seed = args.session_seed
    if session_seed is None:
        session_seed = derive_session_seed(int(config.get("seed", 0)), int(session_id[1:]))
    snapshot = SessionSnapshot(
        session_id=session_id,
        dataset=args.dataset,
        category=args.category,
        limit=args.limit,
        max_samples=args.max_samples,
        seed=session_seed,
        priority=args.priority,
        warm_start=not args.no_warm_start,
        state=SessionState.ACTIVE.value,
        steps_taken=0,
        warm_start_frames=None,  # warm start runs when a server loads it
        batch_size=args.batch_size,
        follow=args.follow,
    )
    path = serving_state.write_snapshot(state_dir, snapshot)
    if args.json:
        print(json.dumps(to_jsonable(snapshot.to_dict()), indent=2))
    else:
        print(
            f"{snapshot.session_id}: queued {args.dataset}/{args.category} "
            f"(limit={args.limit}) -> {path}"
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.instances > 0 and args.category is None:
        return flags.fail("--instances needs --category")
    try:
        entry = IngestEntry(
            dataset=args.dataset,
            frames=args.frames,
            clips=args.clips,
            category=args.category,
            instances=args.instances,
            mean_duration=args.mean_duration,
            skew_fraction=args.skew,
            fps=args.fps,
        )
    except ValueError as exc:
        return flags.fail(exc)
    state_dir = pathlib.Path(args.state_dir)
    try:
        # record the build config on first touch so every process synthesizes
        # identical base repositories (and journal content) thereafter
        serving_state.load_or_init_config(state_dir, scale=args.scale, seed=args.seed)
        index = serving_ingest.append_entry(state_dir, entry)
    except (serving_state.StateError, serving_ingest.JournalError) as exc:
        return flags.fail(exc)
    if args.json:
        payload = dict(entry.to_dict(), entry_index=index)
        print(json.dumps(to_jsonable(payload), indent=2))
    else:
        content = (
            f"{entry.instances} x {entry.category!r} per clip"
            if entry.instances
            else "no tracked objects"
        )
        print(
            f"ingest #{index}: {entry.clips} clip(s) x {entry.frames} frames "
            f"-> {entry.dataset} ({content}); a running `serve --follow` "
            "picks this up on its next poll"
        )
    return 0


def register(sub) -> None:
    submit = sub.add_parser(
        "submit", help="queue a query in a serving state directory (no work done)"
    )
    submit.set_defaults(func=_cmd_submit)
    submit.add_argument("dataset", help="profile name (see `datasets`)")
    submit.add_argument("category", help="object category to search for")
    flags.add(submit, "state_dir", required=True)
    flags.add(submit, "limit", "max_samples", "priority", "batch_size")
    flags.add(
        submit, "shards",
        help="record the state directory's default shard count on first "
             "touch; later `serve` runs shard detection across that many "
             "worker processes unless overridden",
    )
    flags.add(
        submit, "cache_budget",
        help="record the state directory's default cache entry budget on "
             "first touch; later `serve` runs bound the memory tier to "
             "that many cached frames",
    )
    flags.add(
        submit, "session_seed", "no_warm_start", "follow", "scale", "seed", "json",
        "metrics_out",
    )

    ingest = sub.add_parser(
        "ingest",
        help="append synthetic footage to a state directory's ingestion journal",
    )
    ingest.set_defaults(func=_cmd_ingest)
    ingest.add_argument(
        "dataset",
        help="profile name to extend, or any new name for a live dataset "
             "that starts empty",
    )
    flags.add(ingest, "state_dir", required=True)
    flags.add(
        ingest, "frames", "clips", "category", "instances", "mean_duration",
        "skew", "fps", "scale", "seed", "json",
    )
