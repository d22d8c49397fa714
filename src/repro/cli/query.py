"""``datasets`` and ``query``: one distinct-object search, in process."""

from __future__ import annotations

import argparse
import json

from ..core.query import METHODS, DistinctObjectQuery, QueryEngine, QueryResult
from ..detection.costmodel import format_duration
from ..experiments.persistence import to_jsonable
from ..experiments.reporting import format_table
from ..video.datasets import (
    build_dataset,
    dataset_names,
    get_profile,
    scaled_chunk_frames,
)
from . import flags


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        profile = get_profile(name)
        rows.append(
            [
                name,
                profile.total_frames,
                profile.num_clips,
                profile.num_chunks,
                ", ".join(profile.category_names()),
            ]
        )
    print(
        format_table(
            ["dataset", "frames", "clips", "chunks", "categories"],
            rows,
            title="available dataset profiles (synthetic, paper-calibrated):",
        )
    )
    return 0


def _result_payload(result: QueryResult) -> dict:
    """Machine-readable results/cost summary behind ``query --json``."""
    return {
        "method": result.method,
        "results_returned": result.results_returned,
        "recall": result.recall,
        "frames_processed": result.frames_processed,
        "scan_frames_charged": result.scan_frames_charged,
        "detector_seconds": result.detector_seconds,
        "scan_seconds": result.scan_seconds,
        "total_seconds": result.total_seconds,
        "satisfied": result.satisfied,
        "distinct_instances_found": result.distinct_instances_found,
        "ground_truth_instances": result.ground_truth_instances,
    }


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        profile = get_profile(args.dataset)
    except KeyError:
        return flags.fail(f"unknown dataset {args.dataset!r}; options: {dataset_names()}")
    if args.category not in profile.category_names():
        return flags.fail(
            f"{args.dataset!r} has no category {args.category!r}; "
            f"options: {profile.category_names()}"
        )
    if (args.limit is None) == (args.recall is None):
        return flags.fail("pass exactly one of --limit / --recall")
    error = flags.execution_error(args)
    if error:
        return flags.fail(error)

    repo = build_dataset(
        args.dataset, categories=[args.category], scale=args.scale, seed=args.seed
    )
    engine = QueryEngine(
        repo,
        category=args.category,
        chunk_frames=scaled_chunk_frames(args.dataset, args.scale),
        batch_size=args.batch_size,
        detector_latency=args.detector_latency,
        shards=args.shards or 1,
        seed=args.seed,
    )
    query = DistinctObjectQuery(
        args.category,
        limit=args.limit,
        recall_target=args.recall,
        max_samples=args.max_samples,
    )
    methods = list(METHODS) if args.compare else [args.method]
    results = [engine.execute(query, method=method) for method in methods]

    if args.json:
        payload = {
            "dataset": repo.name,
            "category": args.category,
            "scale": args.scale,
            "seed": args.seed,
            "limit": args.limit,
            "recall_target": args.recall,
            "max_samples": args.max_samples,
            "total_frames": repo.total_frames,
            "ground_truth_instances": len(repo.instances_of(args.category)),
            "results": [_result_payload(r) for r in results],
        }
        print(json.dumps(to_jsonable(payload), indent=2))
        return 0

    print(
        f"{repo.name}: {repo.total_frames:,} frames (scale {args.scale:g}), "
        f"{len(repo.instances_of(args.category))} distinct "
        f"{args.category!r} instances in ground truth"
    )
    rows = []
    for result in results:
        rows.append(
            [
                result.method,
                result.results_returned,
                f"{result.recall:.2f}",
                result.frames_processed,
                format_duration(result.detector_seconds),
                format_duration(result.scan_seconds) if result.scan_seconds else "-",
                "yes" if result.satisfied else "NO",
            ]
        )
    print(
        format_table(
            ["method", "results", "recall", "frames", "detect time", "scan time", "satisfied"],
            rows,
        )
    )
    return 0


def register(sub) -> None:
    datasets = sub.add_parser("datasets", help="list available dataset profiles")
    datasets.set_defaults(func=_cmd_datasets)

    query = sub.add_parser("query", help="run one distinct-object query")
    query.set_defaults(func=_cmd_query)
    query.add_argument("dataset", help="profile name (see `datasets`)")
    query.add_argument("category", help="object category to search for")
    stop = query.add_mutually_exclusive_group()
    flags.add(stop, "limit", "recall")
    flags.add(
        query, "method", "compare", "scale", "max_samples", "batch_size",
        "detector_latency", "shards", "seed", "json", "metrics_out",
    )
