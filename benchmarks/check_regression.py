#!/usr/bin/env python
"""Benchmark-regression gate: compare a pytest-benchmark JSON to a baseline.

Usage (what CI runs)::

    python -m pytest benchmarks/ --benchmark-json current.json
    python benchmarks/check_regression.py current.json \
        --baseline benchmarks/baseline.json --max-regression 0.25

Raw benchmark means are machine-dependent (a slower runner inflates every
number), so the gate compares each key benchmark's **calibrated ratio**:
its mean divided by the summed means of the *non-key* benchmarks present
in both files.  Dividing by a fixed calibration set cancels overall
machine speed to first order while keeping every key's denominator
independent of every key's change — a 40% regression in one key moves
that key's ratio by ~40% and no other key's at all (with a
leave-one-out fallback when no non-key benchmarks exist).  A key
benchmark fails the gate when its ratio grows by more than
``--max-regression`` (default 25%) over the committed baseline *and* it
is not trivially fast (shares below ``--min-share`` of total time carry
too much noise to judge).

Refresh the baseline after an intentional performance change::

    python -m pytest benchmarks/ --benchmark-json benchmarks/baseline.json

(Commit the result.  ``benchmarks/baseline.json`` is trimmed to the stats
the gate reads, so regenerating it produces a reviewable diff.)

Stdlib only — importable/runnable without the package installed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# the gate's default scope: the long-running benchmarks whose shares are
# stable enough to judge (the CPU-bound ones are each >= ~5% of suite
# time) — together they exercise the sampling loop, the evaluation
# machinery, the ablation harness, and the distributed serving path.
# test_bench_distributed is latency-simulated (sleep-dominated), so its
# absolute time is machine-independent while its calibration denominator
# is not; it is sized just above the --min-share floor and its baseline
# should be refreshed alongside the others (nightly workflow_dispatch)
# if the gate's runner class changes.  Pass --key to override.  Note the
# one blind spot of share-based gating: a perfectly *uniform* slowdown
# across every benchmark is indistinguishable from a slower machine, by
# design.  test_bench_telemetry_overhead wraps its whole interleaved
# disabled/enabled comparison in one pedantic round so its recorded mean
# (the full serving workload x 2 arms x 64 pairs) clears the
# --min-share floor; its own pass/fail (the 3% overhead gate) lives in
# the benchmark itself — the key here guards the *absolute* cost of the
# instrumented serving loop.
DEFAULT_KEYS = (
    "test_bench_fig3",
    "test_bench_fig4",
    "test_bench_fig5",
    "test_bench_table1",
    "test_bench_ablation_scoring",
    "test_bench_ablation_policy",
    "test_bench_distributed",
    "test_bench_telemetry_overhead",
    "test_bench_sampler_vectorized",
    # the closed-loop network load benchmark: 256 concurrent client
    # sessions against a subprocess `repro server`; its runtime share
    # guards the whole served path (admission queue, tick loop under
    # polling load, per-session first-result latency) against creep
    "test_bench_server_load",
    # the multi-tenant cache-pressure benchmark: one shared vs private
    # caches under eviction pressure; its runtime share guards the
    # bounded tier and its sqlite fall-through against creep
    "test_bench_cache_pressure",
)


def load_means(path: pathlib.Path) -> dict[str, float]:
    """Map benchmark name -> mean seconds from a pytest-benchmark JSON."""
    data = json.loads(path.read_text(encoding="utf-8"))
    means: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    return means


def shares(means: dict[str, float], common: list[str]) -> dict[str, float]:
    """Each benchmark's fraction of the common total (noise floor test)."""
    total = sum(means[name] for name in common)
    if total <= 0.0:
        raise SystemExit("error: benchmark means sum to zero; nothing to compare")
    return {name: means[name] / total for name in common}


def calibrated_ratios(
    means: dict[str, float], common: list[str], keys: list[str]
) -> dict[str, float]:
    """Each key benchmark's mean over the summed non-key means.

    A fixed calibration denominator cancels machine speed while keeping
    every key's ratio independent of every key's change — one key
    regressing (or speeding up 10x) cannot trip the gate for the others.
    Falls back to leave-one-out when the key set covers everything.
    """
    key_set = set(keys)
    calibration = sum(means[name] for name in common if name not in key_set)
    out = {}
    for name in keys:
        rest = calibration if calibration > 0.0 else (
            sum(means[n] for n in common) - means[name]
        )
        if rest <= 0.0:
            raise SystemExit("error: need at least two non-trivial benchmarks")
        out[name] = means[name] / rest
    return out


def trim_for_baseline(path: pathlib.Path, out: pathlib.Path) -> None:
    """Write a minimal baseline JSON (names + means only) from a full run."""
    data = json.loads(path.read_text(encoding="utf-8"))
    trimmed = {
        "machine_info": {
            "python_version": data.get("machine_info", {}).get("python_version"),
        },
        "benchmarks": [
            {"name": b["name"], "stats": {"mean": b["stats"]["mean"]}}
            for b in data.get("benchmarks", [])
        ],
    }
    out.write_text(json.dumps(trimmed, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=pathlib.Path,
                        help="pytest-benchmark JSON from the run under test")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent / "baseline.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum allowed growth of a key benchmark's "
                             "runtime ratio over the non-key calibration "
                             "set (0.25 = +25%%)")
    parser.add_argument("--min-share", type=float, default=0.01,
                        help="ignore benchmarks below this share of total time")
    parser.add_argument("--key", action="append", default=None,
                        help="benchmark name to gate on (repeatable); "
                             f"default: {', '.join(DEFAULT_KEYS)}")
    parser.add_argument("--trim-baseline", type=pathlib.Path, default=None,
                        help="write a trimmed baseline JSON from CURRENT and exit")
    args = parser.parse_args(argv)

    if args.trim_baseline is not None:
        trim_for_baseline(args.current, args.trim_baseline)
        print(f"baseline written to {args.trim_baseline}")
        return 0

    current = load_means(args.current)
    baseline = load_means(args.baseline)
    common = sorted(set(current) & set(baseline))
    if not common:
        print("error: no benchmarks in common with the baseline", file=sys.stderr)
        return 1

    # a benchmark present on only one side is a rename/removal/addition,
    # not a regression: warn (so the drift is visible and the baseline
    # gets refreshed) but keep gating on what *is* comparable
    baseline_only = sorted(set(baseline) - set(current))
    current_only = sorted(set(current) - set(baseline))
    if baseline_only:
        print(
            f"warning: {len(baseline_only)} baseline benchmark(s) missing from "
            f"the current run (renamed or removed?): {', '.join(baseline_only)}; "
            "refresh benchmarks/baseline.json to drop them",
            file=sys.stderr,
        )
    if current_only:
        print(
            f"warning: {len(current_only)} benchmark(s) not in the baseline "
            f"(new?): {', '.join(current_only)}; refresh benchmarks/baseline.json "
            "to gate them",
            file=sys.stderr,
        )

    current_shares = shares(current, common)
    baseline_shares = shares(baseline, common)
    common_set = set(common)
    keys = args.key if args.key else [k for k in DEFAULT_KEYS if k in common_set]
    skipped_keys = [k for k in DEFAULT_KEYS if k not in common_set] if not args.key else []
    if skipped_keys:
        print(
            f"warning: default key benchmark(s) not in both runs, skipped: "
            f"{', '.join(skipped_keys)}",
            file=sys.stderr,
        )
    missing = [k for k in (args.key or []) if k not in common_set]
    if missing:
        # explicitly requested keys are a hard contract, unlike defaults
        print(f"error: key benchmarks not in both runs: {missing}", file=sys.stderr)
        return 1
    if not keys:
        print(
            "error: none of the key benchmarks are present in both runs; "
            "refresh benchmarks/baseline.json or pass --key",
            file=sys.stderr,
        )
        return 1
    current_ratios = calibrated_ratios(current, common, keys)
    baseline_ratios = calibrated_ratios(baseline, common, keys)

    failures = []
    width = max(len(k) for k in keys)
    print(f"{'benchmark':<{width}}  baseline  current   change  verdict")
    for name in keys:
        base, cur = baseline_ratios[name], current_ratios[name]
        change = cur / base - 1.0
        regressed = (
            change > args.max_regression
            and current_shares[name] >= args.min_share
            and baseline_shares[name] >= args.min_share
        )
        verdict = "REGRESSED" if regressed else "ok"
        if regressed:
            failures.append(name)
        print(
            f"{name:<{width}}  {base:8.4f}  {cur:8.4f}  {change:+7.1%}  {verdict}"
        )

    if failures:
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%} vs {args.baseline}: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nok: no key benchmark regressed more than {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
