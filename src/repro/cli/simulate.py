"""``simulate``: randomized end-to-end scenarios against the oracle."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import flags


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Run randomized end-to-end scenarios against the oracle contract.

    Scenario ``k`` of a sweep uses seed ``args.seed + k``; a failure
    prints that seed and the exact command that replays it, so a red CI
    sweep is one copy-paste away from a local, bit-identical repro.
    """
    import dataclasses
    import tempfile

    from ..simulation import PROFILES, generate_scenario, run_scenario
    from ..simulation.invariants import InvariantViolation
    from ..simulation.scenario import sharded_variant

    if args.seed < 0:
        return flags.fail("--seed must be non-negative")
    if args.scenarios <= 0:
        return flags.fail("--scenarios must be positive")
    if args.ticks is not None and args.ticks <= 0:
        return flags.fail("--ticks must be positive")
    if args.shards is not None and args.shards < 1:
        return flags.fail("--shards must be at least 1")
    if args.profile not in PROFILES:
        return flags.fail(
            f"unknown profile {args.profile!r}; options: "
            f"{sorted(PROFILES)}"
        )

    results: list[dict] = []
    failures: list[tuple[int, str]] = []
    with tempfile.TemporaryDirectory(prefix="repro-simulate-") as workdir:
        for k in range(args.scenarios):
            seed = args.seed + k
            try:
                scenario = generate_scenario(seed, args.profile)
                if args.ticks is not None:
                    scenario = dataclasses.replace(scenario, ticks=args.ticks)
                if args.shards is not None:
                    scenario = sharded_variant(scenario, args.shards)
                report = run_scenario(scenario, workdir=workdir)
            except Exception as exc:  # noqa: BLE001 — any crash inside a
                # scenario IS a finding; the sweep must record the seed
                # and keep exploring, not die with a traceback
                detail = (
                    str(exc)
                    if isinstance(exc, InvariantViolation)
                    else f"{type(exc).__name__}: {exc}"
                )
                failures.append((seed, detail))
                print(f"scenario seed {seed}: FAILED", file=sys.stderr)
                print(f"  {detail}", file=sys.stderr)
                print(
                    f"  reproduce: python -m repro simulate --seed {seed} "
                    f"--scenarios 1 --profile {args.profile}"
                    + (f" --ticks {args.ticks}" if args.ticks is not None else "")
                    + (f" --shards {args.shards}" if args.shards is not None else ""),
                    file=sys.stderr,
                )
                if args.fail_fast:
                    break
                continue
            summary = {
                "seed": seed,
                "profile": args.profile,
                "ticks_run": report.ticks_run,
                "sessions": len(report.sessions),
                "steps_committed": report.steps_committed,
                "detector_calls": report.detector_calls,
                "crashes": report.crashes,
                "detector_errors": report.detector_errors,
                "fault_kinds": scenario.fault_kinds(),
                "log_sha256": report.log_digest(),
                "metrics": dict(report.metrics),
            }
            if args.scenarios == 1:
                summary["event_log"] = report.event_log
            results.append(summary)
            if not args.json and not args.quiet:
                faults = ",".join(scenario.fault_kinds()) or "-"
                print(
                    f"scenario seed {seed}: ok "
                    f"({report.steps_committed} steps, "
                    f"{report.detector_calls} detector calls, "
                    f"faults: {faults}, log {report.log_digest()[:12]})"
                )

    if args.json:
        payload = {
            "profile": args.profile,
            "scenarios": args.scenarios,
            "passed": len(results),
            "failed": len(failures),
            "failing_seeds": [seed for seed, _ in failures],
            "results": results,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{len(results)}/{len(results) + len(failures)} scenarios passed "
            f"({args.profile} profile)"
        )
    if args.failures_file is not None and failures:
        path = pathlib.Path(args.failures_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for seed, message in failures:
                handle.write(f"{seed}\t{message}\n")
    if failures:
        seeds = " ".join(str(seed) for seed, _ in failures)
        print(f"FAILING SEEDS: {seeds}", file=sys.stderr)
        return 1
    return 0


def register(sub) -> None:
    simulate = sub.add_parser(
        "simulate",
        help="run randomized end-to-end scenarios with fault injection "
             "against the oracle parity contract",
    )
    simulate.set_defaults(func=_cmd_simulate)
    flags.add(
        simulate, "seed",
        help="base scenario seed; scenario k uses seed+k, and a printed "
             "failing seed replays bit-for-bit",
    )
    flags.add(simulate, "scenarios")
    flags.add(simulate, "ticks", help="override each scenario's scheduling-round count")
    flags.add(simulate, "profile")
    flags.add(
        simulate, "shards",
        help="force every scenario onto the sharded execution backend "
             "with N worker processes; in-process detector faults become "
             "worker kills and every scenario gets at least one kill",
    )
    flags.add(simulate, "fail_fast", "failures_file", "quiet")
    flags.add(
        simulate, "json",
        help="machine-readable sweep summary (with --scenarios 1, includes "
             "the full event log)",
    )
    flags.add(simulate, "metrics_out")
