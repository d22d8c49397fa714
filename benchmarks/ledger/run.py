"""The layered performance ledger: one command, six workloads.

    python benchmarks/ledger/run.py --seed N --out FILE      # every workload, timed + traced
    python benchmarks/ledger/run.py --smoke --out FILE       # the same at toy sizes (~10 s)
    python benchmarks/ledger/run.py compare A.json B.json    # direction + bound per metric
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the one ``BENCHMARK.json`` names: one workload, and as
the last line of stdout one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  See README.md for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

import compare
import loadgen
import metrics
import spec
import workloads

DEFAULT_SECONDS = 10


def _leg(workload: str, seed: int, seconds: float, smoke: bool, traced: bool):
    if workload == "engine_offline":
        return workloads.run_engine_leg(seed, seconds, smoke, traced)
    # a hard stop well inside the driver's 180 s per run, two legs at most
    timeout_s = min(60.0, max(20.0, 5.0 * seconds))
    return workloads.run_served_leg(workload, seed, seconds, smoke, traced, timeout_s)


def _described(values: dict, table: dict, samples: dict | None = None) -> dict:
    out = {}
    for name, value in values.items():
        metric = table[name]
        row = {"value": value, "unit": metric.unit, "better": metric.better}
        if metric.bound is not None:
            row["bound"] = metric.bound
        if metric.exact:
            row["exact"] = True
        if samples is not None:
            row["samples"] = samples[name]
        out[name] = row
    return out


def measure(workload: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    """Timed leg (tracing off), output check, and with ``trace`` a second,
    traced leg of the same load whose digest must match."""
    loadgen.pin_self(as_server=workload == "engine_offline")
    engine_scale = workloads.engine_sizing(smoke)[0]
    timed = _leg(workload, seed, seconds, smoke, traced=False)
    failing = metrics.check_outputs(timed, engine_scale)
    attempted, failed = metrics.operations(timed, failing)
    e2e = metrics.end_to_end(timed, attempted, failed)
    record = {
        "why": spec.WORKLOADS[workload],
        "clients": spec.CLIENTS[workload],
        "sessions": len(timed.sessions),
        "results_digest": metrics.results_digest(timed),
        "timed_wall_s": timed.wall_s,
        "attempted": attempted,
        "failed": failed,
        "phases": timed.counts.as_rows(),
        "problems": list(timed.problems),
        "end_to_end": _described(
            {name: value for name, (value, _n) in e2e.items()},
            {**spec.END_TO_END, **spec.END_TO_END_SOME},
            {name: n for name, (_value, n) in e2e.items()},
        ),
    }
    if trace:
        traced = _leg(workload, seed, seconds, smoke, traced=True)
        traced_failing = metrics.check_outputs(traced, engine_scale)
        record["traced_digest"] = metrics.results_digest(traced)
        record["traced_wall_s"] = traced.wall_s
        record["traced_phases"] = traced.counts.as_rows()
        record["problems"] += [f"traced: {p}" for p in traced.problems]
        if record["traced_digest"] != record["results_digest"]:
            record["problems"].append("traced run's results digest differs from the timed run's")
        if traced_failing or traced.problems:
            record["failed"] = max(record["failed"], 1)
        if traced.spans and traced.wall_s > 0:
            record["per_layer"] = _described(
                metrics.per_layer(traced, timed.wall_s), spec.PER_LAYER
            )
        else:
            record["problems"].append("traced run recorded no spans")
    record["correct"] = not record["problems"] and record["failed"] == 0
    return record


# ------------------------------------------------------------ driver mode

def driver_line(record: dict, trace: bool) -> tuple[dict, bool]:
    """The contract's result object, and whether it is complete."""
    out = {}
    complete = True
    if not trace:
        for name, metric in spec.END_TO_END.items():
            row = record["end_to_end"].get(name)
            if row is None:
                complete = False
                continue
            out[name] = {"value": row["value"], "unit": metric.unit}
    else:
        layers = record.get("per_layer")
        complete = layers is not None
        # the driver wants "every per_layer metric" as "a number" from every
        # workload: what this workload does not define reads 0 on this line
        # only, and is left out of the ledger file
        for row in spec.MANIFEST["per_layer"]:
            name = row["name"]
            if name.startswith("e2e."):
                found = record["end_to_end"].get(name[len("e2e."):])
            else:
                found = (layers or {}).get(name)
            out[name] = {"value": found["value"] if found else 0.0, "unit": row["unit"]}
    line = {
        "correct": bool(record["correct"] and complete),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }
    return line, complete


def run_driver(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, args.smoke, bool(args.trace))
    if args.record:  # the all-workloads mode collects its children's records
        with open(args.record, "w", encoding="utf-8") as out:
            json.dump(record, out)
        return 0
    print_workload(args.workload, record)
    line, complete = driver_line(record, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if complete else 1


# -------------------------------------------------------------- full mode

def print_workload(name: str, record: dict) -> None:
    print(f"\n== {name}: {record['sessions']} sessions, {record['clients']}")
    print(f"   why: {record['why']}")
    print(f"   results_digest {record['results_digest'][:16]}  "
          f"correct={record['correct']}  attempted={record['attempted']} "
          f"failed={record['failed']}")
    for phase, row in record["phases"].items():
        print(f"   phase {phase:<16} sent {row['sent']:>6}  ok {row['succeeded']:>6}  "
              f"failed {row['failed']:>4}")
    for problem in record["problems"][:10]:
        print(f"   PROBLEM: {problem}")
    for section in ("end_to_end", "per_layer"):
        for metric, row in record.get(section, {}).items():
            bound = "exact" if row.get("exact") else (
                f"{row['bound']:.0%}" if "bound" in row else "-")
            samples = f"n={row['samples']}" if "samples" in row else ""
            print(f"   {metric:<48} {row['value']:>14.6g} {row['unit']:<6} "
                  f"{row['better']:<6} {bound:<6} {samples}")


def _measure_isolated(name: str, args, trace: bool) -> dict:
    """``measure`` in a process of its own, exactly as the driver runs a
    workload: a fresh interpreter, so peak memory and first-call costs
    never depend on what ran before."""
    with loadgen.WorkDir() as tmp:
        record_path = tmp / "record.json"
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(int(trace)),
                   "--record", str(record_path)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command)
        if done.returncode != 0 or not record_path.exists():
            raise SystemExit(f"error: {name} run exited {done.returncode} without a record")
        return json.loads(record_path.read_text(encoding="utf-8"))


def run_all(args) -> int:
    ledger = {
        "ledger_version": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        record = _measure_isolated(name, args, trace=True)
        # extra timed legs give compare a spread to judge "unresolved" by
        for _ in range(args.repeat - 1):
            again = _measure_isolated(name, args, trace=False)
            for metric, row in again["end_to_end"].items():
                kept = record["end_to_end"].get(metric)
                if kept is not None:
                    kept.setdefault("values", [kept["value"]]).append(row["value"])
                    kept["value"] = statistics.median(kept["values"])
            record["problems"] += again["problems"]
            record["failed"] = max(record["failed"], again["failed"])
            record["correct"] = record["correct"] and again["correct"]
        ledger["workloads"][name] = record
        print_workload(name, record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(ledger, out, indent=1, sort_keys=True)
            out.write("\n")
        print(f"\nledger written to {args.out}")
    return 0 if all(r["correct"] for r in ledger["workloads"].values()) else 1


def _exit_on_sigterm(signum, frame):
    # unwind through the context managers that kill servers and remove temp dirs
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), default=None,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length the workloads are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 adds the traced leg and prints per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, whole suite about 10 s")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed legs per workload (all workloads mode)")
    parser.add_argument("--out", default=None, help="write the ledger JSON here")
    parser.add_argument("--record", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be positive and --repeat at least 1")
    if not (loadgen.SRC_DIR / "repro" / "__init__.py").exists():
        print(f"error: {loadgen.SRC_DIR}/repro not found: the ledger measures the "
              "repro package of the checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(loadgen.SRC_DIR))  # the harness imports repro lazily
    if args.workload is not None:
        return run_driver(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
