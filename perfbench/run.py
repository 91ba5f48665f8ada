"""The repository benchmark: one command, every workload, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload
    python3 perfbench/run.py --workload ladder --seed 3 --seconds 25
    python3 perfbench/run.py --workload serve --trace 1

With ``--workload`` the named workload runs in this process and the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, every workload runs in a fresh process of its own (so peak
memory belongs to one workload) and a combined line ends the output.
A wrong answer makes the exit status non-zero.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import subprocess
import sys
import time

import common
from common import Outcome, result_line

WORKLOADS = ("ladder", "serve", "ingest")
#: a run that has not finished by then is stopped and reported failed
RUN_LIMIT_S = 170


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timeout(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def run_workload(args: argparse.Namespace) -> int:
    common.use_program()
    import metrics

    module = importlib.import_module(f"wl_{args.workload}")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    started = time.perf_counter()
    try:
        outcome: Outcome = module.run(args.seed, args.seconds,
                                      bool(args.trace))
    finally:
        signal.alarm(0)
    trace = bool(args.trace)
    if trace:
        metrics.fill_absent(outcome)
    else:
        outcome.put("success_rate",
                    1.0 - outcome.failed / max(1, outcome.attempted),
                    "ratio")
    names = metrics.names_for(trace)
    common.WORK.mkdir(parents=True, exist_ok=True)
    env = common.environment(common.WORK)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started, "environment": env,
        "metrics": {name: list(value)
                    for name, value in outcome.metrics.items()},
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems, "notes": outcome.notes,
        "answers": outcome.answers, "spans": outcome.snapshot,
    }
    out = common.WORK / "runs" / (
        f"{args.workload}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        print(f"note: {note}")
    for problem in outcome.problems:
        print(f"WRONG: {problem}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}  "
          f"answers {outcome.answers}")
    for name in names:
        value, unit = outcome.metrics[name]
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"run record: {out.relative_to(common.ROOT)}")
    print(result_line(outcome, names), flush=True)
    return 0 if outcome.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; relay output, combine results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(common.HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S + 10, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined), flush=True)
    return status if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if not common.program_present():
        print(f"perfbench: no program source at {common.SRC}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
