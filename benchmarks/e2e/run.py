#!/usr/bin/env python3
"""The repo's benchmark: every workload, every metric, one command.

    python benchmarks/e2e/run.py                      # the whole suite
    python benchmarks/e2e/run.py --smoke              # same, 2 s windows
    python benchmarks/e2e/run.py --runs 5 --out DIR   # 5 seeds per workload
    python benchmarks/e2e/run.py compare A.json B.json

    # one run of one workload (the form the benchmark driver uses); the last
    # line of stdout is {"correct", "attempted", "failed", "metrics"}
    python benchmarks/e2e/run.py --workload pipe_acceptance --seed 0 --seconds 24 --trace 0

The suite runs every workload untraced for the gated end-to-end numbers,
then a traced pass for the per-layer numbers, verifies every composite bit
for bit against the sequential reference, prints every metric by name with
its unit and writes ``results.json`` and ``trace.jsonl`` under ``--out``
(default ``benchmarks/e2e/out/``).  ``BENCHMARK.json`` at the repository root
declares the workloads, the metrics and their regression bounds; see
``README.md`` beside this file for what each one means.

Each workload runs in a subprocess of its own (this file again, with
``--child``), in its own process group: resource accounting and leftovers
belong to one workload, ``resource_tracker`` complaints printed at
interpreter exit can be read from the captured stderr, and a hung run can be
killed whole.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")

# This directory holds a ``trace.py``; imported flat it would shadow the
# standard library's ``trace`` for everything in the process.  Import the
# directory as the package ``e2e`` instead and drop the script directory.
sys.path[:] = [entry for entry in sys.path if os.path.abspath(entry or os.curdir) != HERE]
sys.path[:0] = [SOURCE, os.path.dirname(HERE)]

#: One BLAS/OpenMP thread per process.  Two workers on two cores leave no
#: core for a second BLAS thread; OpenBLAS's default (one thread per core, in
#: every worker) busy-waits between calls and multiplies CPU per cube several
#: times over -- measured in README.md -- which buries the repo's own layers.
BLAS_ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}

#: Window of a ``--smoke`` run, seconds.
SMOKE_SECONDS = 2

#: A child that has not finished by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_SECONDS = 165.0

#: Seconds the parent waits for stragglers of a finished child's process group.
GROUP_EXIT_TIMEOUT = 5.0


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child: one run of one workload in this process
# ---------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    from e2e import measure
    from e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, f"trace-{workload.name}-{args.seed}.jsonl")
        result = measure.run_traced(workload, args.seed, args.seconds, smoke=args.smoke,
                                    trace_path=trace_path)
    else:
        result = measure.run_untraced(workload, args.seed, args.seconds)
    measure.print_run(workload, args.seed, bool(args.trace), result)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn, watch, taint, relay
# ---------------------------------------------------------------------------

def _reap_group(pgid: int) -> List[int]:
    """Wait for every process of a finished child's group; kill what stays."""
    from e2e.hostproc import process_group

    deadline = time.monotonic() + GROUP_EXIT_TIMEOUT
    members = process_group(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = process_group(pgid)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return members


def run_child(workload: str, seed: int, seconds: int, trace: int, *, smoke: bool,
              out: str) -> Optional[Dict[str, Any]]:
    """Run one workload in a subprocess; returns its record (with ``detail``)
    after applying the checks only a parent can make, or ``None`` if the
    child crashed, hung or printed no result."""
    from e2e.hostproc import resource_tracker_warnings

    command = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    command += ["--out", out]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True, cwd=ROOT,
                             env={**os.environ, **BLAS_ENVIRONMENT})
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_SECONDS)
        timed_out = False
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        stdout, stderr = child.communicate()
        timed_out = True
    stragglers = _reap_group(child.pid)

    lines = stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stderr.write(stderr)
    if timed_out or child.returncode != 0 or not lines:
        reason = "timed out" if timed_out else f"exited with code {child.returncode}"
        print(f"benchmark child for {workload} {reason}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"benchmark child for {workload} printed no result", file=sys.stderr)
        return None

    violations = result["detail"]["hygiene_violations"]
    violations += [f"stderr: {line}" for line in resource_tracker_warnings(stderr)]
    if stragglers:
        violations.append(f"processes outlived the run and were killed: {stragglers}")
    if violations and result["failed"] != result["attempted"]:
        for violation in violations:
            print(f"  HYGIENE {violation}")
        result["failed"] = result["attempted"]
        result["correct"] = False
        result["detail"]["failed_share"] = 1.0
    return result


def contract_main(args: argparse.Namespace) -> int:
    """One run, as the driver asks for it: last stdout line is the result."""
    result = run_child(args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke,
                       out=args.out)
    if result is None:
        return 1
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def suite_main(args: argparse.Namespace) -> int:
    """Every workload untraced, then traced; writes results.json + trace.jsonl."""
    benchmark = load_benchmark()
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or benchmark["run_seconds"])
    out = args.out
    os.makedirs(out, exist_ok=True)
    names = [entry["name"] for entry in benchmark["workloads"]]
    runs: List[Dict[str, Any]] = []
    broken = False
    for trace in (0, 1):
        for name in names:
            # The gated numbers get --runs seeds; one traced pass per workload
            # is enough for the per-layer table.
            for seed in range(args.seed, args.seed + (args.runs if trace == 0 else 1)):
                result = run_child(name, seed, seconds, trace, smoke=args.smoke, out=out)
                if result is None:
                    broken = True
                    continue
                runs.append({"workload": name, "seed": seed, "trace": trace,
                             "seconds": seconds, **result})
    with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema": "repro-fusion/e2e-results/v1", "smoke": args.smoke,
                   "runs": runs}, fh, indent=1)
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as merged:
        for run in runs:
            part = os.path.join(out, f"trace-{run['workload']}-{run['seed']}.jsonl")
            if run["trace"] and os.path.exists(part):
                with open(part, encoding="utf-8") as fh:
                    merged.write(fh.read())
                os.unlink(part)
    failed = [f"{run['workload']} (seed {run['seed']})" for run in runs if not run["correct"]]
    print(f"\nwrote {os.path.join(out, 'results.json')} and trace.jsonl: {len(runs)} runs, "
          f"{len(failed)} with failures")
    for name in failed:
        print(f"  FAILED {name}")
    return 1 if failed or broken else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (omit for the whole suite)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured window; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: untraced runs per workload, on consecutive seeds")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows and fewer probe repeats")
    parser.add_argument("--out", default=None,
                        help="directory for results.json / trace.jsonl (default: "
                             "benchmarks/e2e/out)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "compare":
        from e2e.compare import compare_main
        return compare_main(list(argv[1:]), load_benchmark())
    args = parse_args(argv)
    args.out = os.path.abspath(args.out or os.path.join(HERE, "out"))
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"the program under test is missing: no {SOURCE}/repro", file=sys.stderr)
        return 2
    if args.workload is None:
        return suite_main(args)
    names = [entry["name"] for entry in load_benchmark()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json declares: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    return child_main(args) if args.child else contract_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
