#!/usr/bin/env python3
"""Build the mpi-dfa benchmark harness and run one workload, or all three.

    python3 perfbench/run.py --workload table1|scaled|service|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds `perfbench/` (a cargo package
of its own) in release mode into `$CARGO_TARGET_DIR` (default
`perfbench/target`), then runs each workload in its own process with
`MPIDFA_SOLVER` removed from the environment, so an ambient setting cannot
change which solver strategy is measured, and pinned to one CPU: the
service's `region-parallel:1` solves spawn a worker thread per solve,
and on a 2-vCPU x86-64 VM a spawn that wakes the other CPU cost 60-100
us, varying with host load, against a steady 40-50 us on one CPU.

The last line of standard output is the result: `{"correct",
"attempted", "failed", "metrics"}`. With `--workload all` each
workload's result is printed as it finishes and the last line merges
them, metric names prefixed with the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "scaled", "service")
# Environment variables the program reads that would change what is measured.
SCRUBBED_ENV = ("MPIDFA_SOLVER",)


def build():
    """Build the harness; return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "perfbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("perfbench: cargo reported no perfbench executable")
    return exe


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def rustc_version():
    try:
        proc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_one(exe, workload, args, env):
    """Run one workload in its own process; return its result line."""
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--rustc", rustc_version()]
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: workload {workload} exited with {proc.returncode}")
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    exe = build()
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    if args.workload != "all":
        print(run_one(exe, args.workload, args, env), flush=True)
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        line = run_one(exe, workload, args, env)
        print(json.dumps({"workload": workload, "result": json.loads(line)}), flush=True)
        result = json.loads(line)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged), flush=True)


if __name__ == "__main__":
    main()
