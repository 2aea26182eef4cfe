#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the `perfbench` binary from
source (release profile, offline; `CARGO_TARGET_DIR` defaults to
`.bench_build` in the repository root), runs the workload in a process
of its own and relays the binary's output. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the
workload twice with the same seed, untraced and then traced, and
reports the traced run's per-layer metrics plus the tracing overhead,
`overhead.<metric>` = traced minus untraced value of each end-to-end
metric. `--workload all` runs every workload in turn (one result line
each). The script exits non-zero if any result is incorrect.

Any build or run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["online_dense", "trace_batch", "store_replay"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    """A build or run failure: reported on stderr, no result printed."""


def child_env():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    env.setdefault("PERFBENCH_GIT_COMMIT", git_commit())
    return env


def git_commit():
    """HEAD of the repository this file lives in, or "unknown" outside git."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"build failed: {e}")
    if proc.returncode != 0:
        raise BenchError(f"build failed with exit code {proc.returncode}")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"build produced no binary at {binary}")
    return binary


def run_binary(binary, env, workload, seed, seconds, trace):
    """Runs one workload; relays its lines and returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{workload} run failed: {e}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{workload} printed no result line: {e}")
    if set(result) != RESULT_KEYS:
        raise BenchError(f"{workload} result has keys {sorted(result)}")
    return result


def with_overhead(untraced, traced):
    """The traced run's per-layer metrics plus `overhead.<name>` for every
    end-to-end metric of the untraced run."""
    metrics = {name: m for name, m in traced["metrics"].items()
               if name not in untraced["metrics"]}
    for name, m in untraced["metrics"].items():
        delta = traced["metrics"][name]["value"] - m["value"]
        metrics["overhead." + name] = {"value": delta, "unit": m["unit"]}
        print(f"overhead.{name} = {delta} {m['unit']}")
    return {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }


def run_workload(binary, env, workload, seed, seconds, trace):
    untraced = run_binary(binary, env, workload, seed, seconds, 0)
    if not trace:
        return untraced
    traced = run_binary(binary, env, workload, seed, seconds, 1)
    return with_overhead(untraced, traced)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        env = child_env()
        binary = build(env)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = [run_workload(binary, env, w, args.seed, args.seconds, args.trace)
                   for w in workloads]
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
