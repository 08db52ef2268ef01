#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled with cargo
(offline, locked) into $CARGO_TARGET_DIR (default: .bench_build in the
checkout). The run's stdout is relayed unchanged; its last line is the
JSON result. Traced runs write their spans under .bench_out/. The exit
code is the benchmark's own: 0 when every answer was correct. A failed
build, a bad argument or a run over its time limit exits nonzero without
printing a result.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The benchmark binary validates the values.
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag, required=True)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
    ]
    try:
        rc = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    if rc != 0:
        print(f"run.py: build failed with exit code {rc}", file=sys.stderr)
        return 3

    cmd = [
        os.path.join(target, "release", "kfds-perfbench"),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--out-dir", os.path.join(root, ".bench_out"),
    ]
    try:
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 4
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
