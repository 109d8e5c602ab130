#!/usr/bin/env python3
"""Builds the NodeSentry benchmark from the sources beside it and runs one
workload.

    python3 perfbench/run.py --workload fleet-quantized --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The build goes to <root>/$CARGO_TARGET_DIR/
perfbench (default <root>/.bench_build/perfbench) and its output to stderr.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.
The script exits non-zero when a correctness check fails (the result line
then reads "correct": false), and without a result line when the build
fails or the benchmark crashes or times out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-quantized", "replay-strict", "ops-store")
BINARY = "perfbench_nodesentry"
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures (cheap once cached), then builds the benchmark binary
    incrementally."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "--target", BINARY, "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_commit():
    """The git commit when the checkout is a repository, else a digest of
    the library sources, so every result names the code it measured."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [os.path.join(out, BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir",
               os.path.join(out, "runs"), "--commit", source_commit()]
    try:
        got = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stderr.write(got.stderr)
    lines = got.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(got.stdout)
        print(f"perfbench: {args.workload} failed (exit {got.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(got.stdout)
    return 0 if got.returncode == 0 and result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())
