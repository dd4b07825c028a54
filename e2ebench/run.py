#!/usr/bin/env python3
"""Builds and runs the reasched end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload durable-closed --seed 1 --seconds 45 --trace 0

The first run configures and builds e2ebench/ (the library sources in src/
plus the benchmark program) under $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when the variable is unset; later runs rebuild only
what changed. Build output goes to stderr. The program's output, ending in
the one-line JSON result, goes to stdout; result, layer and span files go
to <build dir>/results.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "e2ebench")


def source_digest():
    """sha256 over the library and benchmark sources, path and content."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def workload_why(name):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError):
        return ""
    for workload in spec.get("workloads", []):
        if workload.get("name") == name:
            return workload.get("why", "")
    return ""


def build(directory):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    if not build(directory):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(directory, "e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", os.path.join(directory, "results"),
               "--why", workload_why(args.workload),
               "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
