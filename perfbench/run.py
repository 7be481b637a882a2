#!/usr/bin/env python3
# Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
"""Sentinel benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the Sentinel library from src/ and the benchmark driver in perfbench/
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build), runs one
workload, and prints a detail record (host fingerprint, seed, input digest,
per-round figures, problems) followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where "metrics" holds every end_to_end metric of BENCHMARK.json (--trace 0)
or every per_layer metric (--trace 1), each as {"value", "unit"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over every file of the library and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "sentinel_perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd[:2])}); log in {log_path}")
    return os.path.join(build_dir, "sentinel_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no Sentinel sources (src/) in this directory; nothing to build")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(root),
           "--source-digest", source_digest(root)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        # The gateway unlinks its shm segment on a clean stop; a crashed
        # child leaves it behind.
        seg = f"/dev/shm/sentinel-perfbench-direct-{child.pid}"
        if os.path.exists(seg):
            os.unlink(seg)
    if child.returncode != 0:
        fail(f"benchmark exited with {child.returncode}")

    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"unparseable result line: {lines[-1][:200]}")
    values = result["values"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"benchmark did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
