#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload saturated_512 --seed 1 \
        --seconds 30 --trace 0

The benchmark package (perfbench/CMakeLists.txt) is configured and
built in Release under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. The
arithmetic self-test runs before every measurement. The last line of
standard output is the result object; the line before it records host
and build facts.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("saturated_512", "light_512", "single_4096")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, target, "perfbench")


def configured_for(build, source):
    """True when `build` holds a CMake cache made for `source`."""
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(source)
    return False


def build(root, out):
    source = os.path.join(root, "perfbench")
    if not configured_for(out, source):
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run(
            ["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "config", "presets.hpp")):
        log("no simulator sources under ./src; run from the repository root")
        return 2
    out = build_dir(root)
    try:
        build(root, out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    try:
        subprocess.run([os.path.join(out, "perfbench_self_test")],
                       check=True, timeout=60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"self-test failed: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    cmd = [os.path.join(out, "perfbench_runner"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--reference",
           os.path.join(root, "perfbench", "reference_digests.txt"),
           "--digests-out", os.path.join(out, f"digests-{tag}.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, f"trace-{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"runner failed with exit code {proc.returncode}")
        return proc.returncode or 2
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("runner printed a malformed result")
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
