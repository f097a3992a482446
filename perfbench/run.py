#!/usr/bin/env python3
"""Builds and runs the ER benchmark for one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program's libraries and the er_perfbench driver from source
(CMake, RelWithDebInfo, the build type the repository's own CMakeLists.txt
defaults to) into $CARGO_TARGET_DIR or .bench_build, then runs one
workload in a fresh process. The last line of standard output is the JSON
result; everything the build prints goes to standard error. Exits non-zero,
without a result, when the sources are missing, the build fails, the run
fails or its result is malformed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("table1-offline", "fleet-wait", "ingest-spool")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("program sources (src/) not found; run from the repository root")
    cfg = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cfg):
        rc = subprocess.call(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "er_perfbench", "-j4"],
        stdout=sys.stderr)
    if rc != 0:
        fail("build failed")
    return os.path.join(build_dir, "er_perfbench")


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not JSON")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(res["metrics"]) != sorted(want):
        fail("result metrics do not match BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--write-golden", action="store_true",
                    help="rewrite perfbench/golden for this workload and seed")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(build_dir, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join("perfbench", "golden"),
           "--work-dir", os.path.join(build_dir, "perfbench-work")]
    if args.write_golden:
        cmd.append("--write-golden")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("er_perfbench exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
