#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload hash_spot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The simulator libraries and the perfbench
program are built from source into .bench_build/ (incremental after the first
run). The program's report is echoed, then a `record` line with the full
result plus the environment it was measured on, and last the result line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/NOTES.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("hash_spot", "hash_p4", "rack_incast", "faulty_fabric")
BASELINE = os.path.join(ROOT, "bench", "baselines", "BENCH_sim_throughput.baseline.json")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the benchmark program; returns the binary path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure leaves a cache that would skip it next time.
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "perfbench")


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code when no git is there."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    commit = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": first_line([compiler, "--version"]) if compiler else "unknown",
        "build_type": cache_value("CMAKE_BUILD_TYPE") or "unknown",
        "git_commit": commit or "none (not a git checkout)",
        "source_digest": source_digest(),
        "host_os": platform.platform(),
    }


def spec_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test", "--baseline", BASELINE]
        sys.exit(subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result")

    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("record "):])
    end_to_end, per_layer = spec_names()
    expected = per_layer if args.trace else end_to_end
    if sorted(result["metrics"]) != sorted(expected):
        fail("reported metric names differ from BENCHMARK.json")
    record["trace"] = args.trace
    record["env"] = environment()
    for line in lines[:-2]:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
