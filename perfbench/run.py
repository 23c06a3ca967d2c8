#!/usr/bin/env python3
"""Benchmark entry point: builds the driver (Release) and runs one workload.

    python3 perfbench/run.py --workload serve_batch_hot --seed 7 \
        --seconds 10 --trace 0

Run from the repository root. The driver is built from the repository's
own sources into .bench_build/perfbench (CMake, Release); the first run
builds, later runs only check that the build is up to date. Standard
output ends with two JSON lines: the run's provenance, then the result
object {"correct", "attempted", "failed", "metrics"} whose metrics are
exactly the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1), each as {"value", "unit"}. The exit code
is 0 only when every output check passed.

    python3 perfbench/run.py --smoke

runs every workload tiny, traced and untraced, checks that each metric
BENCHMARK.json names is reported with its unit, and checks that a
deliberately corrupted reference digest makes every workload fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TYPE = "Release"
DRIVER_TIMEOUT_S = 170
DRIVER_ONLY = ["serve_tcp_open"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_driver(args):
    """Runs the driver; returns (exit code, parsed JSON or None)."""
    try:
        proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out: " + " ".join(args))
        return 1, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no JSON: " + lines[-1][:200])
        return proc.returncode or 1, None


def expected_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def metric_problems(result, wanted):
    """Names BENCHMARK.json lists that are missing, unit-mismatched or null."""
    problems = []
    got = result.get("metrics", {})
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(m["name"] + ": missing")
        elif entry.get("unit") != m["unit"]:
            problems.append("%s: unit %r, want %r"
                            % (m["name"], entry.get("unit"), m["unit"]))
        elif not isinstance(entry.get("value"), (int, float)):
            problems.append(m["name"] + ": not measured")
    extra = set(got) - {m["name"] for m in wanted}
    problems += [name + ": not in BENCHMARK.json" for name in sorted(extra)]
    return problems


def run_one(args, spec):
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, result = run_driver(driver_args)
    if result is None:
        log("driver failed without a result (exit %d)" % code)
        return 1
    wanted = expected_metrics(spec, args.trace)
    problems = metric_problems(result, wanted)
    correct = bool(result.get("correct")) and code == 0 and not problems
    for p in problems:
        log("metric " + p)
    provenance = dict(result.get("provenance", {}))
    provenance.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": len(os.sched_getaffinity(0)),
        "ops": result.get("attempted"),
    })
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    metrics = {}
    for m in wanted:
        entry = result.get("metrics", {}).get(m["name"])
        if entry is not None:
            metrics[m["name"]] = {"value": entry.get("value"), "unit": entry.get("unit")}
    failed = int(result.get("failed", 0))
    if not correct and failed == 0:
        failed = 1  # a failed check with no operation to blame
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.get("attempted", 0)),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def smoke(spec):
    failures = []
    listed = [w["name"] for w in spec["workloads"]]
    # serve_tcp_open runs in the driver but is not listed (see README.md).
    for workload in listed + [w for w in DRIVER_ONLY if w not in listed]:
        for trace in (0, 1):
            code, result = run_driver(["--workload", workload, "--seed", "11",
                                       "--seconds", "1", "--trace", str(trace),
                                       "--smoke"])
            label = "%s trace=%d" % (workload, trace)
            if result is None or code != 0 or not result.get("correct"):
                failures.append(label + ": run failed (exit %d)" % code)
                continue
            failures += [label + ": " + p for p in
                         metric_problems(result, expected_metrics(spec, trace))]
            log(label + ": ok, %d metrics" % len(result["metrics"]))
        code, result = run_driver(["--workload", workload, "--seed", "11",
                                   "--seconds", "1", "--trace", "0", "--smoke",
                                   "--corrupt-digest"])
        caught = code != 0 and result is not None and not result.get("correct") \
            and result.get("failed", 0) > 0
        if not caught:
            failures.append(workload + ": corrupted digest was not caught")
        else:
            log(workload + ": corrupted digest caught")
    for f in failures:
        log("SMOKE FAIL " + f)
    print(json.dumps({"smoke": "fail" if failures else "pass",
                      "failures": failures}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    return smoke(spec) if args.smoke else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
