#!/usr/bin/env python3
"""Builds the library and the benchmark program (bixbench) from source, runs
one workload and prints its result as the last line of standard output.

    python3 perfbench/run.py --workload cold_sorted --seed 7 --seconds 15 --trace 0

Run it from the repository root (or anywhere: paths resolve against the
directory above this file).  The build goes to $CARGO_TARGET_DIR when set,
otherwise to .bench_build/ at the repository root; index directories are
written under <build>/work/ and removed afterwards; a traced run (--trace 1)
writes its Chrome trace under <build>/traces/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: every end_to_end metric of BENCHMARK.json with --trace 0,
every per_layer metric with --trace 1.  Any build failure, oracle mismatch
or malformed result exits non-zero without printing a result.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_digest():
    """sha256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, ROOT).encode())
                with open(full, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; fails on error or timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if rc != 0:
        fail(f"{' '.join(cmd)} exited with {rc}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, timeout=300)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_checked(["cmake", "--build", build_dir, "--target", "bixbench",
                 "-j", jobs], timeout=840)
    binary = os.path.join(build_dir, "bixbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def check_result(result, spec, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        fail(f"result keys {sorted(result)} != {sorted(keys)}")
    if result["correct"] is not True:
        fail("result reports incorrect output")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int):
            fail(f"{k} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{m['name']}: value {value!r} is not a finite number")
        if not trace and value == 0:
            fail(f"end-to-end metric {m['name']} is 0")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=1000000)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rows", str(args.rows), "--work-dir", work_dir, "--git-sha", git_sha(),
           "--src-digest", source_digest()]
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            build_dir, "traces", f"{args.workload}-{args.seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)),
                    exist_ok=True)
        cmd += ["--trace-out", trace_out]

    # Stop the child on SIGTERM too, and always wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")

    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    check_result(result, spec, bool(args.trace))
    if args.trace:
        print(f"run.py: trace written to {trace_out}", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
