#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]

Run it from the repository root. It configures perfbench/ in Release
against the root project's incll library, builds it into .bench_build/,
runs the workload and passes the report through; the last line of its
output is the result JSON. It exits non-zero without printing a result
when the repository sources are missing, the build fails or the run
fails. Workloads: ycsb_a_zipf, scan_range, wire_point, crash_recover.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "incll_perfbench")
# A run ends well inside the three minutes a run may take; the build
# before the first run is timed separately.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 of the sources the binary is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    """HEAD when ROOT is the top of a git checkout, plus a digest of the
    sources (all there is in an exported tree)."""
    sha = "no-git"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            sha = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return f"{sha} sources:{source_digest()}"


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing from {ROOT}; the benchmark builds the "
                 "repository's incll library from source")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD, "--target", "incll_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = done.returncode == 0 and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(done.stdout)
        fail(f"run failed (exit code {done.returncode})")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
