#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --reference [--seed <n>]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental. Build output goes to stderr; the program's
standard output is passed through, so its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A generous ceiling: a workload run ends within its --seconds plus set-up.
RUN_TIMEOUT_S = 170


def build(build_dir):
    # Configure every time (quick once cached), so a configure that failed
    # earlier in this build directory is retried rather than left broken.
    generator = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "twrs_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "twrs_perfbench")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
