#!/usr/bin/env python3
"""Build the fibersim benchmark from source and run one workload.

    python3 fsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a fibersim checkout. The first call configures and
builds fsbench/ (which compiles ../src) into .bench_build/fsbench with CMake;
later calls only rebuild what changed. Build output goes to stderr, so the
last stdout line is the driver's JSON result. --trace 1 runs the traced
driver, which reports per-layer metrics instead of end-to-end ones.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fsbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "fsbench", "fsbench_traced"],
                   check=True, stdout=sys.stderr)


def main():
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fsbench: build failed: {e}", file=sys.stderr)
        return 1
    driver = os.path.join(BUILD, "fsbench_traced" if traced else "fsbench")
    return subprocess.run([driver] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
