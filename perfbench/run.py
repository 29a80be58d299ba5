#!/usr/bin/env python3
"""Builds the BAPS end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload peer_share --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench (configured once, rebuilt
incrementally). Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result if the build
fails, the arguments are wrong or the set-up fails; with status 1 after the
result if an output check failed.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "baps_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no baps sources at src/ — run from a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "baps_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if len(sys.argv) == 1 or sys.argv[1] in ("-h", "--help"):
        sys.exit(__doc__)
    build()
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    # The benchmark validates its own arguments.
    cmd = [BINARY] + sys.argv[1:] + ["--scratch", scratch]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
