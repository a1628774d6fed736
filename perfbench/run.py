#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload oneshot_cq --seed 1 --seconds 20 --trace 0

Run from the root of the repository. The build goes to .bench_build/perfbench
(configured once, then brought up to date on every run); its output goes to
stderr so that the driver's JSON result stays the last line of stdout. Exits
non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGET = "pqe_perfbench"


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", TARGET, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, TARGET)


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
