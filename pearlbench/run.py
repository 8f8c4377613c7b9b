#!/usr/bin/env python3
"""Build the PEARL benchmark program from source, then run it.

    python3 pearlbench/run.py --workload <paper16_ml|scale128_hub|sweep_fig9> \
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run from the root of a checkout.  The program is configured and built
in Release mode under .bench_build/pearlbench; a rebuild is
incremental.  Build output goes to stderr, so the last line of stdout
is the program's JSON result.  Exits non-zero without a result when
the build fails, e.g. outside a full checkout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configure (first time) and build; return the program's path."""
    out = os.path.join(ROOT, ".bench_build", "pearlbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    exe = os.path.join(out, "pearlbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    exe = build()
    if exe is None:
        print("pearlbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
