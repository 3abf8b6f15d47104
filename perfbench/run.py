#!/usr/bin/env python3
"""Build the graphio load generator from source and run one workload.

Run from the root of a graphio checkout:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

The build goes to dune's usual _build directory; build output goes to
stderr, so the last line of stdout is the generator's JSON result.  The
exit code is non-zero when the build or the run fails.
"""
import os
import subprocess
import sys

TARGETS = ["./perfbench/main.exe", "./bin/graphio.exe"]


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    graphio = os.path.join("_build", "default", "bin", "graphio.exe")
    return subprocess.run([exe, "--graphio", graphio] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
