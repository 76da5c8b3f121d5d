#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload signoff|fixloop --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); scratch
files and span traces go to `.bench_work`. Build messages go to standard
error; standard output is the benchmark's own, ending in one JSON line.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
        return 1
    bench = os.path.join(target, "release", "perfbench")
    os.execv(bench, [bench, *sys.argv[1:], "--work", ".bench_work"])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
