#!/usr/bin/env python3
"""Builds the benchmark harness and the vpr-serve daemon from source, then
runs one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval|sampled|serve --seed N \
        --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default perfbench/target). Build
output goes to standard error; the harness's last line of standard output
is the JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    for extra in ([], ["-p", "vpr-serve", "--bin", "vpr-serve"]):
        done = subprocess.run(build + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(done.returncode or 1)
    harness = os.path.join(target, "release", "vpr-perfbench")
    serve = os.path.join(target, "release", "vpr-serve")
    sys.stdout.flush()
    os.execv(harness, [harness] + sys.argv[1:] + ["--serve-bin", serve])


if __name__ == "__main__":
    main()
