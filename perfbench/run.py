#!/usr/bin/env python3
"""Build walshcheck and the benchmark harness, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a walshcheck checkout. Builds the `walshcheck` binary
and `perfbench` (a package of its own under perfbench/) in release mode
into $CARGO_TARGET_DIR (default .bench_build), then runs the harness, whose
last line of output is the result object. Exits nonzero, without a result,
when the checkout holds no walshcheck sources to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr so stdout carries only the results.
    return subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target),
                          stdout=sys.stderr).returncode == 0


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not (os.path.isfile(root_manifest) and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("run.py: no walshcheck sources to build next to perfbench/", file=sys.stderr)
        return 2
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not build(target, root_manifest, "--bin", "walshcheck"):
        print("run.py: building walshcheck failed", file=sys.stderr)
        return 2
    if not build(target, os.path.join(HERE, "Cargo.toml")):
        print("run.py: building perfbench failed", file=sys.stderr)
        return 2
    harness = os.path.join(target, "release", "perfbench")
    walshcheck = os.path.join(target, "release", "walshcheck")
    work = os.path.join(target, "perfbench-work")
    cmd = [harness, *sys.argv[1:], "--walshcheck", walshcheck, "--work", work, "--root", ROOT]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
