#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-raw|daemon --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default: perfbench/target). Build
output goes to standard error; the benchmark's own standard output, whose last
line is the JSON result, passes through unchanged. The full result set of the
run is written under <target dir>/perfbench-results/. The exit code is the
build's when it fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench-results")
    return subprocess.run([exe, *sys.argv[1:], "--out", out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
