#!/usr/bin/env python3
"""Service benchmark for the task-graph server.

Builds the `serve` binary and the load driver (perfbench/driver) from
source, then runs one workload:

    python3 perfbench/run.py --workload small_graphs --seed 1 --seconds 25 --trace 0

Run it from the root of the repository. Build output goes to
$CARGO_TARGET_DIR (default: .bench_build); the traced run writes its
per-graph spans under <target>/perfbench. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit code is the driver's: 0 when every check held, nonzero
otherwise, and nonzero without a result when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DRIVER_MANIFEST = ROOT / "perfbench" / "driver" / "Cargo.toml"
# One run must end within 180 s; the driver itself takes about
# 2 x --seconds plus a few seconds of replays when tracing.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both binaries; returns False if either build fails."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "tss-bench", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(DRIVER_MANIFEST)],
    ]
    for cmd in commands:
        # Cargo's output goes to stderr so the last stdout line stays the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    # Cargo reads a relative CARGO_TARGET_DIR against the working directory.
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if not build(env):
        return 1

    cmd = [
        str(target / "release" / "tss-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", str(target / "release" / "serve"),
        "--out-dir", str(target / "perfbench"),
    ]
    # A session of its own, so a timeout can stop the driver and the
    # serve processes it started together.
    driver = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return driver.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        print(f"error: the run did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
