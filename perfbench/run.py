#!/usr/bin/env python3
"""Builds qsnc and the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 45 --trace 0

Both release builds go to $CARGO_TARGET_DIR (default: .bench_build at the
checkout root). Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The benchmark runs in its own process group:
on a timeout the whole group, including any `qsnc serve` child, is killed
and reaped before this script exits non-zero.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "qsnc"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print(f"no Cargo.toml at {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not build(env):
        return 2
    bench = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([bench, *sys.argv[1:]], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
