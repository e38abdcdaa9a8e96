#!/usr/bin/env python3
"""Builds and runs the canvas benchmark.

    python3 perfbench/run.py --workload fleet-disk|serve-mix|certify-check \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds, in release mode, the benchmark package (perfbench/), the `canvas`
binary that serve-mix runs as its daemon, and the `eval` binary that checks
traced runs' Chrome traces, into $CARGO_TARGET_DIR (default .bench_build).
Then runs the benchmark from the repository root; its last stdout line is
the JSON result. Scratch files go to .bench_work/.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# measuring must end well inside the 180 s a run may take
RUN_TIMEOUT_S = 170


def main():
    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"run.py: {needed} not found in {ROOT}: not a canvas checkout\n")
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "canvas"],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "canvas-bench", "--bin", "eval"],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: " + " ".join(cmd) + "\n")
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--canvas", os.path.join(release, "canvas"),
        "--eval", os.path.join(release, "eval"),
        "--work", os.path.join(ROOT, ".bench_work"),
    ]
    # its own process group, so a timeout also stops the serve daemon
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
