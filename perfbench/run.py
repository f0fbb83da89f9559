#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark and the serve daemon
with dune into .bench_build, runs the benchmark with its outputs under
.bench_out, and passes its result line through: the last line of
standard output is one JSON object. Exits non-zero, without a result,
when the tree is not a ConAir checkout or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["pipeline", "campaign", "repair", "serve"]
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
# a run must end within 180 s; building happens before this clock
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    needed = ["dune-project", "lib/core/conair.ml", "bin/conair_serve.ml", "perfbench/dune"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail(f"not a ConAir checkout (missing {', '.join(missing)}); run from the repo root", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/bench.exe", "./bin/conair_serve.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet"] + targets,
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    serve = os.path.join(BUILD_DIR, "default", "bin", "conair_serve.exe")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-exe", serve,
        "--out-dir", OUT_DIR,
    ]
    # a session of its own, so a timeout can stop the daemon child too
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc)
    if code is None:
        fail(f"timed out after {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


def stop_group(proc):
    """Kill whatever is left of the benchmark's process group (a daemon
    orphaned by a crash) and wait until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
