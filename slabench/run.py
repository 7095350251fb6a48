#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 slabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The executable is built with dune
into .bench_build/ (release profile); its last line of standard output
is the result object. Exits non-zero, printing no result, when the
build or the run fails.
"""
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "slabench", "main.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("slabench: run from the repository root\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./slabench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("slabench: build failed\n")
        return 1
    # Its own session, so the daemon it may start goes down with it.
    run = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                           start_new_session=True)
    try:
        out, _ = run.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(run.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    run.wait()
    if out is None or run.returncode != 0:
        sys.stderr.write("slabench: run failed or timed out\n")
        return 1
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
