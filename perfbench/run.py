#!/usr/bin/env python3
"""Served-path benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Builds bin/server.exe
and the benchmark (perfbench/bench.exe) from source with dune, then runs
the benchmark, which launches the server as a separate process.  The
last line of stdout is the benchmark's JSON result.  Everything it
writes stays inside the checkout: dune's _build/ and the scratch
directory .perfbench_run/.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/server.exe", "./perfbench/bench.exe"]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ["dune-project", "bin/server.ml", "perfbench/dune"]:
        if not os.path.isfile(need):
            fail("%s not found: run from the root of a full checkout" % need, 2)

    # No shared dune cache: the build must read and write only here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", 3)

    cmd = ["_build/default/perfbench/bench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", "_build/default/bin/server.exe",
           "--work", ".perfbench_run"]
    # Own process group, so a timeout also takes down the servers the
    # benchmark launched.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
