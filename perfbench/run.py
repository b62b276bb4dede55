#!/usr/bin/env python3
"""Build the benchmark and the slocal binary from source, then run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload re-seq --seed 1 --seconds 20 --trace 0

Arguments go to perfbench/bench.exe unchanged (see README.md here).  The
build uses dune's usual _build/ directory.  The benchmark's output is
passed through, so the last line of stdout is its JSON result, and the
exit code is the benchmark's: non-zero when the build fails or when any
output is wrong.  The benchmark runs in its own process group, which is
killed afterwards, so no serve daemon outlives a crashed run.
"""

import os
import signal
import subprocess
import sys
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SLOCAL = os.path.join("_build", "default", "bin", "slocal.exe")


def stop_group(bench):
    """Kill what is left of the benchmark's process group, wait for it."""
    pgid = bench.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    bench.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv):
    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/slocal.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, SLOCAL_LEDGER="off")
    bench = subprocess.Popen([BENCH, "--slocal", SLOCAL] + argv, env=env,
                             start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return bench.wait()
    finally:
        stop_group(bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
