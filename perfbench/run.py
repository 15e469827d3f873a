#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.exe with dune into .bench_build/, then runs it
with the same arguments. The last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics.
Everything the build and the run write (dune's build tree, the C
compiler's temporary files and the native kernels) stays under
.bench_build/ in the checkout.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")

    # dune's progress output goes to stderr; stdout carries only the result.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
        timeout=850,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    # The run is pinned to one core: the service's worker, the client
    # loop, the C compilers and the reference job (see perfbench.ml) then
    # all run where the reference job is timed.
    core = max(os.sched_getaffinity(0))
    run = subprocess.run(
        [
            os.path.join(root, EXE),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
        timeout=170,
        preexec_fn=lambda: os.sched_setaffinity(0, {core}),
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
