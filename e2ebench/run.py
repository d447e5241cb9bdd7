#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository sources.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload <bringup|vm-churn|rack-maintenance>
                            --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

The first call configures and compiles `e2ebench/` (which compiles the
library sources under `src/`) into `$CARGO_TARGET_DIR/e2ebench`, default
`.bench_build/e2ebench`; later calls only rebuild what changed. The first
run after each build executes the benchmark's self-test (fixed inputs, so
once per binary is enough), then the workload. Build output
goes to standard error; the workload's standard output is passed through,
so its last line is the JSON verdict. Traced runs write their spans to
`<build dir>/traces/`.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # self-test and workload together
SELF_TEST_STAMP = ".self-test-passed"


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, what, stdout=sys.stderr):
    # A session of its own, so a timeout can stop the child's whole process
    # group (the compilers under cmake --build included) before exiting.
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} exceeded {timeout} s")


def build(root, build_dir):
    if not os.path.isdir(os.path.join(root, "src")):
        fail(f"no library sources at {os.path.join(root, 'src')}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_checked(
            ["cmake", "-S", os.path.join(root, "e2ebench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, "configure")
        if code != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_checked(["cmake", "--build", build_dir, "-j", jobs],
                       BUILD_TIMEOUT_S, "build")
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "e2ebench")
    binary = build(root, build_dir)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    stamp = os.path.join(build_dir, SELF_TEST_STAMP)
    if (args.self_test or not os.path.isfile(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(binary)):
        code = run_checked([binary, "--self-test"], RUN_TIMEOUT_S, "self-test")
        if code != 0:
            sys.exit(code)
        with open(stamp, "w"):
            pass
        if args.self_test:
            sys.exit(0)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    left = max(1.0, deadline - time.monotonic())
    sys.exit(run_checked(cmd, left, "workload", stdout=None))


if __name__ == "__main__":
    main()
