#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <grid-latency|grid-zero-latency|serve-zipf> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library sources under src/. It is built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line of
standard output is the result object printed by the benchmark binary. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(source_dir, build_dir, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "rumr_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        return None
    binary = os.path.join(build_dir, "rumr_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid-latency", "grid-zero-latency", "serve-zipf"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")

    # Compiler temporaries go inside the build tree, not the system's /tmp.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    binary = build(source_dir, build_dir, env)
    if binary is None:
        log("build failed; no result")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(build_dir, f"spans-{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; no result")
        return 1
    if run.returncode != 0:
        log(f"benchmark exited with code {run.returncode}; no result")
        sys.stderr.write(run.stdout)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
