#!/usr/bin/env python3
"""Build and run the dvemig end-to-end benchmark (README.md in this directory).

    python3 dvebench/run.py --workload dve_lb --seed 1 --seconds 20 --trace 0
    python3 dvebench/run.py --workload all --seconds 20
    python3 dvebench/run.py --selftest

Run from the repository root. The benchmark is a CMake package of its own
(dvebench/CMakeLists.txt, which pulls the simulator sources from ../src); it is
built in Release into $CARGO_TARGET_DIR (default .bench_build) under
dvebench/, then the binary runs with the given arguments. Build output goes
to stderr, so the last line of stdout is the benchmark's result JSON. Each
run also writes its full report, with provenance and sim_digest, to
<build dir>/results/ for compare.py. The exit code is non-zero when the
build fails or a correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dve_lb", "conn_scale", "bulk_precopy"]


def build(build_dir):
    """Configure (once) and build the benchmark; return the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dvebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dvebench")


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def run(binary, build_dir, args):
    if "--selftest" not in args:
        results = os.path.join(build_dir, "results")
        os.makedirs(results, exist_ok=True)
        name = "%s_seed%s_trace%s.json" % (arg_value(args, "--workload", "none"),
                                           arg_value(args, "--seed", "1"),
                                           arg_value(args, "--trace", "0"))
        args = args + ["--out", os.path.join(results, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "dvebench")
    binary = build(build_dir)
    if arg_value(args, "--workload", None) != "all":
        return run(binary, build_dir, args)
    # --workload all: every workload in turn; non-zero if any check failed.
    at = args.index("--workload") + 1
    codes = [run(binary, build_dir, args[:at] + [name] + args[at + 1:])
             for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
