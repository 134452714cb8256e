#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_measure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the mcs
libraries, the mcs-cli server and the benchmark binary) into
.bench_build/perfbench; later calls rebuild incrementally. The binary's
last stdout line is the result JSON, which this script passes through.
Span files and server logs go to .bench_build/perfbench-out.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_measure", "design_sweep", "serve_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, targets):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {root}")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(command):
    """Runs `command` in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    out_dir = root / ".bench_build" / "perfbench-out"
    targets = ["perfbench", "mcs-cli"] + (["perfbench_selftest"] if args.selftest else [])
    build(root, build_dir, targets)
    out_dir.mkdir(parents=True, exist_ok=True)
    server = str(build_dir / "mcs-cli")

    if args.selftest:
        code, out = run([str(build_dir / "perfbench_selftest"), "--server", server,
                         "--bench", str(build_dir / "perfbench"), "--out-dir", str(out_dir)])
        sys.stdout.write(out)
        sys.exit(code)

    code, out = run([str(build_dir / "perfbench"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", repr(args.seconds),
                     "--trace", str(args.trace), "--server", server,
                     "--out-dir", str(out_dir)])
    if code != 0:
        fail(f"{args.workload} exited with code {code}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
