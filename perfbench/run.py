#!/usr/bin/env python3
"""Builds and runs the K-SPIN serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload bknn_ch --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/, then runs the serving_bench binary. Its standard output is
passed through; the last line is the JSON result. Extra flags after the
four standard ones (for example --oracle-delay-pct 20) go to the binary.
Build output goes to standard error. Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
BINARY = BUILD_DIR / "serving_bench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure until a build system exists (also after a failed configure).
    if not (BUILD_DIR / "Makefile").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                   "--target", "serving_bench"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def source_identity():
    """Git commit when available, plus a digest of the benchmarked sources."""
    commit = "none"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            commit = result.stdout.strip()[:12]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    if not build():
        log("build failed")
        return 1
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--run-dir", str(RUN_DIR),
               "--commit", source_identity(), *extra]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
