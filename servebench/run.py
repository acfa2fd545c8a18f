#!/usr/bin/env python3
"""Build and run the open-loop CALLOC serving benchmark.

Usage, from the repository root:

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--slow-predict-us <us>]

On first use this configures and builds servebench/ (which builds the
repository's libraries from source) into .bench_build/servebench; later
runs only check the build is up to date. Build output goes to standard
error. Every argument is passed to serve_bench, which writes its scratch
files (staged weights, the trace file of a --trace 1 run) under
.bench_build/run. The last line of standard output is the result JSON.

Exit status: serve_bench's own (0 = every answer correct), or 1 when the
build fails or the run exceeds its time limit.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    out = os.path.join(BUILD, "servebench")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    ninja = shutil.which("ninja")
    generated = os.path.join(out, "build.ninja" if ninja else "Makefile")
    if not os.path.exists(generated):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if ninja:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(out, "serve_bench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + ["--scratch", os.path.join(BUILD, "run")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
