#!/usr/bin/env python3
"""Build and run the pwx end-to-end benchmark.

Usage (from the root of a pwx checkout):

    python3 pwxbench/run.py --workload <model_build|fleet_serve|corpus_refresh>
                            --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds pwxbench/ (which compiles the library
from src/) into .bench_build, or into $CARGO_TARGET_DIR when that is set;
later calls only rebuild what changed. The benchmark binary then runs from
the checkout root and its output is passed through: the last stdout line is
the result JSON. Build output goes to stderr. The exit code is the binary's,
or 2 when the checkout cannot be built.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "pwxbench")
WORKLOADS = ("model_build", "fleet_serve", "corpus_refresh")
BUILD_TIMEOUT_S = 600  # a fresh build takes about a minute on 4 cores
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("pwxbench: " + message + "\n")
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_checked(command, timeout):
    """Run a build step with its output on stderr; fail on error or timeout."""
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    except (subprocess.CalledProcessError, OSError) as error:
        fail("build step failed: %s" % error)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pwx sources next to pwxbench/ (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    start = time.monotonic()
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_checked(configure, BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    run_checked(["cmake", "--build", out_dir, "--target", "pwx_e2e_bench",
                 "--parallel", str(os.cpu_count() or 1)], remaining)
    return os.path.join(out_dir, "pwx_e2e_bench")


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of the
    sources the benchmark builds, so results name the code they measured."""
    revision = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (subprocess.SubprocessError, OSError):
            revision = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "pwxbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "git:%s src:%s" % (revision, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--perturb", default="",
                        help="corrupt one output before its check (tests only)")
    args = parser.parse_args()

    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--source-rev", source_revision()]
    if args.smoke:
        command.append("--smoke")
    if args.perturb:
        command += ["--perturb", args.perturb]

    # Idle OpenMP workers sleep instead of spinning, so the process CPU time
    # the end-to-end metrics are built on counts work, not waiting.
    env = dict(os.environ)
    env.setdefault("OMP_WAIT_POLICY", "PASSIVE")
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(completed.stdout.decode())
    sys.stdout.flush()
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
