#!/usr/bin/env python3
"""End-to-end benchmark of the S3 shared-scan stack.

Run from the repository root:

    python3 e2ebench/run.py --workload wc_shared --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. Build output goes to <build>/e2ebench/build.log. The benchmark
binary prints its report and, as the last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. The exit code is non-zero
when the sources are missing, the build fails, or any output is wrong.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wc_shared", "tpch_stream", "s3d_storm")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def fail(message, code):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build():
    """Builds the benchmark binary and returns its path (exits on failure)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources (src/) next to e2ebench/", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("configure failed, see " + log, 3)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if run_logged(["cmake", "--build", out, "--target", "s3_e2ebench",
                   "-j", jobs], log) != 0:
        fail("build failed, see " + log, 3)
    return os.path.join(out, "s3_e2ebench")


def source_version():
    """git HEAD when the checkout is a git repository, else a digest of the
    sources the binary is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", source_version()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
