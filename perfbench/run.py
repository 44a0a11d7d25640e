#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload auth_warm --seed 1 --seconds 20 --trace 0

Builds the project libraries and the `perfbench` load generator from source
into `$CARGO_TARGET_DIR/perfbench/<key>` (default
`.bench_build/perfbench/<key>`), then runs one workload.  The key hashes the
checkout's path and every build input (`src/`, `perfbench/src/`,
`perfbench/CMakeLists.txt`), so two checkouts, or two versions of one, never
share a build or the fabricated-blob cache kept next to it.  Build output goes to a log file and
stderr; the last line on stdout is the result object printed by the binary.

Exit codes: 0 ok, 1 the run itself failed, 2 bad arguments or the project
sources are missing, 3 the build failed.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("auth_warm", "fleet_mixed", "enroll_n64")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_key():
    """Hash of the checkout's path and every file the build reads."""
    paths = [os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    h = hashlib.sha256(ROOT.encode() + b"\0")
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench", source_key())


def build(out_dir):
    """Configure once, then an incremental build (a no-op when current)."""
    os.makedirs(out_dir, exist_ok=True)
    build_log = os.path.join(out_dir, "build.log")
    cmake_dir = os.path.join(out_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(build_log, "a") as out:
        for cmd in steps:
            out.write("$ " + " ".join(cmd) + "\n")
            out.flush()
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log(f"build failed; full log in {build_log}")
                return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"project sources not found under {ROOT}/src; nothing to build")
        return 2

    out_dir = build_root()
    binary = build(out_dir)
    if binary is None:
        return 3

    work_dir = os.path.join(out_dir, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--cache-dir", os.path.join(out_dir, "fixtures"),
           "--trace-dir", os.path.join(out_dir, "traces")]
    try:
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
