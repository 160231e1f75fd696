#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload thermal-solve --seed 3 --trace 0
    python3 e2ebench/run.py --smoke

The first call configures and builds e2ebench/ (the solver libraries from
src/ plus the e2e_bench program) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the JSON result of e2e_bench.
Arguments after the script name are passed to e2e_bench unchanged.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
        stdout=log, check=True)
    return os.path.join(build_dir, "e2e_bench")


def main():
    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # A SIGTERM to this script also stops e2e_bench before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
