#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds the
library and the `perfbench` program (perfbench/CMakeLists.txt) into
`$CARGO_TARGET_DIR` (default `.bench_build`); later calls only rebuild what
changed. Build output goes to `<build dir>/build.log`, never to standard
output, so the benchmark's result line stays the last line printed. Every
argument is passed through to the `perfbench` program; see
perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root: str, build_dir: str) -> str:
    source = os.path.join(root, "perfbench")
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} missing at {root}: the benchmark builds the library "
                 "from the repository sources")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", source, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step = subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if step.returncode != 0:
                fail(f"configure failed, see {log_path}")
        step = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
             str(os.cpu_count() or 1)],
            stdout=log, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        if step.returncode != 0:
            fail(f"build failed, see {log_path}")
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)
    args = [binary, *sys.argv[1:]]
    if "--out" not in args:
        args += ["--out", os.path.join(build_dir, "out")]
    try:
        return subprocess.run(args, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
