#!/usr/bin/env python3
"""Build and run OWN-Sim's benchmark (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the simulator
from src/) into .bench_build/perfbench with CMake, then runs ownbench with the
recorded reference digests. ownbench's last stdout line is the result object;
with --trace 1 the spans are written to .bench_build/perfbench/spans-*.json.
Exits nonzero, without a result line, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
# Must exit within 180 s; ownbench stops itself after --seconds plus one run.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD, "ownbench")


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else "x"


def main(argv):
    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 1
    spans = os.path.join(BUILD, "spans-%s-seed%s.json" % (
        option(argv, "--workload"), option(argv, "--seed")))
    cmd = [binary] + argv + ["--references",
                             os.path.join("perfbench", "references.txt"),
                             "--spans-out", spans]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: ownbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
