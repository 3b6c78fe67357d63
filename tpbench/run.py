#!/usr/bin/env python3
"""Benchmark entry point: builds torusplace and tp_bench from this
checkout, then runs tp_bench with the given arguments.

    python3 tpbench/run.py --workload W --seed S --seconds N --trace 0|1

The build goes to .bench_build/ at the repository root (configured once,
then incremental).  Build output goes to stderr so that tp_bench's result
line stays the last line of stdout.  Exits 2 without building when the
torusplace sources are not next to the benchmark.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout.
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "tp_bench",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: no torusplace sources at %s\n" % ROOT)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 2
    tp_bench = os.path.join(BUILD, "tp_bench")
    work = os.path.join(BUILD, "work")
    sys.stdout.flush()
    os.execv(tp_bench, [tp_bench, "--work-dir", work] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
