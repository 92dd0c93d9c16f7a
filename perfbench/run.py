#!/usr/bin/env python3
"""Build and run the simulator benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The harness is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use. The last line of stdout is the harness's JSON result; build
output goes to a log file and, on failure, to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["scenarios_cycle", "field_2500", "lifetime_metered"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure and build snapbench; return its path or exit 1."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(bdir)  # configured for another source tree
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", bdir, "--target", "snapbench", "-j", jobs]
    with open(log_path, "w") as log:
        for cmd in (configure, compile_):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)
    return os.path.join(bdir, "snapbench")


def harness_cmd(exe, workload, seed, seconds, trace, plant=False):
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", ROOT, "--spans-dir", spans]
    return cmd + (["--plant-fault"] if plant else [])


def selftest(exe):
    """Plant a mutated reference in every workload; each must fail an op."""
    ok = True
    cases = [(w, 0) for w in WORKLOADS] + [("scenarios_cycle", 7)]
    for workload, seed in cases:
        res = subprocess.run(harness_cmd(exe, workload, seed, 1, 0, plant=True),
                             capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if res.returncode == 0 and lines else None
        caught = bool(result) and not result["correct"] and result["failed"] > 0
        print("%-18s seed %d: %s" % (workload, seed,
              "planted fault caught (%d of %d ops failed)" % (result["failed"], result["attempted"])
              if caught else "planted fault NOT caught"))
        ok = ok and caught
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    if a.seed < 0:
        p.error("--seed must be non-negative")
    exe = build()
    if a.selftest:
        return selftest(exe)
    return subprocess.run(harness_cmd(exe, a.workload, a.seed, a.seconds, a.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
