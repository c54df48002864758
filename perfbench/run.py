#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-cm5 --seed 1 --seconds 10 --trace 0

Workloads: sim-cm5, sim-mr, serve-read, serve-write. The first run
in a fresh checkout configures and builds perfbench/CMakeLists.txt (the
resmatch libraries plus the harness) under .bench_build/; later runs only
re-check the build. Stdout carries a provenance line and, as its last
line, the result object {"correct", "attempted", "failed", "metrics"}.
Build output and diagnostics go to stderr. NOTES.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("sim-cm5", "sim-mr", "serve-read", "serve-write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the harness; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def source_id():
    """Git commit when available, else a digest of every built source."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def provenance():
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10)
            version = out.stdout.splitlines()[0] if out.stdout else ""
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    flags = " ".join(x for x in (cache_value("CMAKE_CXX_FLAGS"),
                                 cache_value("CMAKE_CXX_FLAGS_RELEASE")) if x)
    return {
        "source": source_id(),
        "compiler": version or compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "cxx_flags": flags,
        "cpu_model": cpu_model,
        "nproc": str(os.cpu_count()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        log("--seed must be >= 0 and --seconds in [1, 120]")
        return 2

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("resmatch sources (src/) not found next to perfbench/; "
            "run from a full checkout")
        return 2

    started = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1
    log("build checked in %.1f s" % (time.monotonic() - started))

    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK_DIR), ignore_errors=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        log("harness exited with code %d" % run.returncode)
        return 1

    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if not lines:
        log("harness printed nothing")
        return 1
    result = lines[-1]
    prov = provenance()
    for line in lines[:-1]:
        if line.startswith('{"provenance"'):
            prov.update(json.loads(line)["provenance"])
        else:
            print(line)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
