#!/usr/bin/env python3
"""Build and run the zktel end-to-end benchmark.

Run from the root of a zktel checkout:

  python3 perfbench/run.py --workload paper_window --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all               # every workload, default seed

The first call configures and builds perfbench/ (and the zktel libraries it
compiles from src/) into .bench_build/perfbench; later calls rebuild only
what changed. Each run first executes the benchmark's arithmetic self-test,
then the workload. The last line of standard output is the run's JSON
result; the exit status is 0 only when every check passed.

The shared thread pool gets one thread fewer than the CPUs the process may
run on (ZKT_POOL_THREADS, unless already set): a parallel_for runs on the
calling thread plus every pool thread, so this keeps the busy threads at or
below the CPU count instead of time-slicing five threads on four CPUs.

Exact repeat across runs: the workload writes the fingerprints of its first
rounds (cycles, SHA rows, touched entries, receipt bytes, Merkle roots) to
.bench_out/. They are kept per (workload, seed, binary); a later run of the
same binary and seed that produces different ones fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["paper_window", "steady_delta", "sharded_fold", "cold_audit"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    build_dir = root / ".bench_build" / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another source tree
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "zkt_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "zkt_perfbench"


def check_repeat(root, binary, workload, seed):
    """Compare this run's fingerprints with an earlier run of the same binary
    and seed. Returns an error message, or None."""
    out = root / ".bench_out"
    current = out / f"fingerprint-{workload}-{seed}.txt"
    if not current.exists():
        return "the run wrote no fingerprint file"
    key = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    kept = out / "repeat" / f"{workload}-{seed}-{key}.txt"
    if kept.exists():
        if kept.read_text() != current.read_text():
            return f"exact repeat: fingerprints differ from {kept}"
        return None
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(current, kept)
    return None


def bench_env():
    env = dict(os.environ)
    if "ZKT_POOL_THREADS" not in env:
        env["ZKT_POOL_THREADS"] = str(max(1, len(os.sched_getaffinity(0)) - 1))
    return env


def run_workload(root, binary, workload, seed, seconds, trace):
    """Run one workload and print its output; returns its exit status."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", ".bench_out"]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=bench_env())
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        log(proc.stdout)
        return 1
    status = proc.returncode
    miss = check_repeat(root, binary, workload, seed)
    if miss is not None:
        lines.insert(-1, f"MISS {miss}")
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1
        status = 1
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    root = Path.cwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1
    if subprocess.run([str(binary), "--self-test"], stdout=sys.stderr).returncode != 0:
        log("benchmark self-test failed")
        return 1

    workloads = WORKLOADS if args.all else [args.workload]
    status = 0
    for workload in workloads:
        code = run_workload(root, binary, workload, args.seed, args.seconds, args.trace)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
