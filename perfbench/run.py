#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload leo256 --seed 1 --seconds 10 --trace 0

The driver is configured with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and rebuilt incrementally on every call;
build output goes to stderr. The driver's stdout is passed through, and its
last line, the JSON result, is checked against BENCHMARK.json's metric names.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build tree, should two runs overlap.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                       stdout=sys.stderr)
    return out / "perfbench_driver"


def expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(expected.items())}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
