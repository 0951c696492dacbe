#!/usr/bin/env python3
"""End-to-end benchmark of the vbatt pipeline.

Run from the repository root:

    python3 e2ebench/run.py --workload schedule_mip --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The first call builds the libraries and the benchmark binary from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the repository
root; later calls only re-run the incremental build. The binary prints a
human-readable report and, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. The exit code is non-zero
when the build fails, an output check fails or the run errors.

--self-test runs every workload at a tiny size, checks that the metric
names and units printed match BENCHMARK.json and predictions.json, and
that a deliberately corrupted output is reported as incorrect.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_root() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build() -> Path:
    """Configure (once) and build the benchmark binary; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no vbatt sources at %s" % (ROOT / "src"))
    out = build_root() / "e2ebench"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "vbatt_e2e"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit("e2ebench: build failed: %s" % " ".join(cmd))
    return out / "vbatt_e2e"


def bench_cmd(binary: Path, workload: str, seed: int, seconds: float,
               trace: int, extra=()) -> list:
    scratch = build_root() / "runs" / workload
    shutil.rmtree(scratch, ignore_errors=True)
    return [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", str(scratch), *extra]


def run_captured(cmd: list):
    """Run the benchmark binary; return (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode, None


def check_result(result, declared: dict, label: str) -> list:
    if result is None:
        return ["%s: no JSON result line" % label]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (label, sorted(result)))
        return problems
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(printed) & set(declared)
                       if printed[n] != declared[n])
        problems.append("%s: metrics differ from BENCHMARK.json (missing %s,"
                        " undeclared %s, wrong unit %s)"
                        % (label, missing, extra, wrong))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted must be an integer >= 1" % label)
    return problems


def self_test(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []

    predictions = json.loads((PACKAGE / "predictions.json").read_text())
    for p in predictions["predictions"]:
        for name in p["metrics"]:
            if name not in per_layer:
                problems.append("predictions.json: unknown metric " + name)
        if p["moves"] not in end_to_end and p["moves"] not in per_layer \
                and p["moves"] not in ("failed", "none"):
            problems.append("predictions.json: unknown e2e " + p["moves"])
        for w in p["workloads"]:
            if w not in workloads:
                problems.append("predictions.json: unknown workload " + w)

    for workload in workloads:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = "%s trace=%d" % (workload, trace)
            code, result = run_captured(
                bench_cmd(binary, workload, 1, 0.5, trace, ["--tiny"]))
            problems += check_result(result, declared, label)
            if code != 0 or not result or not result["correct"] \
                    or result["failed"] != 0:
                problems.append("%s: clean run failed (exit %d)"
                                % (label, code))
            if trace == 0 and result:
                zero = [n for n, m in result["metrics"].items()
                        if not m["value"] > 0]
                if zero:
                    problems.append("%s: non-positive %s" % (label, zero))
        label = "%s --corrupt" % workload
        code, result = run_captured(
            bench_cmd(binary, workload, 1, 0.5, 0, ["--tiny", "--corrupt"]))
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            problems.append("%s: corrupted output was not caught" % label)
        print("self-test %-12s %s" % (workload, "done"))

    for p in problems:
        print("FAIL:", p)
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    cmd = bench_cmd(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
