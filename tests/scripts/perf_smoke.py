#!/usr/bin/env python3
"""Perf smoke: run the small cells of the solver and fleet benches and the
service bench, and fail on a >50% wall-clock regression against the
checked-in baselines.

Usage: perf_smoke.py <bench_solver> <bench_scale_dcsim> <bench_svc> <repo_root>

Opt-in (ctest -L perf), not part of the default suite: wall-clock
comparisons only mean something on a quiet host. The gate is deliberately
loose — best-of-two runs per bench, 1.5x on cells whose baseline is big
enough to measure — so it catches an accidental O(n) -> O(n^2) or a
dropped fast path, not scheduler jitter (single-shot sub-10ms cells swing
~1.4x run-to-run on a 1-core host). Baselines are refreshed by the verify
flow whenever the benches change, so a legitimate perf shift lands
together with new JSONs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 1.5  # fail when best-of-two current > baseline * this
MIN_BASELINE_MS = 2.0  # skip sub-noise cells
RUNS = 2  # per-field min over this many bench runs


def run_bench(argv):
    print("+", " ".join(str(a) for a in argv), flush=True)
    proc = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {argv[0]} exited {proc.returncode}")


def load(path):
    with open(path) as f:
        return json.load(f)


def best_of(runs, key_fields, ms_fields):
    """Collapse repeated sweeps to one row per cell with the per-field min —
    the cleanest draw is the closest to the machine's actual capability."""
    merged = {}
    for rows in runs:
        for row in rows:
            key = tuple(row[k] for k in key_fields)
            best = merged.setdefault(key, dict(row))
            for field in ms_fields:
                if field in row and field in best:
                    best[field] = min(best[field], row[field])
    return list(merged.values())


def compare(label, baseline_rows, current_rows, key_fields, ms_fields):
    """Yield (cell, field, baseline, current) regressions on cells present
    in both sweeps."""
    baseline_by_key = {
        tuple(row[k] for k in key_fields): row for row in baseline_rows
    }
    regressions = []
    compared = 0
    for row in current_rows:
        key = tuple(row[k] for k in key_fields)
        base = baseline_by_key.get(key)
        if base is None:
            continue
        for field in ms_fields:
            want = base.get(field)
            got = row.get(field)
            if want is None or got is None or want < MIN_BASELINE_MS:
                continue
            compared += 1
            if got > want * TOLERANCE:
                regressions.append((label, key, field, want, got))
    print(f"{label}: compared {compared} timing(s) across "
          f"{len(current_rows)} cell(s)")
    return regressions


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    bench_solver, bench_fleet, bench_svc, repo_root = sys.argv[1:5]
    repo = Path(repo_root)

    solver_keys = ("sites", "k", "horizon_hours")
    solver_fields = ("ref_ms", "revised_ms", "decomposed_ms",
                     "build_first_ms", "build_steady_ms", "solve_steady_ms")
    # "scenario" splits the base cells from the mixed_econ ones (batch
    # overlay + price/carbon metering) at the same site count.
    fleet_keys = ("sites", "scenario")
    # setup_ms: fleet generation + VbGraph build (forecasts) per cell.
    fleet_fields = ("setup_ms", "fleet_serial_ms")
    # ingest_ms: the full streamed run per policy, log and snapshots
    # included (decode/apply/log/snapshot write path).
    svc_keys = ("policy",)
    svc_fields = ("ingest_ms",)

    with tempfile.TemporaryDirectory(prefix="perf_smoke_") as tmp:
        solver_runs, fleet_runs, svc_runs = [], [], []
        # Small cells only: the full sweeps are minutes; the smoke is
        # seconds. --max-sites/--fleet-max-sites keep cell identity intact
        # (same seeds per cell), so rows join 1:1 with the baselines.
        for i in range(RUNS):
            solver_json = Path(tmp) / f"solver{i}.json"
            fleet_json = Path(tmp) / f"fleet{i}.json"
            svc_json = Path(tmp) / f"svc{i}.json"
            run_bench([bench_solver, "--max-sites", "25",
                       "--json", solver_json])
            run_bench([bench_fleet, "--fleet", "--fleet-max-sites", "50",
                       "--json", fleet_json])
            run_bench([bench_svc, "--json", svc_json])
            solver_runs.append(load(solver_json)["results"])
            fleet_runs.append(load(fleet_json)["results"])
            svc_runs.append(load(svc_json)["results"])

        regressions = []
        regressions += compare(
            "solver", load(repo / "BENCH_solver.json")["results"],
            best_of(solver_runs, solver_keys, solver_fields),
            solver_keys, solver_fields)
        regressions += compare(
            "fleet", load(repo / "BENCH_fleet.json")["results"],
            best_of(fleet_runs, fleet_keys, fleet_fields),
            fleet_keys, fleet_fields)
        regressions += compare(
            "svc", load(repo / "BENCH_svc.json")["results"],
            best_of(svc_runs, svc_keys, svc_fields),
            svc_keys, svc_fields)

    if regressions:
        for label, key, field, want, got in regressions:
            print(f"FAIL: {label} cell {key} {field}: {got:.2f} ms vs "
                  f"baseline {want:.2f} ms "
                  f"({got / want:.2f}x > {TOLERANCE}x)")
        sys.exit(1)
    print("perf smoke OK")


if __name__ == "__main__":
    main()
