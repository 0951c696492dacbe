#!/bin/sh
# CLI golden bytes: `vbatt schedule --days=7` for each MIP flow, for a
# VM-level MIP run on the mixed workload under the cost objective (batch
# overlay, price metering and planned moves through the fleet engine), and
# for five chaos runs (a seeded MIP schedule, a seeded VM-level greedy
# schedule, a replayed CSV schedule, tests/golden/chaos_7d.csv, and two
# MIP-24h runs whose blocked moves are retried, one app-level and one
# VM-level), must print exactly the stdout checked in under tests/golden/. Unlike
# cli_thread_invariance, which compares two thread counts of one build,
# this pins the output across commits, so a refactor that claims to keep
# behaviour has to keep every byte.
#
# A solver change may legitimately move the optimal vertex (and so these
# bytes) without changing any objective. Re-capture the goldens only after
# checking that every MIP objective still matches the solver/reference/
# oracle within 1e-6 (test_solver_objectives, the solver fuzz suite), and
# say in the change log why the vertex moved:
#
#   vbatt schedule --policy=mip --days=7 > tests/golden/schedule_7d_mip.out
#
# Usage: cli_golden.sh <vbatt-binary> <golden-dir>
set -u

vbatt="$1"
golden="$2"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

status=0
# check <name> <flags...>: compare `vbatt schedule <flags> --days=7` with
# golden/schedule_7d_<name>.out.
check() {
  name="$1"
  shift
  out="$tmpdir/$name.out"
  "$vbatt" schedule "$@" --days=7 >"$out" || {
    echo "FAIL: vbatt schedule $* --days=7 exited non-zero" >&2
    status=1
    return
  }
  if cmp -s "$golden/schedule_7d_$name.out" "$out"; then
    echo "OK: vbatt schedule $* --days=7"
  else
    diff "$golden/schedule_7d_$name.out" "$out" >&2
    echo "FAIL: vbatt schedule $* --days=7 differs from the golden" >&2
    status=1
  fi
}

check mip --policy=mip
check mip24h --policy=mip24h
check mippeak --policy=mippeak
check cost --objective=cost
check carbon --objective=carbon
check mip_vm_mixed_cost --policy=mip --vm-level --workload=mixed \
    --objective=cost
check mip_chaos --policy=mip --chaos=1
check greedy_vm_chaos --policy=greedy --vm-level --chaos=2 --chaos-seed=3
check mip24h_chaos_csv --policy=mip24h --chaos-csv="$golden/chaos_7d.csv" \
    --chaos-seed=5
check mip24h_chaos3 --policy=mip24h --chaos=3
check mip24h_vm_chaos --policy=mip24h --vm-level --chaos=2
exit $status
