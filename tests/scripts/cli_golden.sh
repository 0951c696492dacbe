#!/bin/sh
# CLI golden bytes, in three parts (each its own ctest entry):
#
#   schedule  `vbatt schedule --days=7` for each MIP flow, greedy and
#             replication, the peak objective, a deadline batch overlay, a
#             VM-level MIP run on the mixed workload under the cost
#             objective, a greedy VM-level harvest run that sets every
#             shared scenario flag, and five chaos runs (a seeded MIP
#             schedule, a seeded VM-level greedy schedule, a replayed CSV
#             schedule, tests/golden/chaos_7d.csv, and two MIP-24h runs
#             whose blocked moves are retried, one app-level and one
#             VM-level) must print exactly the stdout checked in under
#             tests/golden/.
#   svc       a 2-day `vbatt_svc` MIP-24h chaos run with a batch overlay
#             and heartbeats must write the --state-out snapshot whose
#             `cksum` is tests/golden/svc_2d_mip24h_state.cksum (its stdout
#             carries wall-clock replan latencies, so the state file is
#             pinned instead).
#   reject    negative, non-finite or zero-day scenario flags must exit 2
#             and name the flag on stderr.
#
# Unlike cli_thread_invariance, which compares two thread counts of one
# build, this pins the output across commits, so a refactor that claims to
# keep behaviour has to keep every byte.
#
# A solver change may legitimately move the optimal vertex (and so these
# bytes) without changing any objective. Re-capture the goldens only after
# checking that every MIP objective still matches the solver/reference/
# oracle within 1e-6 (test_solver_objectives, the solver fuzz suite), and
# say in the change log why the vertex moved:
#
#   vbatt schedule --policy=mip --days=7 > tests/golden/schedule_7d_mip.out
#
# Usage: cli_golden.sh <schedule|svc|reject> <vbatt-binary> \
#            <vbatt_svc-binary> <golden-dir>
set -u

part="$1"
vbatt="$2"
vbatt_svc="$3"
golden="$4"
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

# reject <flag> <command...>: the command must exit 2 and name --<flag> on
# stderr.
reject() {
  flag="$1"
  shift
  "$@" >/dev/null 2>"$tmpdir/err"
  code=$?
  if [ "$code" -eq 2 ] && grep -q -- "--$flag" "$tmpdir/err"; then
    echo "OK: $* exits 2 naming --$flag"
  else
    cat "$tmpdir/err" >&2
    echo "FAIL: $* exited $code; want 2 and --$flag named on stderr" >&2
    status=1
  fi
}

case "$part" in
schedule)
  check mip --policy=mip
  check mip24h --policy=mip24h
  check mippeak --policy=mippeak
  check greedy --policy=greedy
  check replication --policy=replication
  check cost --objective=cost
  check carbon --objective=carbon
  check peak --objective=peak
  check deadline --workload=deadline
  check mip_vm_mixed_cost --policy=mip --vm-level --workload=mixed \
      --objective=cost
  check greedy_vm_all_flags --policy=greedy --vm-level --workload=harvest \
      --storms --solar=3 --wind=5 --region=1800 --cores-per-mw=25 \
      --apps-per-hour=3 --batch-seed=5
  check mip_chaos --policy=mip --chaos=1
  check greedy_vm_chaos --policy=greedy --vm-level --chaos=2 --chaos-seed=3
  check mip24h_chaos_csv --policy=mip24h --chaos-csv="$golden/chaos_7d.csv" \
      --chaos-seed=5
  check mip24h_chaos3 --policy=mip24h --chaos=3
  check mip24h_vm_chaos --policy=mip24h --vm-level --chaos=2
  ;;
svc)
  state="$tmpdir/svc.state"
  "$vbatt_svc" --days=2 --policy=mip24h --solar=3 --wind=5 --cores-per-mw=25 \
      --chaos=1 --chaos-seed=3 --batch-jobs=0.5 --batch-tasks=1 \
      --heartbeats --state-out="$state" >/dev/null || {
    echo "FAIL: vbatt_svc exited non-zero" >&2
    exit 1
  }
  got="$(cksum <"$state")"
  want="$(cat "$golden/svc_2d_mip24h_state.cksum")"
  if [ "$got" = "$want" ]; then
    echo "OK: vbatt_svc --state-out cksum $got"
  else
    echo "FAIL: vbatt_svc --state-out cksum $got, golden $want" >&2
    status=1
  fi
  ;;
reject)
  reject days "$vbatt" schedule --days=-1
  reject days "$vbatt" schedule --policy=greedy --days=0
  reject cores-per-mw "$vbatt" schedule --policy=greedy --days=2 \
      --cores-per-mw=-5
  reject cores-per-mw "$vbatt" schedule --policy=greedy --days=2 \
      --cores-per-mw=nan
  reject region "$vbatt" schedule --policy=greedy --days=2 --region=-100
  reject chaos "$vbatt_svc" --days=1 --policy=greedy --chaos=-1
  reject chaos-seed "$vbatt_svc" --days=1 --policy=greedy --chaos-seed=-3
  ;;
*)
  echo "usage: cli_golden.sh <schedule|svc|reject> <vbatt> <vbatt_svc>" \
       "<golden-dir>" >&2
  exit 2
  ;;
esac
exit $status
