#!/bin/sh
# CLI thread invariance: the same `vbatt schedule` run at VBATT_THREADS=1,
# =3 and =4 must print byte-identical stdout. The MIP-peak policy with the
# VM-level simulator and chaos on touches the solver, the parallel
# ranking pipeline and the fault path in one run.
#
# Usage: thread_invariance.sh <vbatt-binary>
set -u

vbatt="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for threads in 1 3 4; do
  VBATT_THREADS=$threads "$vbatt" schedule --policy=mippeak --days=3 \
    --vm-level --chaos=1 >"$tmpdir/t$threads.out" || {
    echo "FAIL: vbatt exited non-zero at VBATT_THREADS=$threads" >&2
    exit 1
  }
done
for threads in 3 4; do
  cmp "$tmpdir/t1.out" "$tmpdir/t$threads.out" || {
    diff "$tmpdir/t1.out" "$tmpdir/t$threads.out" >&2
    echo "FAIL: stdout differs between VBATT_THREADS=1 and $threads" >&2
    exit 1
  }
done
echo "OK: vbatt schedule output identical at VBATT_THREADS=1, 3 and 4"
