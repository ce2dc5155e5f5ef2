#!/bin/sh
# Re-run every pinned CLI output and compare it byte for byte.
#
# Builds bft_lab and the examples in ROOT (default: the repository root),
# then runs, from ROOT, each command whose output is pinned under
# test/golden/ (or checked against the golden bench surface) and fails on
# the first difference:
#
#   examples                      examples.txt
#   chaos seed 1, rotating 11     chaos_seed1.txt, chaos_rotating_seed11.txt
#   chaos unsafe seed 42          must exit 1; stdout and shrunk plan pinned
#   txn, four runs                txn_seed1.jsonl
#   overload                      overload_seed42.jsonl
#   trace --ops 100 bundle        determinism (diff -r of two runs), profile,
#                                 series and the trace's MD5
#   trace --ops 100 --arg 0/4096  trace_ops100_arg{0,4096}.txt
#   all --quick                   all_quick.txt
#   bench --quick --golden        golden part byte-identical (bft_lab checks)
#   model, model --check          model_report.txt; the check against the
#                                 pinned golden and against this run's
#                                 BENCH_micro.json
#
# Outputs go to PINS_OUT (default: a fresh temporary directory, removed on
# exit) under the names CI uploads. Takes about half a minute.
#
# Usage: [PINS_OUT=DIR] test/check_pins.sh [ROOT]
set -eu

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
if [ -n "${PINS_OUT:-}" ]; then
  mkdir -p "$PINS_OUT"
  out=$(cd "$PINS_OUT" && pwd)
else
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi
golden=$root/test/golden
cd "$root"
dune build ./bin/bft_lab.exe ./examples
lab=$root/_build/default/bin/bft_lab.exe

pin() { echo "== $*"; }

pin examples
for e in quickstart kv_demo bfs_demo view_change_demo recovery_demo; do
  ./_build/default/examples/$e.exe
done > "$out/examples.txt"
diff -u "$golden/examples.txt" "$out/examples.txt"

pin chaos seed 1
timeout 300 "$lab" chaos --campaigns 5 --seed 1 > "$out/chaos_seed1.txt"
diff -u "$golden/chaos_seed1.txt" "$out/chaos_seed1.txt"

pin chaos rotating seed 11
timeout 300 "$lab" chaos --rotating --campaigns 6 --seed 11 \
  > "$out/chaos_rotating_seed11.txt"
diff -u "$golden/chaos_rotating_seed11.txt" "$out/chaos_rotating_seed11.txt"

pin chaos unsafe seed 42 must exit 1
status=0
timeout 300 "$lab" chaos --unsafe-no-commit-quorum --campaigns 15 --seed 42 \
  --shrunk-out "$out/chaos_unsafe_seed42.plan" > "$out/chaos_unsafe_seed42.txt" \
  || status=$?
test "$status" -eq 1
diff -u "$golden/chaos_unsafe_seed42.txt" "$out/chaos_unsafe_seed42.txt"
diff -u "$golden/chaos_unsafe_seed42.plan" "$out/chaos_unsafe_seed42.plan"

pin txn seed 1
rm -f "$out/txn_chaos.jsonl"
for scenario in healthy coordinator-crash mid-migration; do
  timeout 300 "$lab" txn --scenario $scenario --seed 1 \
    --json "$out/txn_chaos.jsonl"
done
# checker self-test: recovery off => the audit MUST flag the wedged
# transaction (the run exits 0 only when it does)
timeout 300 "$lab" txn --scenario coordinator-crash --no-recovery \
  --expect-violation --seed 1 --json "$out/txn_chaos.jsonl"
diff -u "$golden/txn_seed1.jsonl" "$out/txn_chaos.jsonl"

pin overload
timeout 300 "$lab" overload --require-shed --duration 2 \
  --json "$out/overload_result.jsonl"
diff -u "$golden/overload_seed42.jsonl" "$out/overload_result.jsonl"

pin trace bundle: same seed, byte-identical directory
rm -rf "$out/trace_a.bundle" "$out/trace_b.bundle"
"$lab" trace --ops 100 --observe "$out/trace_a.bundle" > /dev/null
"$lab" trace --ops 100 --observe "$out/trace_b.bundle" > /dev/null
diff -r "$out/trace_a.bundle" "$out/trace_b.bundle"
# the event order itself is pinned: profile and series in full, the
# 1.1 MB trace by its MD5
diff -u "$golden/trace_ops100_profile.jsonl" "$out/trace_a.bundle/profile.jsonl"
diff -u "$golden/trace_ops100_series.jsonl" "$out/trace_a.bundle/series.jsonl"
md5sum < "$out/trace_a.bundle/trace.jsonl" | cut -d' ' -f1 \
  | diff -u "$golden/trace_ops100.md5" -

pin trace stdout, 0 B and 4 KB arguments
# The bundle name is part of the pinned output, so these run in $out.
(
  cd "$out"
  rm -rf trace_arg0.bundle trace_arg4096.bundle
  "$lab" trace --ops 100 --arg 0 --observe trace_arg0.bundle > trace_arg0.txt
  "$lab" trace --ops 100 --arg 4096 --observe trace_arg4096.bundle \
    > trace_arg4096.txt
)
diff -u "$golden/trace_ops100_arg0.txt" "$out/trace_arg0.txt"
diff -u "$golden/trace_ops100_arg4096.txt" "$out/trace_arg4096.txt"

pin all --quick
timeout 600 "$lab" all --quick > "$out/all_quick.txt"
diff -u "$golden/all_quick.txt" "$out/all_quick.txt"

pin bench --quick --seed 42 --golden
rm -rf "$out/bench.bundle"
timeout 600 "$lab" bench --quick --seed 42 --observe "$out/bench.bundle" \
  --json "$out/BENCH_micro.json" --golden bench/golden_bench_virtual.json
for f in health.txt alerts.json; do
  grep -q "\"name\":\"$f\"" "$out/bench.bundle/manifest.json"
done

pin model
"$lab" model | diff -u "$golden/model_report.txt" -
timeout 300 "$lab" model --check
timeout 300 "$lab" model --check --golden "$out/BENCH_micro.json"

echo "every pin holds"
