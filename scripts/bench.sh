#!/usr/bin/env bash
# Perf trajectory recorder: builds a Release tree and runs the two
# JSON-emitting benchmarks through the poibench scenario driver, writing
#
#   BENCH_micro_core.json           kernel microbenches (ops/sec, per-op
#                                   CPU time, wall-clock p50/p95/p99)
#   BENCH_service_throughput.json   serving-layer req/s + latency
#                                   percentiles + per-request CPU time,
#                                   one "single_core" in-process pass and
#                                   one "multi_connection" pass over the
#                                   TCP front-end (--threads 8, 4
#                                   loopback connections, pipelined)
#   BENCH_mia.json                  membership-inference AUC vs epsilon
#                                   (the mia_dp_sweep table)
#   BENCH_linkage.json              streaming cross-release linkage at
#                                   scale: wall time + users/sec for the
#                                   25K/50K/100K sweep and the fitted
#                                   scaling exponent (slope of log t vs
#                                   log n; subquadratic means <= ~1.3)
#   BENCH_stream_utility.json       continual-release utility frontier:
#                                   Top-K Jaccard + mean L1 of the noised
#                                   aggregate stream vs the raw one, over
#                                   eps 0.1 -> 10 x window lengths 1/2/4
#                                   (asserted monotone in epsilon)
#
# into the output directory (default: repo root). Commit the files next
# to the change that produced them so the perf history lives in git.
#
# Every file gets a top-level "provenance" block: the commit measured
# (`git describe --always --dirty`), the build type, the host's CPU
# count (nproc), the active kernel tier (poibench --kernel-tier, so
# POIPRIVACY_KERNEL applies) and the --threads value of each run.
#
# Usage: scripts/bench.sh [outdir] [jobs] [step...]
#   steps: micro_core service_throughput mia linkage stream_utility
#   (default: all five, in that order)
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-.}"
jobs="${2:-$(nproc)}"
shift $(( $# < 2 ? $# : 2 ))
steps="${*:-micro_core service_throughput mia linkage stream_utility}"
for step in $steps; do
  case "$step" in
    micro_core|service_throughput|mia|linkage|stream_utility) ;;
    *) echo "bench.sh: unknown step '$step'" >&2; exit 2 ;;
  esac
done
want() { [[ " $steps " == *" $1 "* ]]; }
mkdir -p "$outdir"

echo "== bench.sh: Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$jobs" --target poibench

commit="$(git describe --always --dirty 2>/dev/null || echo unknown)"
host_cpus="$(nproc)"
kernel_tier="$(./build-release/bench/poibench --kernel-tier)"

# stamp FILE THREADS_JSON: adds the provenance block to a written file.
stamp() {
  python3 - "$1" "$2" "$commit" "$host_cpus" "$kernel_tier" <<'PY'
import json, sys
path, threads, commit, cpus, tier = sys.argv[1:6]
with open(path) as f:
    doc = json.load(f)
doc["provenance"] = {
    "commit": commit,
    "build_type": "Release",
    "nproc": int(cpus),
    "kernel_tier": tier,
    "threads": json.loads(threads),
}
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY
}

if want micro_core; then
  echo "== bench.sh: micro_core kernel benches =="
  ./build-release/bench/poibench --scenario micro_core \
    --json "$outdir/BENCH_micro_core.json" --threads 1
  stamp "$outdir/BENCH_micro_core.json" 1
  echo "wrote $outdir/BENCH_micro_core.json"
fi

if want service_throughput; then
echo "== bench.sh: service_throughput (single-core + multi-connection) =="
svc_single="$(mktemp)"
svc_multi="$(mktemp)"
./build-release/bench/poibench --scenario service_throughput --threads 1 \
  > "$svc_single"
./build-release/bench/poibench --scenario service_throughput --threads 8 \
  --connections 4 --pipeline 16 > "$svc_multi"
python3 - "$svc_single" "$svc_multi" "$outdir/BENCH_service_throughput.json" <<'EOF'
import json, sys
single, multi, out = sys.argv[1:4]
doc = {
    "bench": "service_throughput",
    "single_core": json.load(open(single)),
    "multi_connection": json.load(open(multi)),
}
doc["speedup_multi_vs_single"] = (
    doc["multi_connection"]["requests_per_sec"]
    / doc["single_core"]["requests_per_sec"])
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("multi/single throughput: %.2fx" % doc["speedup_multi_vs_single"])
EOF
rm -f "$svc_single" "$svc_multi"
stamp "$outdir/BENCH_service_throughput.json" \
  '{"single_core": 1, "multi_connection": 8}'
echo "wrote $outdir/BENCH_service_throughput.json"
fi

if want mia; then
  echo "== bench.sh: mia_dp_sweep =="
  ./build-release/bench/poibench --scenario mia_dp_sweep \
    --json "$outdir/BENCH_mia.json" --threads 1 >/dev/null
  stamp "$outdir/BENCH_mia.json" 1
  echo "wrote $outdir/BENCH_mia.json"
fi

if want linkage; then
echo "== bench.sh: linkage_100k (25K -> 50K -> 100K sweep) =="
./build-release/bench/poibench --scenario linkage_100k \
  --json "$outdir/BENCH_linkage.json" --threads 8 >/dev/null
stamp "$outdir/BENCH_linkage.json" 8
python3 -c "
import json
with open('$outdir/BENCH_linkage.json') as f:
    doc = json.load(f)
print('scaling exponent: %.3f over' % doc['scaling_exponent'],
      ' -> '.join(str(s['users']) for s in doc['scales']), 'users')
"
echo "wrote $outdir/BENCH_linkage.json"
fi

if want stream_utility; then
echo "== bench.sh: stream_utility (Top-K Jaccard vs epsilon) =="
./build-release/bench/poibench --scenario stream_utility \
  --json "$outdir/BENCH_stream_utility.json" --threads 1 >/dev/null
stamp "$outdir/BENCH_stream_utility.json" 1
python3 - "$outdir/BENCH_stream_utility.json" <<'EOF'
import collections, json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
by_window = collections.defaultdict(list)
for row in doc["rows"]:
    by_window[row["window_epochs"]].append(row)
for window, rows in sorted(by_window.items()):
    rows.sort(key=lambda r: r["epsilon"])
    jaccards = [r["top_k_jaccard"] for r in rows]
    assert jaccards == sorted(jaccards), (
        "Jaccard not monotone in epsilon for window_epochs=%d: %r"
        % (window, jaccards))
    print("window_epochs=%d: jaccard %.3f (eps %.1f) -> %.3f (eps %.1f)"
          % (window, jaccards[0], rows[0]["epsilon"],
             jaccards[-1], rows[-1]["epsilon"]))
EOF
echo "wrote $outdir/BENCH_stream_utility.json"
fi
