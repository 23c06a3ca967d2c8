#!/usr/bin/env bash
# One-stop pre-merge gate:
#   1. the dead-header check (every src/**/*.h must be included by some
#      file under src/, bench/, examples/ or perfbench/ other than its own
#      .cpp — code that only its own tests reach is deleted), then the
#      plain build + the tier-1 test suite,
#   2. ThreadSanitizer build + the concurrency suites (`-L tsan`),
#   3. the metrics-determinism binary, which internally re-runs the
#      service and eval pipelines at --threads 1/2/8 with mid-run
#      registry scrapes and asserts bit-identical results,
#   4. the scenario-catalog determinism gate: poibench --all --smoke at
#      --threads 1 and --threads 8 must produce identical stdout (only
#      the printed thread count is normalized away),
#   5. a Release-build bench smoke: the micro_core --json suite (through
#      the poibench driver) must run whole and emit parseable JSON
#      (catches perf harness rot without paying for a full bench run),
#   6. the kernel-dispatch gate: the tier-1 suite re-runs with
#      POIPRIVACY_KERNEL=scalar (the portable tier must carry the whole
#      suite, not just the property tests), and poibench --all --smoke
#      must emit byte-identical output under the scalar and the native
#      tier at --threads 1/2/8 — SIMD is an implementation detail,
#      never an observable one,
#   7. an Address+UB-Sanitizer build (float-cast-overflow included)
#      running the kernel, fingerprint, tile-window, spatial, cloak,
#      release, linkage and region re-id property suites and the service
#      suite under both the native and the scalar tier (the explicit SIMD
#      kernels read memory in 32-byte gulps, the quadtree's exact-node
#      descent indexes children by hand, the release rounding casts
#      doubles to integers, the grid index casts query coordinates to
#      cell numbers, which service_test drives with infinite, NaN and
#      1e300 requests, the tile grid casts coordinates to tile numbers,
#      which the tile-window and linkage suites drive with the same
#      values and the block index uses to pick the bucket rows a query
#      visits, and region re-id indexes type blocks by type row and
#      candidate lane, including the pad lanes past the last candidate,
#      which the region re-id suite drives at 1 to 129 candidates;
#      ASan/UBSan prove all six stay in bounds),
#   8. the serving-layer concurrency gate: the session-shard stress,
#      property and net-framing suites re-run under the ThreadSanitizer
#      build, then a Release loopback smoke drives the TCP front-end
#      (poibench --connections) and asserts every request came back, and
#      an in-process --threads 1 run asserts that a steady-state hot
#      release allocates exactly its response,
#   9. the linkage-engine gate: the linkage_100k smoke must be
#      byte-identical at --threads 1/2/8 (the per-user streaming loop is
#      an ordered reduction, so the thread count must never be
#      observable), its zero-allocation store-fill check must hold, the
#      Release --json smoke must emit a parseable sweep, and the linkage
#      property suite re-runs under the ThreadSanitizer build,
#  10. the ledger gate: the dp::Ledger property suite (legacy-oracle
#      equivalence + fixed-point tightness + concurrent conservation)
#      re-runs under the ThreadSanitizer build, the stream_utility smoke
#      must be byte-identical at --threads 1/2/8, and a loopback
#      renewal smoke (--renew/--waves) must show budget_exhausted
#      refusals turning back into grants after an epoch-boundary
#      renewal,
#  11. the perfbench gate: `perfbench/run.py --smoke` must pass (every
#      workload, traced and untraced, reports "correct": true and every
#      listed metric, and a corrupted digest is caught), and a short
#      traced serve_batch_hot run must report "correct": true — its
#      shadow serving pipeline reproduces every ReleaseService result bit
#      for bit.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

echo "== [1/11] dead-header check + plain build + tier-1 tests =="
dead_headers=0
while IFS= read -r header; do
  includers="$(grep -rlF "#include \"${header#src/}\"" \
                 src bench examples perfbench \
               | grep -vxF "${header%.h}.cpp" || true)"
  if [ -z "$includers" ]; then
    echo "check.sh: dead header $header: nothing under src/ bench/" \
         "examples/ perfbench/ includes it but its own .cpp" >&2
    dead_headers=1
  fi
done < <(find src -name '*.h' | sort)
[ "$dead_headers" = 0 ] || exit 1
echo "dead-header check: every src header has an includer"
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
(cd build && ctest -L tier1 --output-on-failure -j "$jobs")

echo "== [2/11] ThreadSanitizer build + tsan-labelled tests =="
cmake -B build-tsan -S . -DPOIPRIVACY_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
(cd build-tsan && ctest -L tsan --output-on-failure -j "$jobs")

echo "== [3/11] metrics determinism at --threads 1/2/8 =="
./build/tests/obs_determinism_test

echo "== [4/11] poibench --all --smoke determinism at --threads 1/8 =="
cmake --build build -j "$jobs" --target poibench
smoke_t1="$(mktemp)"
smoke_t8="$(mktemp)"
./build/bench/poibench --all --smoke --threads 1 2>/dev/null \
  | sed 's/threads=[0-9]*/threads=N/' > "$smoke_t1"
./build/bench/poibench --all --smoke --threads 8 2>/dev/null \
  | sed 's/threads=[0-9]*/threads=N/' > "$smoke_t8"
diff -u "$smoke_t1" "$smoke_t8"
for s in mia_raw mia_dp_sweep mia_priors; do
  grep -q "^==== $s ====" "$smoke_t1" \
    || { echo "check.sh: $s missing from the smoke catalog" >&2; exit 1; }
done
echo "poibench smoke: $(grep -c '^==== ' "$smoke_t1") scenarios identical at --threads 1/8 (mia_* present)"
rm -f "$smoke_t1" "$smoke_t8"

echo "== [5/11] Release bench smoke =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$jobs" --target poibench
smoke_json="$(mktemp)"
./build-release/bench/poibench --scenario micro_core \
  --json "$smoke_json" --smoke --threads 1
python3 -c "
import json, sys
with open('$smoke_json') as f:
    doc = json.load(f)
assert doc['bench'] == 'micro_core' and doc['results'], 'empty bench output'
print('bench smoke:', len(doc['results']), 'benchmarks ran')
"
rm -f "$smoke_json"

echo "== [6/11] kernel dispatch: scalar-tier suite + cross-tier bench identity =="
(cd build && POIPRIVACY_KERNEL=scalar ctest -L tier1 --output-on-failure -j "$jobs")
for threads in 1 2 8; do
  smoke_scalar="$(mktemp)"
  smoke_native="$(mktemp)"
  POIPRIVACY_KERNEL=scalar ./build/bench/poibench --all --smoke \
    --threads "$threads" 2>/dev/null > "$smoke_scalar"
  ./build/bench/poibench --all --smoke --threads "$threads" 2>/dev/null \
    > "$smoke_native"
  diff -u "$smoke_scalar" "$smoke_native"
  rm -f "$smoke_scalar" "$smoke_native"
  echo "poibench smoke: scalar == native tier at --threads $threads"
done

echo "== [7/11] ASan/UBSan build + kernel/spatial/cloak/linkage/re-id/service suites per tier =="
cmake -B build-asan -S . -DPOIPRIVACY_SANITIZE=address >/dev/null
asan_suites=(kernel_property_test fingerprint_property_test
             tile_window_property_test spatial_property_test
             cloak_property_test release_property_test service_test
             linkage_property_test region_reid_property_test)
cmake --build build-asan -j "$jobs" --target "${asan_suites[@]}"
for tier in native scalar; do
  env_prefix=()
  [ "$tier" = scalar ] && env_prefix=(env POIPRIVACY_KERNEL=scalar)
  for suite in "${asan_suites[@]}"; do
    "${env_prefix[@]}" "./build-asan/tests/$suite" \
      --gtest_brief=1 >/dev/null
    echo "asan: $suite clean under $tier tier"
  done
done

echo "== [8/11] serving layer: stress/property/framing under TSan + TCP loopback smoke =="
for suite in service_stress_test session_shard_property_test net_framing_test; do
  cmake --build build-tsan -j "$jobs" --target "$suite" >/dev/null
  "./build-tsan/tests/$suite" --gtest_brief=1 >/dev/null
  echo "tsan: $suite clean"
done
loopback_json="$(mktemp)"
./build-release/bench/poibench --scenario service_throughput \
  --users 50 --requests 5 --seed 4242 --threads 2 \
  --connections 4 --pipeline 8 2>/dev/null > "$loopback_json"
python3 -c "
import json
with open('$loopback_json') as f:
    doc = json.load(f)
assert doc['transport'] == 'tcp' and doc['connections'] == 4, doc
assert doc['served'] == doc['requests'], (doc['served'], doc['requests'])
assert doc['transport_errors'] == 0, doc['transport_errors']
total = sum(doc['status'].values())
assert total == doc['served'], (total, doc['served'])
print('loopback smoke:', doc['served'], 'requests served over',
      doc['connections'], 'connections,', doc['status'])
"
rm -f "$loopback_json"
alloc_json="$(mktemp)"
./build-release/bench/poibench --scenario service_throughput \
  --users 50 --requests 5 --seed 4242 --threads 1 2>/dev/null > "$alloc_json"
python3 -c "
import json
with open('$alloc_json') as f:
    doc = json.load(f)
assert doc['release_allocs_per_call'] == 1, doc['release_allocs_per_call']
print('release alloc check: one allocation (the response) per hot release')
"
rm -f "$alloc_json"

echo "== [9/11] linkage engine: smoke identity at --threads 1/2/8 + TSan property suite =="
linkage_ref="$(mktemp)"
./build/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
  --threads 1 2>/dev/null | sed 's/threads=[0-9]*/threads=N/' > "$linkage_ref"
grep -q 'alloc check: pass' "$linkage_ref" \
  || { echo "check.sh: linkage_100k smoke lost the zero-alloc store fill" >&2; exit 1; }
for threads in 2 8; do
  linkage_t="$(mktemp)"
  ./build/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
    --threads "$threads" 2>/dev/null \
    | sed 's/threads=[0-9]*/threads=N/' > "$linkage_t"
  diff -u "$linkage_ref" "$linkage_t"
  rm -f "$linkage_t"
  echo "linkage_100k smoke: --threads 1 == --threads $threads"
done
rm -f "$linkage_ref"
linkage_json="$(mktemp)"
./build-release/bench/poibench --scenario linkage_100k --smoke --seed 4242 \
  --threads 2 --json "$linkage_json" >/dev/null
python3 -c "
import json
with open('$linkage_json') as f:
    doc = json.load(f)
assert doc['scenario'] == 'linkage_100k' and doc['scales'], doc
for scale in doc['scales']:
    assert scale['users'] > 0 and scale['linkage_wall_s'] > 0, scale
    assert 0.0 <= scale['unique_rate'] <= 1.0, scale
print('linkage smoke:', len(doc['scales']), 'scale(s),',
      doc['releases'], 'releases, unique_rate',
      doc['scales'][-1]['unique_rate'])
"
rm -f "$linkage_json"
cmake --build build-tsan -j "$jobs" --target linkage_property_test >/dev/null
./build-tsan/tests/linkage_property_test --gtest_brief=1 >/dev/null
echo "tsan: linkage_property_test clean"

echo "== [10/11] ledger: property suite under TSan + stream_utility identity + renewal smoke =="
cmake --build build-tsan -j "$jobs" --target ledger_property_test >/dev/null
./build-tsan/tests/ledger_property_test --gtest_brief=1 >/dev/null
echo "tsan: ledger_property_test clean"
stream_ref="$(mktemp)"
./build/bench/poibench --scenario stream_utility --users 40 --epochs 16 \
  --roi 48 --seed 4242 --threads 1 2>/dev/null \
  | sed 's/threads=[0-9]*/threads=N/' > "$stream_ref"
for threads in 2 8; do
  stream_t="$(mktemp)"
  ./build/bench/poibench --scenario stream_utility --users 40 --epochs 16 \
    --roi 48 --seed 4242 --threads "$threads" 2>/dev/null \
    | sed 's/threads=[0-9]*/threads=N/' > "$stream_t"
  diff -u "$stream_ref" "$stream_t"
  rm -f "$stream_t"
  echo "stream_utility smoke: --threads 1 == --threads $threads"
done
rm -f "$stream_ref"
renewal_json="$(mktemp)"
./build-release/bench/poibench --scenario service_throughput \
  --users 30 --requests 8 --ceiling 2.0 --renew 1 --waves 2 \
  --seed 4242 --threads 1 2>/dev/null > "$renewal_json"
python3 -c "
import json
with open('$renewal_json') as f:
    doc = json.load(f)
waves = doc['wave_status']
assert len(waves) == 2, waves
assert waves[0]['budget_exhausted'] > 0, waves[0]
assert waves[1]['renewals'] > 0, waves[1]
assert waves[1]['granted'] >= waves[0]['granted'], waves
assert doc['sessions']['renewals'] == sum(w['renewals'] for w in waves), doc
print('renewal smoke:', waves[0]['budget_exhausted'],
      'refusals pre-renewal;', waves[1]['renewals'],
      'sessions renewed;', waves[1]['granted'], 'grants post-renewal')
"
rm -f "$renewal_json"

echo "== [11/11] perfbench: smoke + traced shadow-pipeline identity =="
perf_smoke="$(mktemp)"
python3 perfbench/run.py --smoke > "$perf_smoke"
perf_traced="$(mktemp)"
python3 perfbench/run.py --workload serve_batch_hot --seed 7 --seconds 1 \
  --trace 1 > "$perf_traced"
python3 -c "
import json
with open('$perf_smoke') as f:
    smoke = json.loads(f.read().strip().splitlines()[-1])
assert smoke['smoke'] == 'pass', smoke
with open('$perf_traced') as f:
    result = json.loads(f.read().strip().splitlines()[-1])
assert result['correct'] is True, result
print('perfbench: smoke pass; traced serve_batch_hot correct,',
      result['attempted'], 'requests,',
      'defense.postprocess.us_per_op =',
      result['metrics']['defense.postprocess.us_per_op']['value'])
"
rm -f "$perf_smoke" "$perf_traced"

echo "check.sh: all gates passed"
