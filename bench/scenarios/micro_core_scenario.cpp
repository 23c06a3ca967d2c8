// The micro_core --json suite as a scenario: the fixed kernel/aggregate
// benchmark set, timed by a small in-house harness that reports ops/sec,
// per-op CPU time (CLOCK_PROCESS_CPUTIME_ID) and wall-clock p50/p95/p99
// as JSON. scripts/bench.sh commits the output as BENCH_micro_core.json;
// --smoke shrinks the iteration counts to a build-gate sanity check.
// Run it as `poibench --scenario micro_core [--json FILE] [--smoke]`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

#include "attack/linkage_engine.h"
#include "attack/region_reid.h"
#include "common/rng.h"
#include "common/stats.h"
#include "eval/json.h"
#include "geo/geometry.h"
#include "poi/city_model.h"
#include "poi/tile_aggregates.h"
#include "scenarios/scenarios.h"
#include "service/release_service.h"
#include "traj/generators.h"

namespace poiprivacy::bench {

namespace {

using namespace poiprivacy;

/// Compiler barrier: keeps the timed call's result alive so the optimizer
/// cannot drop the call.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

const poi::City& beijing() {
  static const poi::City city = poi::generate_city(poi::beijing_preset(), 42);
  return city;
}

geo::Point location_for(std::int64_t i) {
  // Deterministic pseudo-random walk over the city interior.
  const double x = 5.0 + std::fmod(static_cast<double>(i) * 7.31, 30.0);
  const double y = 5.0 + std::fmod(static_cast<double>(i) * 3.77, 30.0);
  return {x, y};
}

// Vector lengths are the real per-city type counts: 177 (Beijing preset)
// and 272 (NYC preset). The pair corpus mixes near-dominating rows (as
// the reid scan sees for surviving candidates) with independent rows (the
// common, quickly-violated case). The corpus is sized to stay L1-resident
// at both lengths (16 pairs x 2 x 272 x 4 B ~= 35 KB): the attack loops
// these rows model scan one released vector against anchor-cache entries
// that stay hot across thousands of probes, so the kernel rows should
// measure kernel speed, not L2 streaming bandwidth.
struct KernelCorpus {
  std::vector<poi::FrequencyVector> as, bs;
};

const KernelCorpus& kernel_corpus(std::size_t m) {
  static std::vector<std::pair<std::size_t, KernelCorpus>> cache;
  for (const auto& [len, corpus] : cache) {
    if (len == m) return corpus;
  }
  common::Rng rng(977 + m);
  KernelCorpus corpus;
  constexpr std::size_t kPairs = 16;
  static_assert((kPairs & (kPairs - 1)) == 0, "rotation masks require 2^k");
  for (std::size_t p = 0; p < kPairs; ++p) {
    poi::FrequencyVector a(m), b(m);
    const bool near = p % 2 == 0;
    for (std::size_t i = 0; i < m; ++i) {
      a[i] = static_cast<std::int32_t>(rng.uniform_int(0, 50));
      b[i] = near ? std::max<std::int32_t>(
                        0, a[i] - static_cast<std::int32_t>(
                                      rng.uniform_int(0, 1)))
                  : static_cast<std::int32_t>(rng.uniform_int(0, 50));
    }
    corpus.as.push_back(std::move(a));
    corpus.bs.push_back(std::move(b));
  }
  cache.emplace_back(m, std::move(corpus));
  return cache.back().second;
}

double cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

/// Times `op` for `reps` repetitions of `iters` calls each and appends one
/// JSON object: ops/sec over the whole run, mean CPU ns per op, and the
/// p50/p95/p99 of the per-repetition wall ns per op.
template <typename Fn>
void emit_bench(eval::JsonWriter& json, const std::string& name,
                std::size_t reps, std::size_t iters, Fn&& op) {
  using Clock = std::chrono::steady_clock;
  // One full repetition of warm-up: a quarter-rep left the first timed
  // repetition visibly colder than the rest (caches, branch predictors,
  // lazily built structures), skewing the p95/p99 of short runs.
  for (std::size_t warm = 0; warm < iters; ++warm) op();

  std::vector<double> per_op_ns;
  per_op_ns.reserve(reps);
  const double cpu0 = cpu_now_ns();
  const Clock::time_point wall0 = Clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it) op();
    per_op_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(iters));
  }
  const double n = static_cast<double>(reps * iters);
  const double cpu_ns_per_op = (cpu_now_ns() - cpu0) / n;
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  const common::Percentiles pct = common::percentiles(per_op_ns);

  json.begin_object();
  json.field("name", name);
  json.field("iterations", static_cast<std::uint64_t>(reps * iters));
  json.field("ops_per_sec", n / wall_seconds);
  json.field("cpu_ns_per_op", cpu_ns_per_op);
  json.field("wall_ns_per_op_p50", pct.p50);
  json.field("wall_ns_per_op_p95", pct.p95);
  json.field("wall_ns_per_op_p99", pct.p99);
  json.end_object();
}

/// Times the fixed kernel/aggregate suite and writes one JSON document to
/// --json FILE (stdout when absent or "-").
int run(const eval::BenchOptions& options) {
  const std::string path = options.flags.get("json", std::string{});
  const bool smoke = options.flags.get("smoke", false);
  const std::size_t scale = smoke ? 50 : 1;
  const std::size_t kernel_reps = smoke ? 3 : 25;
  const std::size_t kernel_iters = 20000 / scale;
  const std::size_t freq_reps = smoke ? 3 : 15;
  const std::size_t freq_iters = 600 / scale;
  const std::size_t reid_reps = smoke ? 2 : 10;
  const std::size_t reid_iters = 60 / scale + 1;

  eval::JsonWriter json;
  json.begin_object();
  json.field("bench", "micro_core");
  json.field("mode", smoke ? "smoke" : "full");
  json.field("kernel_tier",
             std::string(poi::kernel_tier_name(poi::active_kernel_tier())));
  json.key("results");
  json.begin_array();

  for (const std::size_t m : {std::size_t{177}, std::size_t{272}}) {
    const KernelCorpus& c = kernel_corpus(m);
    const std::string tag = "_" + std::to_string(m);
    const std::size_t pairs = c.as.size();
    // kPairs is a power of two, so the per-call corpus rotation is a mask
    // (an integer divide would cost as much as a short kernel call).
    const std::size_t pair_mask = pairs - 1;
    const std::size_t half_mask = pairs / 2 - 1;
    std::size_t i = 0;

    // Even corpus indices are near-dominating pairs (the scalar loop must
    // scan the whole row — the regime the straight-line kernel targets);
    // odd indices are independent pairs violated almost immediately (the
    // regime dominates_early_exit targets).
    const auto pass_pair = [&] { return 2 * (i++ & half_mask); };
    const auto fail_pair = [&] { return 2 * (i++ & half_mask) + 1; };
    emit_bench(json, "scalar_dominates_pass" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = pass_pair();
                 keep(poi::scalar_ref::dominates(c.as[p], c.bs[p]));
               });
    emit_bench(json, "kernel_dominates_pass" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = pass_pair();
                 keep(poi::dominates(c.as[p], c.bs[p]));
               });
    emit_bench(json, "scalar_dominates_fail" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = fail_pair();
                 keep(poi::scalar_ref::dominates(c.as[p], c.bs[p]));
               });
    emit_bench(json, "kernel_dominates_early_exit_fail" + tag, kernel_reps,
               kernel_iters, [&] {
                 const std::size_t p = fail_pair();
                 keep(poi::dominates_early_exit(c.as[p], c.bs[p]));
               });
    emit_bench(json, "scalar_l1_distance" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::scalar_ref::l1_distance(c.as[p], c.bs[p]));
               });
    emit_bench(json, "kernel_l1_distance" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::l1_distance(c.as[p], c.bs[p]));
               });
    emit_bench(json, "scalar_total" + tag, kernel_reps, kernel_iters, [&] {
      keep(poi::scalar_ref::total(c.as[i++ & pair_mask]));
    });
    emit_bench(json, "kernel_total" + tag, kernel_reps, kernel_iters, [&] {
      keep(poi::total(c.as[i++ & pair_mask]));
    });
    poi::FrequencyVector diff_out(m);
    emit_bench(json, "scalar_diff" + tag, kernel_reps, kernel_iters, [&] {
      const std::size_t p = i++ & pair_mask;
      keep(poi::scalar_ref::diff(c.as[p], c.bs[p]));
    });
    emit_bench(json, "kernel_diff_into" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = i++ & pair_mask;
                 poi::diff_into(c.as[p], c.bs[p], diff_out);
                 keep(diff_out.data());
               });
    // Presence-fingerprint kernels: packing a row, and the word-parallel
    // covers pre-check against the whole-vector presence scan it replaces.
    const std::size_t words = poi::fingerprint_words(m);
    std::vector<poi::FingerprintWord> fp_out(words);
    emit_bench(json, "kernel_fp_pack" + tag, kernel_reps, kernel_iters, [&] {
      poi::pack_fingerprint(c.as[i++ & pair_mask], fp_out);
      keep(fp_out.data());
    });
    std::vector<poi::FingerprintWord> fps_a(words * pairs),
        fps_b(words * pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      poi::pack_fingerprint(c.as[p], {fps_a.data() + p * words, words});
      poi::pack_fingerprint(c.bs[p], {fps_b.data() + p * words, words});
    }
    emit_bench(json, "scalar_presence_covers" + tag, kernel_reps,
               kernel_iters, [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::scalar_ref::presence_covers(c.as[p], c.bs[p]));
               });
    emit_bench(json, "kernel_fp_covers" + tag, kernel_reps, kernel_iters,
               [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::fingerprint_covers(
                     {fps_a.data() + p * words, words},
                     {fps_b.data() + p * words, words}));
               });
    emit_bench(json, "scalar_topk_jaccard" + tag, kernel_reps,
               kernel_iters / 10 + 1, [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::scalar_ref::top_k_jaccard(c.as[p], c.bs[p], 10));
               });
    emit_bench(json, "kernel_topk_jaccard" + tag, kernel_reps,
               kernel_iters / 10 + 1, [&] {
                 const std::size_t p = i++ & pair_mask;
                 keep(poi::top_k_jaccard(c.as[p], c.bs[p], 10));
               });
  }

  // Aggregate paths on the Beijing preset at the default r = 2 km.
  const poi::PoiDatabase& db = beijing().db;
  const double r = 2.0;
  std::int64_t loc = 0;
  emit_bench(json, "freq_alloc_r2", freq_reps, freq_iters, [&] {
    keep(db.freq(location_for(++loc), r));
  });
  poi::FrequencyVector reused;
  emit_bench(json, "freq_into_r2", freq_reps, freq_iters, [&] {
    db.freq_into(location_for(++loc), r, reused);
    keep(reused.data());
  });
  std::vector<geo::Point> centers;
  for (std::int64_t j = 0; j < 64; ++j) centers.push_back(location_for(j));
  poi::FreqArena arena;
  emit_bench(json, "freq_batch64_r2", freq_reps, freq_iters / 32 + 1, [&] {
    db.freq_batch(centers, r, arena);
    keep(arena.row(0).data());
  });
  const poi::TileAggregates& tiles = db.tile_aggregates();
  emit_bench(json, "tile_total_upper_bound_r4", kernel_reps, kernel_iters,
             [&] {
               keep(tiles.total_upper_bound(location_for(++loc), 2.0 * r));
             });
  const attack::RegionReidentifier reid(db);
  emit_bench(json, "region_reid_infer_r2", reid_reps, reid_iters, [&] {
    const poi::FrequencyVector f = db.freq(location_for(++loc), r);
    keep(reid.infer(f, r));
  });
  // The same attack on 64 fixed releases at r = 1 km, timed after one
  // untimed pass over all of them: the warm steady state the streaming
  // tracker runs in, where region_reid_infer_r2's fresh locations mostly
  // time cold cache fills.
  {
    const double warm_r = 1.0;
    std::vector<poi::FrequencyVector> releases;
    for (std::int64_t j = 0; j < 64; ++j) {
      releases.push_back(db.freq(location_for(1000 + j), warm_r));
    }
    attack::ReidScratch scratch;
    attack::ReidResult result;
    for (const poi::FrequencyVector& f : releases) {
      reid.infer_into(f, warm_r, scratch, result);
    }
    std::size_t next = 0;
    emit_bench(json, "region_reid_warm_r1", reid_reps, reid_iters * 16, [&] {
      reid.infer_into(releases[next++ & 63], warm_r, scratch, result);
      keep(result.candidates.data());
    });
  }

  // Serving Phase F: defense::noised_release (Eq. 8 noise + Eq. 9
  // post-processing over the support) on the aggregate a ReleaseService
  // caches for the city-centre cloak at r = 1 km, under the serving
  // benchmarks' interactive policy. 177 types (Beijing preset) and 272
  // (NYC preset); each call draws from a fresh noise substream, as a
  // served request does.
  const auto release_bench = [&](const std::string& name,
                                 const poi::City& city) {
    common::Rng pop_rng(43);
    const cloak::AdaptiveIntervalCloaker cloaker(
        cloak::uniform_population(city.db.bounds(), 10000, pop_rng),
        city.db.bounds());
    service::ServiceConfig config;
    config.policies.push_back(
        {"interactive", {.k = 16, .epsilon = 0.5, .delta = 0.01}});
    const service::ReleaseService gsp(city.db, cloaker, config);
    const defense::DpDefenseConfig& policy = config.policies[0].release;
    const geo::BBox& bounds = city.db.bounds();
    service::ReleaseCacheKey key;
    key.region = cloaker
                     .cloak({0.5 * (bounds.min_x + bounds.max_x),
                             0.5 * (bounds.min_y + bounds.max_y)},
                            policy.k)
                     .region;
    key.radius = 1.0;
    const service::CloakAggregate aggregate = gsp.compute_aggregate(key);
    const common::Rng noise_base(99);
    std::uint64_t call = 0;
    emit_bench(json, name, kernel_reps, kernel_iters / 10 + 1, [&] {
      common::Rng rng = noise_base.substream(call++);
      const poi::FrequencyVector release = defense::noised_release(
          aggregate.sum, aggregate.sensitivity, aggregate.support,
          aggregate.k, policy, city.db.infrequency_rank(),
          city.db.rare_type_count(), rng);
      keep(release.data());
    });
  };
  release_bench("dp_release_177", beijing());
  release_bench("dp_release_272",
                poi::generate_city(poi::nyc_preset(), 42));

  // Serving Phase D: ReleaseService::compute_aggregate, the work of one
  // cache miss (the dummy draw, the k dummies' Freq counts reduced to exact
  // sums and maxima — one candidate-major pass on the AVX2 tier — and the
  // support), on Beijing at r = 1 km. Each call takes the
  // next of 64 cloak regions across the city, so consecutive calls query
  // different dummies.
  {
    common::Rng pop_rng(43);
    const cloak::AdaptiveIntervalCloaker cloaker(
        cloak::uniform_population(db.bounds(), 10000, pop_rng), db.bounds());
    service::ServiceConfig config;
    for (const std::size_t k : {16, 32}) {
      config.policies.push_back(
          {"k" + std::to_string(k), {.k = k, .epsilon = 0.5, .delta = 0.01}});
    }
    const service::ReleaseService gsp(db, cloaker, config);
    for (service::PolicyId policy = 0; policy < config.policies.size();
         ++policy) {
      std::vector<service::ReleaseCacheKey> keys(64);
      for (std::size_t j = 0; j < keys.size(); ++j) {
        keys[j].region =
            cloaker
                .cloak(location_for(static_cast<std::int64_t>(j)),
                       config.policies[policy].release.k)
                .region;
        keys[j].radius = 1.0;
        keys[j].policy = policy;
      }
      std::size_t call = 0;
      emit_bench(json, "compute_aggregate_" + config.policies[policy].name,
                 freq_reps, freq_iters / 4 + 1, [&] {
                   keep(gsp.compute_aggregate(keys[call++ & 63]).sum.data());
                 });
    }
    // Serving Phase B: the k = 16 cloak of a served request, over the same
    // 64 locations whose regions key compute_aggregate_k16.
    std::vector<geo::Point> locations;
    for (std::int64_t j = 0; j < 64; ++j) locations.push_back(location_for(j));
    std::size_t next = 0;
    emit_bench(json, "cloak_k16", kernel_reps, kernel_iters / 10 + 1, [&] {
      keep(cloaker.cloak(locations[next++ & 63], 16).region);
    });
  }

  // Linkage-engine primitives (attack/linkage_engine.h): index build over
  // a large candidate layer, the per-tile envelope annulus prune and
  // annulus mask, and a full streamed tracker intersection over a short
  // release chain.
  {
    const attack::AttackContext ctx(db);
    // The most populous type gives the largest realistic candidate layer.
    poi::TypeId big_type = 0;
    for (poi::TypeId t = 0; t < db.num_types(); ++t) {
      if (db.pois_of_type(t).size() > db.pois_of_type(big_type).size()) {
        big_type = t;
      }
    }
    const std::vector<poi::PoiId>& layer = db.pois_of_type(big_type);
    attack::CandidateBlockIndex index;
    emit_bench(json, "linkage_bucket_build", kernel_reps,
               kernel_iters / 100 + 1, [&] {
                 index.build(ctx, layer);
                 keep(index.num_buckets());
               });
    index.build(ctx, layer);
    emit_bench(json, "linkage_envelope_prune", kernel_reps,
               kernel_iters / 10 + 1, [&] {
                 keep(index.any_in_annulus(location_for(++loc), 1.0, 3.0,
                                           {}));
               });
    // The tracker's per-frontier reach row: every layer candidate in the
    // same 1-3 km annulus, into a reused bitmask.
    std::vector<std::uint64_t> mask((layer.size() + 63) / 64);
    emit_bench(json, "linkage_annulus_mask", kernel_reps,
               kernel_iters / 10 + 1, [&] {
                 std::fill(mask.begin(), mask.end(), 0);
                 index.annulus_mask_into(location_for(++loc), 1.0, 3.0, mask);
                 keep(mask.data());
               });

    // Tracker fixture: a pairwise attack trained on a small taxi corpus,
    // streamed over a fixed three-release chain.
    common::Rng rng(4242);
    traj::TaxiConfig taxi_config;
    taxi_config.num_taxis = 20;
    taxi_config.points_per_taxi = 10;
    const auto trajectories =
        traj::generate_taxi_trajectories(beijing(), taxi_config, rng);
    const auto pairs = traj::extract_release_pairs(trajectories, db, r, 600);
    const attack::TrajectoryAttack pairwise(
        db, pairs, r, attack::TrajectoryAttackConfig{}, rng);
    const attack::LinkageEngine engine(db, pairwise, r);
    std::vector<attack::TimedRelease> chain;
    for (std::int64_t j = 0; j < 3; ++j) {
      chain.push_back({db.freq(location_for(17 + 3 * j), r), 300 * j});
    }
    attack::LinkageEngine::Tracker tracker(engine);
    emit_bench(json, "linkage_streamed_intersect", reid_reps,
               reid_iters / 3 + 1, [&] {
                 tracker.reset();
                 for (const attack::TimedRelease& release : chain) {
                   tracker.observe(release.freq, release.time);
                 }
                 keep(tracker.survivors().size());
               });
  }

  json.end_array();
  json.end_object();

  if (path.empty() || path == "-") {
    std::cout << json.str() << "\n";
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "micro_core: cannot write %s\n", path.c_str());
    return 1;
  }
  out << json.str() << "\n";
  return out ? 0 : 1;
}

}  // namespace

void register_micro_core(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "micro_core",
      .description = "Kernel/aggregate micro-benchmark suite as JSON "
                     "(--json FILE, --smoke; timings, so --all skips it)",
      .extra_flags = {"json", "smoke"},
      .smoke_args = {"--smoke"},
      .deterministic = false,
      .run = run,
  });
}

}  // namespace poiprivacy::bench
