#include "eval/runner.h"

#include "common/parallel.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace poiprivacy::eval {

namespace {

// Whole-evaluation latency spans. Pure observation: stats flow through
// ordered_reduce unchanged whether or not the registry is ever scraped.
struct EvalMetrics {
  obs::Histogram& attack_seconds;
  obs::Histogram& fine_grained_seconds;
  obs::Histogram& utility_seconds;

  static EvalMetrics& get() {
    static EvalMetrics* metrics = new EvalMetrics{
        obs::global_registry().histogram("eval.attack_seconds"),
        obs::global_registry().histogram("eval.fine_grained_seconds"),
        obs::global_registry().histogram("eval.utility_seconds"),
    };
    return *metrics;
  }
};

/// Locations per parallel task. Part of the determinism contract only in
/// so far as it must not depend on the thread count (it does not); small
/// enough to load-balance the expensive attack loops.
constexpr std::size_t kLocationChunk = 8;

struct AttackOutcome {
  bool empty_release = false;
  bool unique = false;
  bool correct = false;
};

AttackStats reduce_attack_outcomes(AttackStats acc, AttackOutcome outcome) {
  ++acc.attempts;
  if (outcome.empty_release) ++acc.empty_releases;
  if (outcome.unique) ++acc.unique;
  if (outcome.correct) ++acc.correct;
  return acc;
}

/// Shared core of the two evaluate_attack overloads: `attack_one(i)` runs
/// the attack for location index i and returns its outcome.
template <typename AttackOne>
AttackStats evaluate_attack_impl(const poi::PoiDatabase& db, std::size_t n,
                                 AttackOne&& attack_one) {
  const obs::Span span(EvalMetrics::get().attack_seconds);
  const poi::AnchorCacheStats cache_before = db.anchor_cache_stats();
  AttackStats stats = common::ordered_reduce(
      common::global_pool(), n, kLocationChunk, AttackStats{},
      std::forward<AttackOne>(attack_one), reduce_attack_outcomes);
  const poi::AnchorCacheStats cache_after = db.anchor_cache_stats();
  stats.cache_hits = cache_after.hits - cache_before.hits;
  stats.cache_misses = cache_after.misses - cache_before.misses;
  return stats;
}

}  // namespace

ReleaseFn identity_release(const poi::PoiDatabase& db) {
  return [&db](geo::Point l, double r) { return db.freq(l, r); };
}

AttackStats evaluate_attack(const poi::PoiDatabase& db,
                            std::span<const geo::Point> locations, double r,
                            const ReleaseFn& release) {
  const attack::RegionReidentifier reid(db);
  return evaluate_attack_impl(db, locations.size(), [&](std::size_t i) {
    const geo::Point l = locations[i];
    const attack::ReidResult result = reid.infer(release(l, r), r);
    AttackOutcome outcome;
    outcome.empty_release = !result.pivot_type.has_value();
    outcome.unique = result.unique();
    outcome.correct =
        outcome.unique && attack::attack_success(result, db, l, r);
    return outcome;
  });
}

AttackStats evaluate_attack(const poi::PoiDatabase& db,
                            std::span<const geo::Point> locations, double r,
                            const SeededReleaseFn& release,
                            std::uint64_t release_seed) {
  const attack::RegionReidentifier reid(db);
  const common::Rng base(release_seed);
  return evaluate_attack_impl(db, locations.size(), [&](std::size_t i) {
    const geo::Point l = locations[i];
    common::Rng rng = base.substream(i);
    const attack::ReidResult result = reid.infer(release(l, r, rng), r);
    AttackOutcome outcome;
    outcome.empty_release = !result.pivot_type.has_value();
    outcome.unique = result.unique();
    outcome.correct =
        outcome.unique && attack::attack_success(result, db, l, r);
    return outcome;
  });
}

double FineGrainedStats::mean_area() const {
  return common::mean(areas_km2);
}

FineGrainedStats evaluate_fine_grained(
    const poi::PoiDatabase& db, std::span<const geo::Point> locations,
    double r, const attack::FineGrainedConfig& config) {
  const obs::Span span(EvalMetrics::get().fine_grained_seconds);
  const attack::FineGrainedAttack fine(db, config);

  struct Outcome {
    bool success = false;
    bool contains_truth = false;
    double area_km2 = 0.0;
    double aux_count = 0.0;
  };
  return common::ordered_reduce(
      common::global_pool(), locations.size(), kLocationChunk,
      FineGrainedStats{},
      [&](std::size_t i) {
        const geo::Point l = locations[i];
        const attack::FineGrainedResult result = fine.infer(db.freq(l, r), r);
        Outcome outcome;
        if (!result.baseline_unique) return outcome;
        // Only count attacks that correctly anchored the user; a unique-
        // but-wrong anchor is a failed attack, not a small search area.
        const geo::Point anchor = db.poi(result.major_anchor).pos;
        if (geo::distance(anchor, l) > r + 1e-9) return outcome;
        outcome.success = true;
        outcome.contains_truth = result.contains(l);
        outcome.area_km2 = result.area_km2;
        outcome.aux_count = static_cast<double>(result.aux_anchors.size());
        return outcome;
      },
      [](FineGrainedStats acc, Outcome outcome) {
        ++acc.attempts;
        if (outcome.success) {
          ++acc.successes;
          if (outcome.contains_truth) ++acc.contains_truth;
          acc.areas_km2.push_back(outcome.area_km2);
          acc.aux_counts.push_back(outcome.aux_count);
        }
        return acc;
      });
}

namespace {

template <typename SampleOne>
UtilityStats evaluate_utility_impl(std::size_t n, std::size_t top_k,
                                   const poi::PoiDatabase& db,
                                   std::span<const geo::Point> locations,
                                   double r, SampleOne&& sample_one) {
  const obs::Span span(EvalMetrics::get().utility_seconds);
  struct Acc {
    UtilityStats stats;
    double sum = 0.0;
  };
  Acc acc = common::ordered_reduce(
      common::global_pool(), n, kLocationChunk, Acc{},
      [&](std::size_t i) {
        const geo::Point l = locations[i];
        const poi::FrequencyVector truth = db.freq(l, r);
        return poi::top_k_jaccard(truth, sample_one(i, l), top_k);
      },
      [](Acc a, double jaccard) {
        a.sum += jaccard;
        ++a.stats.samples;
        return a;
      });
  acc.stats.mean_jaccard =
      acc.stats.samples ? acc.sum / static_cast<double>(acc.stats.samples)
                        : 0.0;
  return acc.stats;
}

}  // namespace

UtilityStats evaluate_utility(const poi::PoiDatabase& db,
                              std::span<const geo::Point> locations, double r,
                              const ReleaseFn& release, std::size_t top_k) {
  return evaluate_utility_impl(
      locations.size(), top_k, db, locations, r,
      [&](std::size_t, geo::Point l) { return release(l, r); });
}

UtilityStats evaluate_utility(const poi::PoiDatabase& db,
                              std::span<const geo::Point> locations, double r,
                              const SeededReleaseFn& release,
                              std::uint64_t release_seed, std::size_t top_k) {
  const common::Rng base(release_seed);
  return evaluate_utility_impl(locations.size(), top_k, db, locations, r,
                               [&](std::size_t i, geo::Point l) {
                                 common::Rng rng = base.substream(i);
                                 return release(l, r, rng);
                               });
}

}  // namespace poiprivacy::eval
