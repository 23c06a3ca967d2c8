// Property suite for attack::LinkageEngine (see src/attack/linkage_engine.h).
//
// Two oracles pin the engine's two solvers across 200 seeded
// (city, trajectory, releases) cases:
//
//   * solve_chain (through ChainAttack::infer) against a verbatim copy of
//     the historical all-pairs backward sweep — hypot distances, dense
//     bool layers, transparent all-dead fallback. This is the
//     byte-compatibility contract: the blocking index, the squared
//     annulus test, and the unique-layer short-circuit must never change
//     a survivor set.
//
//   * Tracker against a naive set-based forward reference implementing
//     the streaming semantics directly (no index, no bitsets). The
//     tracker's survivor prefix must match the reference after every
//     release, and must be monotone non-increasing — the invariant the
//     backward sweep deliberately does not have.
//
// A third group checks the population-scale plumbing: parallel
// trajectory-store fills and chunked ordered_reduce linkage must be
// bit-identical to their serial counterparts (run under TSan via the
// `tsan` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "attack/chain_attack.h"
#include "attack/linkage_engine.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "poi/city_model.h"
#include "traj/generators.h"

namespace poiprivacy::attack {
namespace {

constexpr double kRadiusKm = 0.8;

/// One reusable test city with its trained pairwise attack and engine.
struct LinkageFixture {
  explicit LinkageFixture(std::uint64_t city_seed)
      : city(poi::generate_city(poi::test_preset(), city_seed)) {
    common::Rng rng(1000 + city_seed);
    traj::TaxiConfig taxi_config;
    taxi_config.num_taxis = 30;
    taxi_config.points_per_taxi = 30;
    const auto trajectories =
        traj::generate_taxi_trajectories(city, taxi_config, rng);
    const auto pairs =
        traj::extract_release_pairs(trajectories, city.db, kRadiusKm, 600);
    // Fixed tolerance keeps the consistency slack independent of the
    // tiny validation split, so every case exercises a non-degenerate
    // annulus.
    TrajectoryAttackConfig config;
    config.tolerance_km = 0.4;
    pairwise = std::make_unique<TrajectoryAttack>(
        city.db,
        std::span(pairs.data(), std::min<std::size_t>(pairs.size(), 120)),
        kRadiusKm, config, rng);
    chain = std::make_unique<ChainAttack>(city.db, *pairwise, kRadiusKm);
    engine = std::make_unique<LinkageEngine>(city.db, *pairwise, kRadiusKm);
  }

  poi::City city;
  std::unique_ptr<TrajectoryAttack> pairwise;
  std::unique_ptr<ChainAttack> chain;
  std::unique_ptr<LinkageEngine> engine;
};

const std::vector<std::unique_ptr<LinkageFixture>>& fixtures() {
  static const auto* all = [] {
    auto* out = new std::vector<std::unique_ptr<LinkageFixture>>();
    for (std::uint64_t city_seed = 1; city_seed <= 6; ++city_seed) {
      out->push_back(std::make_unique<LinkageFixture>(city_seed));
    }
    return out;
  }();
  return *all;
}

/// One seeded release stream: a short taxi walk, one aggregate per fix;
/// seeds divisible by 3 get a zero-frequency release spliced into the
/// middle (an empty layer the solvers must treat as transparent).
std::vector<TimedRelease> make_releases(const LinkageFixture& f,
                                        std::uint64_t seed) {
  common::Rng rng(seed * 7919 + 13);
  traj::TaxiConfig config;
  config.points_per_taxi = 3 + seed % 5;
  std::vector<traj::TrackPoint> points(config.points_per_taxi);
  traj::generate_taxi_points(f.city, config, rng, points);
  std::vector<TimedRelease> releases;
  for (const traj::TrackPoint& p : points) {
    releases.push_back({f.city.db.freq(p.pos, kRadiusKm), p.time});
  }
  if (seed % 3 == 0 && releases.size() >= 2) {
    TimedRelease blank;
    blank.freq.assign(f.city.db.num_types(), 0);
    blank.time = (releases[0].time + releases[1].time) / 2;
    releases.insert(releases.begin() + 1, std::move(blank));
  }
  std::sort(releases.begin(), releases.end(),
            [](const TimedRelease& a, const TimedRelease& b) {
              return a.time < b.time;
            });
  return releases;
}

/// Verbatim port of the historical ChainAttack backward sweep (all-pairs
/// hypot distances, dense bool layers), applied to the layers and step
/// estimates the new code computed.
std::vector<poi::PoiId> reference_chain_survivors(
    const ChainInferenceResult& result, const poi::PoiDatabase& db,
    double slack) {
  std::vector<std::vector<bool>> alive(result.layers.size());
  for (std::size_t t = 0; t < result.layers.size(); ++t) {
    alive[t].assign(result.layers[t].size(), true);
  }
  for (std::size_t t = result.layers.size() - 1; t-- > 0;) {
    const auto& here = result.layers[t];
    const auto& next = result.layers[t + 1];
    if (here.empty() || next.empty()) continue;
    const double estimate = result.estimated_step_km[t];
    for (std::size_t i = 0; i < here.size(); ++i) {
      const geo::Point pa = db.poi(here[i]).pos;
      bool reachable = false;
      for (std::size_t j = 0; j < next.size() && !reachable; ++j) {
        if (!alive[t + 1][j]) continue;
        const double d = geo::distance(pa, db.poi(next[j]).pos);
        reachable = std::abs(d - estimate) <= slack;
      }
      alive[t][i] = reachable;
    }
    if (std::none_of(alive[t].begin(), alive[t].end(),
                     [](bool b) { return b; })) {
      alive[t].assign(here.size(), true);
    }
  }
  std::vector<poi::PoiId> survivors;
  if (!result.layers.empty()) {
    for (std::size_t i = 0; i < result.layers[0].size(); ++i) {
      if (alive[0][i]) survivors.push_back(result.layers[0][i]);
    }
  }
  return survivors;
}

/// Naive set-based forward streaming reference: the Tracker's defined
/// semantics with per-survivor reachable sets and no blocking index. The
/// consistency predicate is the engine's squared annulus.
class ForwardReference {
 public:
  explicit ForwardReference(const LinkageEngine& engine) : engine_(&engine) {}

  void observe(const TimedRelease& release) {
    RegionReidentifier reid(engine_->db());
    const std::vector<poi::PoiId> layer =
        reid.infer(release.freq, engine_->r()).candidates;
    if (!started_) {
      started_ = true;
      survivors_ = layer;
      reach_.clear();
      for (const poi::PoiId id : layer) reach_.push_back({id});
      remember(release);
      return;
    }
    if (survivors_.empty()) return;
    if (layer.empty()) return;  // transparent: no evidence

    std::vector<double> features;
    const double estimate = engine_->estimate_step_km(
        prev_freq_, release.freq, prev_time_, release.time, features);
    const double lo = std::max(0.0, estimate - engine_->slack_km());
    const double hi = estimate + engine_->slack_km();
    const double lo_sq = lo * lo;
    const double hi_sq = hi * hi;

    std::vector<std::set<poi::PoiId>> next_reach(survivors_.size());
    bool any_alive = false;
    for (std::size_t s = 0; s < survivors_.size(); ++s) {
      for (const poi::PoiId from : reach_[s]) {
        const geo::Point pa = engine_->db().poi(from).pos;
        for (const poi::PoiId to : layer) {
          const double d_sq =
              geo::distance_sq(pa, engine_->db().poi(to).pos);
          if (d_sq >= lo_sq && d_sq <= hi_sq) next_reach[s].insert(to);
        }
      }
      any_alive = any_alive || !next_reach[s].empty();
    }
    if (!any_alive) {
      // Transparent step: keep every survivor, frontier = whole layer.
      for (auto& reach : reach_) {
        reach = std::set<poi::PoiId>(layer.begin(), layer.end());
      }
      remember(release);
      return;
    }
    std::vector<poi::PoiId> kept;
    std::vector<std::set<poi::PoiId>> kept_reach;
    for (std::size_t s = 0; s < survivors_.size(); ++s) {
      if (next_reach[s].empty()) continue;
      kept.push_back(survivors_[s]);
      kept_reach.push_back(std::move(next_reach[s]));
    }
    survivors_ = std::move(kept);
    reach_ = std::move(kept_reach);
    remember(release);
  }

  const std::vector<poi::PoiId>& survivors() const { return survivors_; }

 private:
  void remember(const TimedRelease& release) {
    prev_freq_ = release.freq;
    prev_time_ = release.time;
  }

  const LinkageEngine* engine_;
  bool started_ = false;
  std::vector<poi::PoiId> survivors_;
  std::vector<std::set<poi::PoiId>> reach_;
  poi::FrequencyVector prev_freq_;
  traj::TimeSec prev_time_ = 0;
};

TEST(LinkageProperty, ChainAttackMatchesAllPairsReferenceOn200Cases) {
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const LinkageFixture& f = *fixtures()[seed % fixtures().size()];
    const std::vector<TimedRelease> releases = make_releases(f, seed);
    const ChainInferenceResult result = f.chain->infer(releases);
    const std::vector<poi::PoiId> expected = reference_chain_survivors(
        result, f.city.db, f.pairwise->tolerance_km() + kRadiusKm);
    EXPECT_EQ(result.surviving_first_candidates, expected)
        << "seed " << seed;
    nonempty += !result.surviving_first_candidates.empty();
  }
  // The corpus must actually exercise the solver, not vacuously pass on
  // empty layers.
  EXPECT_GT(nonempty, 100u);
}

TEST(LinkageProperty, TrackerMatchesForwardReferenceAndIsMonotone) {
  std::size_t pruning_steps = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const LinkageFixture& f = *fixtures()[seed % fixtures().size()];
    const std::vector<TimedRelease> releases = make_releases(f, seed);
    LinkageEngine::Tracker tracker(*f.engine);
    ForwardReference reference(*f.engine);
    std::size_t previous = 0;
    for (std::size_t t = 0; t < releases.size(); ++t) {
      tracker.observe(releases[t].freq, releases[t].time);
      reference.observe(releases[t]);
      const std::vector<poi::PoiId> got(tracker.survivors().begin(),
                                        tracker.survivors().end());
      ASSERT_EQ(got, reference.survivors())
          << "seed " << seed << " release " << t;
      if (t > 0) {
        // Monotone: more releases never grow the survivor set.
        ASSERT_LE(got.size(), previous) << "seed " << seed;
        pruning_steps += got.size() < previous;
      }
      previous = got.size();
    }
  }
  // The corpus must contain real pruning, not only transparent steps
  // (44 pruning steps with the seeds above; deterministic).
  EXPECT_GT(pruning_steps, 25u);
}

TEST(LinkageProperty, UniqueTrackerIsFinalAndLayerSizeMatchesBaseline) {
  std::size_t unique_then_observed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const LinkageFixture& f = *fixtures()[seed % fixtures().size()];
    const std::vector<TimedRelease> releases = make_releases(f, seed);
    const RegionReidentifier reid(f.city.db);
    LinkageEngine::Tracker tracker(*f.engine);
    std::vector<poi::PoiId> final_survivors;
    for (std::size_t t = 0; t < releases.size(); ++t) {
      const bool was_unique = tracker.unique();
      tracker.observe(releases[t].freq, releases[t].time);
      // The layer is computed on every release, unique tracker or not.
      ASSERT_EQ(tracker.last_layer_size(),
                reid.infer(releases[t].freq, kRadiusKm).candidates.size())
          << "seed " << seed << " release " << t;
      const std::vector<poi::PoiId> got(tracker.survivors().begin(),
                                        tracker.survivors().end());
      if (was_unique) {
        // A unique tracker's survivor is final.
        ASSERT_EQ(got, final_survivors) << "seed " << seed << " release " << t;
        ++unique_then_observed;
      } else {
        final_survivors = got;
      }
    }
  }
  // The corpus must reach the lone-survivor case, not pass vacuously.
  EXPECT_GT(unique_then_observed, 25u);
}

TEST(LinkageProperty, TrackerResetReproducesFreshTracker) {
  const LinkageFixture& f = *fixtures().front();
  LinkageEngine::Tracker reused(*f.engine);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<TimedRelease> releases = make_releases(f, seed);
    reused.reset();
    LinkageEngine::Tracker fresh(*f.engine);
    for (const TimedRelease& release : releases) {
      reused.observe(release.freq, release.time);
      fresh.observe(release.freq, release.time);
    }
    const std::vector<poi::PoiId> a(reused.survivors().begin(),
                                    reused.survivors().end());
    const std::vector<poi::PoiId> b(fresh.survivors().begin(),
                                    fresh.survivors().end());
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

// A release whose length is not the city's type count is rejected before
// the tracker changes: it stays unstarted, and the same stream afterwards
// ends where a fresh tracker does.
TEST(LinkageProperty, TrackerRejectsReleaseOfWrongLength) {
  const LinkageFixture& f = *fixtures().front();
  const std::size_t m = f.city.db.num_types();
  LinkageEngine::Tracker tracker(*f.engine);
  for (const std::size_t size : {m - 1, m + 1}) {
    const poi::FrequencyVector released(size, 1);
    EXPECT_THROW(tracker.observe(released, 0), std::invalid_argument)
        << "size " << size;
    EXPECT_EQ(tracker.releases_seen(), 0u);
  }
  const std::vector<TimedRelease> releases = make_releases(f, 4);
  LinkageEngine::Tracker fresh(*f.engine);
  for (const TimedRelease& release : releases) {
    tracker.observe(release.freq, release.time);
    fresh.observe(release.freq, release.time);
  }
  const std::vector<poi::PoiId> a(tracker.survivors().begin(),
                                  tracker.survivors().end());
  const std::vector<poi::PoiId> b(fresh.survivors().begin(),
                                  fresh.survivors().end());
  EXPECT_EQ(a, b);
}

TEST(LinkageProperty, ParallelStoreFillMatchesSerial) {
  const LinkageFixture& f = *fixtures().front();
  traj::TaxiConfig config;
  config.num_taxis = 300;
  config.points_per_taxi = 6;
  traj::TrajectoryStore serial, parallel;
  traj::fill_taxi_store(f.city, config, 99, serial);
  common::ThreadPool pool(4);
  traj::fill_taxi_store(f.city, config, 99, parallel, pool);
  ASSERT_EQ(serial.total_points(), parallel.total_points());
  for (std::size_t u = 0; u < serial.num_users(); ++u) {
    const auto a = serial.user_points(u);
    const auto b = parallel.user_points(u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].pos, b[i].pos) << "user " << u << " point " << i;
      ASSERT_EQ(a[i].time, b[i].time) << "user " << u << " point " << i;
    }
  }
}

/// The linkage_100k aggregation shape: chunked trackers folded in index
/// order must give identical tallies at 1 and 4 threads (and be
/// data-race-free under TSan).
TEST(LinkageProperty, ParallelLinkageMatchesSerial) {
  const LinkageFixture& f = *fixtures().front();
  traj::TaxiConfig config;
  config.num_taxis = 96;
  config.points_per_taxi = 4;
  traj::TrajectoryStore store;
  traj::fill_taxi_store(f.city, config, 7, store);

  const auto run_pass = [&](common::ThreadPool& pool) {
    constexpr std::size_t kChunk = 16;
    const std::size_t num_chunks =
        (store.num_users() + kChunk - 1) / kChunk;
    return common::ordered_reduce(
        pool, num_chunks, 1, std::vector<std::size_t>(),
        [&](std::size_t chunk) {
          std::vector<std::size_t> counts;
          LinkageEngine::Tracker tracker(*f.engine);
          poi::FrequencyVector released;
          const std::size_t begin = chunk * kChunk;
          const std::size_t end =
              std::min(store.num_users(), begin + kChunk);
          for (std::size_t u = begin; u < end; ++u) {
            tracker.reset();
            for (const traj::TrackPoint& p : store.user_points(u)) {
              f.city.db.freq_into(p.pos, kRadiusKm, released);
              tracker.observe(released, p.time);
            }
            counts.push_back(tracker.survivors().size());
          }
          return counts;
        },
        [](std::vector<std::size_t> acc, std::vector<std::size_t> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
  };

  common::ThreadPool serial_pool(1);
  common::ThreadPool parallel_pool(4);
  const std::vector<std::size_t> serial = run_pass(serial_pool);
  const std::vector<std::size_t> parallel = run_pass(parallel_pool);
  ASSERT_EQ(serial.size(), store.num_users());
  EXPECT_EQ(serial, parallel);
}

/// The block index's queries at one probe against a linear scan of
/// `layer` in the same squared form: annulus_mask_into, and
/// any_in_annulus with every candidate alive and with the `alive` mask.
::testing::AssertionResult annulus_matches_linear_scan(
    const CandidateBlockIndex& index, const poi::PoiDatabase& db,
    std::span<const poi::PoiId> layer, geo::Point p, double lo, double hi,
    std::span<const std::uint64_t> alive) {
  const auto bit = [](std::span<const std::uint64_t> words, std::size_t j) {
    return ((words[j >> 6] >> (j & 63)) & 1) != 0;
  };
  std::vector<std::uint64_t> mask((layer.size() + 63) / 64, 0);
  index.annulus_mask_into(p, lo, hi, mask);
  bool any_expected = false;
  bool any_alive_expected = false;
  for (std::size_t j = 0; j < layer.size(); ++j) {
    const double d_sq = geo::distance_sq(p, db.poi(layer[j]).pos);
    const bool in = d_sq >= lo * lo && d_sq <= hi * hi;
    if (bit(mask, j) != in) {
      return ::testing::AssertionFailure()
             << "mask bit " << j << " of " << layer.size() << " is "
             << bit(mask, j) << " at probe (" << p.x << ", " << p.y
             << ") lo=" << lo << " hi=" << hi;
    }
    any_expected = any_expected || in;
    any_alive_expected = any_alive_expected || (in && bit(alive, j));
  }
  if (index.any_in_annulus(p, lo, hi, {}) != any_expected) {
    return ::testing::AssertionFailure()
           << "any_in_annulus (all alive) != " << any_expected << " at probe ("
           << p.x << ", " << p.y << ") lo=" << lo << " hi=" << hi;
  }
  if (index.any_in_annulus(p, lo, hi, alive) != any_alive_expected) {
    return ::testing::AssertionFailure()
           << "any_in_annulus (masked) != " << any_alive_expected
           << " at probe (" << p.x << ", " << p.y << ") lo=" << lo
           << " hi=" << hi;
  }
  return ::testing::AssertionSuccess();
}

/// A random alive mask over n candidates with at least one bit set (when
/// n > 0); densities range from sparse to nearly full.
std::vector<std::uint64_t> random_alive(common::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> alive((n + 63) / 64, 0);
  if (n == 0) return alive;
  const double density = std::array{0.02, 0.3, 0.9}[rng.uniform_int(0, 2)];
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.bernoulli(density)) alive[j >> 6] |= std::uint64_t{1} << (j & 63);
  }
  const auto j = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  alive[j >> 6] |= std::uint64_t{1} << (j & 63);
  return alive;
}

/// Drives `probes` random queries at `layer`: probes within 1 km of the
/// bounds or 50 km outside them, and annuli that are ordinary, hi = 0,
/// lo == hi (sometimes exactly a candidate's distance), or reach beyond
/// the city diagonal; each query also runs any_in_annulus under a fresh
/// random alive mask.
void check_random_annuli(const CandidateBlockIndex& index,
                         const poi::PoiDatabase& db,
                         std::span<const poi::PoiId> layer, int probes,
                         common::Rng& rng) {
  const geo::BBox& b = db.bounds();
  const double diagonal = std::hypot(b.width(), b.height());
  for (int probe = 0; probe < probes; ++probe) {
    geo::Point p{rng.uniform(b.min_x - 1.0, b.max_x + 1.0),
                 rng.uniform(b.min_y - 1.0, b.max_y + 1.0)};
    if (rng.bernoulli(0.25)) {
      const double side = rng.bernoulli(0.5) ? 50.0 : -50.0;
      const int axes = static_cast<int>(rng.uniform_int(0, 2));
      if (axes != 1) p.x = side > 0 ? b.max_x + side : b.min_x + side;
      if (axes != 0) p.y = side > 0 ? b.max_y + side : b.min_y + side;
    }
    double lo = rng.uniform(0.0, 3.0);
    double hi = lo + rng.uniform(0.0, 4.0);
    switch (rng.uniform_int(0, 4)) {
      case 0:
        break;
      case 1:
        lo = hi = 0.0;
        break;
      case 2:
        hi = lo;
        break;
      case 3:
        hi = diagonal + rng.uniform(0.0, 60.0);
        break;
      default:
        if (!layer.empty()) {
          const poi::PoiId id = layer[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(layer.size()) - 1))];
          lo = hi = std::sqrt(geo::distance_sq(p, db.poi(id).pos));
        }
        break;
    }
    const std::vector<std::uint64_t> alive = random_alive(rng, layer.size());
    ASSERT_TRUE(annulus_matches_linear_scan(index, db, layer, p, lo, hi, alive))
        << "probe " << probe;
  }
}

TEST(LinkageProperty, BlockIndexAnnulusMatchesLinearScan) {
  const LinkageFixture& f = *fixtures().front();
  const AttackContext ctx(f.city.db);
  common::Rng rng(5);
  // Candidate pool: every POI id, shuffled, in odd-size slices and whole.
  std::vector<poi::PoiId> ids(f.city.db.pois().size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<poi::PoiId>(i);
  }
  rng.shuffle(ids);
  CandidateBlockIndex index;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{23}, std::size_t{40}, ids.size()}) {
    const std::span<const poi::PoiId> slice(
        ids.data(), std::min<std::size_t>(n, ids.size()));
    index.build(ctx, slice);
    ASSERT_EQ(index.size(), slice.size());
    check_random_annuli(index, f.city.db, slice, 100, rng);
  }
}

// The whole largest-type layer of the Beijing preset (the tracker's
// realistic worst case) and the whole POI set, so a query's reach covers
// a small part of a grid of hundreds of buckets.
TEST(LinkageProperty, BlockIndexAnnulusMatchesLinearScanOnLargeLayers) {
  const poi::City city = poi::generate_city(poi::beijing_preset(), 42);
  const poi::PoiDatabase& db = city.db;
  const AttackContext ctx(db);
  poi::TypeId big_type = 0;
  for (poi::TypeId t = 0; t < db.num_types(); ++t) {
    if (db.pois_of_type(t).size() > db.pois_of_type(big_type).size()) {
      big_type = t;
    }
  }
  std::vector<poi::PoiId> all(db.pois().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<poi::PoiId>(i);
  }
  common::Rng rng(17);
  CandidateBlockIndex index;
  index.build(ctx, db.pois_of_type(big_type));
  EXPECT_GE(index.num_buckets(), 500u);
  check_random_annuli(index, db, db.pois_of_type(big_type), 300, rng);
  index.build(ctx, all);
  EXPECT_GE(index.num_buckets(), 1000u);
  check_random_annuli(index, db, all, 100, rng);
}

// Candidates and probes on tile edges (1 km tiles from the origin), one
// ulp either side of them, and outside the bounds, where they clamp into
// the edge tiles; integer annuli put candidates exactly on lo and hi.
TEST(LinkageProperty, BlockIndexAnnulusExactOnTileEdges) {
  poi::PoiTypeRegistry registry;
  const poi::TypeId type = registry.intern("edge");
  std::vector<double> coords;
  for (const double c : {-50.0, -0.5, 0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 8.0,
                         10.0, 10.5, 60.0}) {
    coords.push_back(std::nextafter(c, -1e9));
    coords.push_back(c);
    coords.push_back(std::nextafter(c, 1e9));
  }
  std::vector<poi::Poi> pois;
  for (const double x : coords) {
    for (const double y : coords) {
      pois.push_back({static_cast<poi::PoiId>(pois.size()), type, {x, y}});
    }
  }
  const poi::PoiDatabase db("tile-edges", std::move(pois), std::move(registry),
                            {0.0, 0.0, 10.0, 10.0});
  const AttackContext ctx(db);
  std::vector<poi::PoiId> layer(db.pois().size());
  for (std::size_t i = 0; i < layer.size(); ++i) {
    layer[i] = static_cast<poi::PoiId>(i);
  }
  CandidateBlockIndex index;
  index.build(ctx, layer);
  common::Rng rng(29);
  for (const double px : {-0.5, 0.0, 2.0, 3.0, 7.0, 10.0, 12.0}) {
    for (const double py : {0.0, 1.0, 5.0, 10.0}) {
      for (const double lo : {0.0, 1.0, 2.0, 3.0}) {
        for (const double width : {0.0, 1.0, 2.0, 5.0}) {
          const std::vector<std::uint64_t> alive =
              random_alive(rng, layer.size());
          ASSERT_TRUE(annulus_matches_linear_scan(
              index, db, layer, {px, py}, lo, lo + width, alive));
          ASSERT_TRUE(annulus_matches_linear_scan(
              index, db, layer,
              {std::nextafter(px, 1e9), std::nextafter(py, -1e9)}, lo,
              lo + width, alive));
        }
      }
    }
  }
  check_random_annuli(index, db, layer, 200, rng);
}

// Non-finite and astronomically large probes and annuli: the index
// clamps its visited tile range and still agrees with the linear scan,
// including where hi² overflows to infinity and accepts every candidate.
TEST(LinkageProperty, BlockIndexAnnulusMatchesLinearScanOnNonFiniteInputs) {
  const LinkageFixture& f = *fixtures().front();
  const AttackContext ctx(f.city.db);
  std::vector<poi::PoiId> layer(f.city.db.pois().size());
  for (std::size_t i = 0; i < layer.size(); ++i) {
    layer[i] = static_cast<poi::PoiId>(i);
  }
  CandidateBlockIndex index;
  index.build(ctx, layer);
  common::Rng rng(31);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::array extremes{kNaN, kInf, -kInf, 1e300, -1e300, 4.0};
  for (const double px : extremes) {
    for (const double py : extremes) {
      for (const double lo : {0.0, 2.0, kNaN, 1e300}) {
        for (const double hi : {3.0, -3.0, kNaN, kInf, -kInf, 1e300, 1e200}) {
          const std::vector<std::uint64_t> alive =
              random_alive(rng, layer.size());
          ASSERT_TRUE(annulus_matches_linear_scan(index, f.city.db, layer,
                                                  {px, py}, lo, hi, alive));
        }
      }
    }
  }
}

}  // namespace
}  // namespace poiprivacy::attack
