// Extension experiment: streaming cross-release linkage at population
// scale. A 100K-user synthetic Beijing taxi population releases POI
// aggregates at every trajectory fix; one attack::LinkageEngine::Tracker
// per user streams the releases, intersecting distance-consistent
// candidate sets release by release. Reports per-release-count linkage
// quality (candidates, survivors, uniqueness, correctness) and — with
// --json — a 25K/50K/100K scaling sweep whose fitted exponent
// demonstrates the blocked engine's subquadratic cost.
//
// Determinism: the report table is computed from integer sums folded via
// ordered_reduce, so stdout is byte-identical for every --threads value;
// wall-clock timings go only into the JSON document. --smoke shrinks the
// population and additionally asserts (via the poibench allocation hook)
// that the trajectory-store fill performs zero heap allocations once the
// store is sized.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "attack/linkage_engine.h"
#include "bench_common.h"
#include "common/alloc_count.h"
#include "common/stopwatch.h"
#include "eval/json.h"
#include "scenarios/scenarios.h"
#include "traj/generators.h"

namespace poiprivacy::bench {

namespace {

/// Integer linkage tallies, indexed by number of releases observed so
/// far (1-based release counts map to slot t-1). All fields are exact
/// sums, so the ordered fold is trivially bit-identical at every thread
/// count.
struct Tally {
  std::vector<std::int64_t> layer_sum;
  std::vector<std::int64_t> survivor_sum;
  std::vector<std::int64_t> unique_count;
  std::vector<std::int64_t> correct_count;
  std::int64_t users = 0;

  explicit Tally(std::size_t releases = 0)
      : layer_sum(releases, 0),
        survivor_sum(releases, 0),
        unique_count(releases, 0),
        correct_count(releases, 0) {}

  Tally& operator+=(const Tally& other) {
    for (std::size_t t = 0; t < layer_sum.size(); ++t) {
      layer_sum[t] += other.layer_sum[t];
      survivor_sum[t] += other.survivor_sum[t];
      unique_count[t] += other.unique_count[t];
      correct_count[t] += other.correct_count[t];
    }
    users += other.users;
    return *this;
  }
};

/// Streams the first `num_users` users of `store` through per-user
/// trackers, in parallel chunks with an ordered fold.
Tally run_linkage(const attack::LinkageEngine& engine,
                  const traj::TrajectoryStore& store, std::size_t num_users,
                  double r, common::ThreadPool& pool) {
  const std::size_t releases = store.points_per_user();
  constexpr std::size_t kChunk = 256;
  const std::size_t num_chunks = (num_users + kChunk - 1) / kChunk;
  return common::ordered_reduce(
      pool, num_chunks, 1, Tally(releases),
      [&](std::size_t chunk) {
        const std::size_t begin = chunk * kChunk;
        const std::size_t end = std::min(num_users, begin + kChunk);
        Tally tally(releases);
        // One tracker and one release buffer per chunk: after the first
        // user warms their capacity, the stream is allocation-free.
        attack::LinkageEngine::Tracker tracker(engine);
        poi::FrequencyVector released;
        for (std::size_t u = begin; u < end; ++u) {
          const std::span<const traj::TrackPoint> points = store.user_points(u);
          const geo::Point truth = points.front().pos;
          tracker.reset();
          for (std::size_t t = 0; t < points.size(); ++t) {
            engine.db().freq_into(points[t].pos, r, released);
            const std::size_t survivors =
                tracker.observe(released, points[t].time);
            tally.layer_sum[t] +=
                static_cast<std::int64_t>(tracker.last_layer_size());
            tally.survivor_sum[t] += static_cast<std::int64_t>(survivors);
            if (tracker.unique()) {
              tally.unique_count[t] += 1;
              const geo::Point anchor =
                  engine.db().poi(tracker.survivors().front()).pos;
              tally.correct_count[t] +=
                  geo::distance(anchor, truth) <= r + 1e-9;
            }
          }
          tally.users += 1;
        }
        return tally;
      },
      [](Tally acc, Tally part) {
        acc += part;
        return acc;
      });
}

int run(const eval::BenchOptions& options) {
  const bool smoke = options.flags.get("smoke", false);
  const double r = options.flags.get("r", 1.0);
  const auto users = static_cast<std::size_t>(options.flags.get(
      "users", static_cast<std::int64_t>(smoke ? 400 : 100000)));
  const auto releases = static_cast<std::size_t>(options.flags.get(
      "releases", static_cast<std::int64_t>(smoke ? 5 : 8)));
  const auto train_cap = static_cast<std::size_t>(options.flags.get(
      "train", static_cast<std::int64_t>(smoke ? 64 : 200)));
  const std::string json_path = options.flags.get("json", std::string());

  options.print_context(
      "Extension — streaming cross-release linkage at population scale "
      "(r = " +
      common::fmt(r, 1) + " km, synthetic Beijing, " +
      std::to_string(users) + " users x " + std::to_string(releases) +
      " releases)");
  const poi::City city = poi::generate_city(poi::beijing_preset(), options.seed);
  const poi::PoiDatabase& db = city.db;

  // Attacker prior: a small serial taxi corpus (independent seed stream)
  // trains the pairwise SVR the engine's step filter runs on.
  traj::TaxiConfig train_config;
  train_config.num_taxis = smoke ? 20 : 60;
  train_config.points_per_taxi = 40;
  common::Rng train_rng(options.seed + 1);
  const std::vector<traj::Trajectory> train_trajectories =
      traj::generate_taxi_trajectories(city, train_config, train_rng);
  std::vector<traj::ReleasePair> pairs =
      traj::extract_release_pairs(train_trajectories, db, r, 10 * 60);
  if (pairs.size() < 40) {
    std::cout << "not enough training pairs (" << pairs.size() << ")\n";
    return 1;
  }
  if (pairs.size() > train_cap) pairs.resize(train_cap);
  const attack::TrajectoryAttack pairwise(
      db, pairs, r, attack::TrajectoryAttackConfig{}, train_rng);
  const attack::LinkageEngine engine(db, pairwise, r);

  common::ThreadPool& pool = common::global_pool();

  // Target population: one release per trajectory fix, per-user RNG
  // substreams, filled in parallel (bit-identical to the serial fill).
  traj::TaxiConfig population_config;
  population_config.num_taxis = users;
  population_config.points_per_taxi = releases;
  traj::TrajectoryStore store;
  common::Stopwatch generation_watch;
  traj::fill_taxi_store(city, population_config, options.seed + 2, store,
                        pool);
  const double generation_s = generation_watch.seconds();

  if (smoke) {
    // S2 regression gate: the sized store fill must not allocate. The
    // poibench binary links the counting allocator, so a regression
    // (e.g. a reallocating point buffer or an allocating RNG helper)
    // fails here; in binaries without the hook the delta is trivially 0
    // and the line below stays byte-identical.
    traj::TrajectoryStore probe;
    traj::TaxiConfig probe_config = population_config;
    probe_config.num_taxis = std::min<std::size_t>(users, 64);
    probe.resize(probe_config.num_taxis, probe_config.points_per_taxi);
    const std::uint64_t before = common::thread_allocation_count();
    traj::fill_taxi_store(city, probe_config, options.seed + 2, probe);
    const std::uint64_t delta =
        common::thread_allocation_count() - before;
    if (delta != 0) {
      std::cout << "alloc check: FAIL (" << delta
                << " allocations in sized store fill)\n";
      return 1;
    }
    std::cout << "alloc check: pass (sized store fill allocates nothing)\n";
  }

  // Scaling sweep: quarter, half, full population (full run only); the
  // smoke gate runs the single full-population scale. Timings are
  // reported in JSON only, so stdout stays a pure function of the flags.
  std::vector<std::size_t> scales;
  if (!smoke && users >= 4) {
    scales = {users / 4, users / 2, users};
  } else {
    scales = {users};
  }
  // With --json, one untimed pass over the first scale fills the
  // database's anchor cache first, so the timed sweep does not charge its
  // first scale with the cold fills. Its tally is discarded, and stdout
  // does not depend on it.
  if (!json_path.empty()) {
    (void)run_linkage(engine, store, scales.front(), r, pool);
  }
  std::vector<double> wall_s(scales.size(), 0.0);
  std::vector<Tally> tallies;
  tallies.reserve(scales.size());
  for (std::size_t s = 0; s < scales.size(); ++s) {
    common::Stopwatch watch;
    tallies.push_back(run_linkage(engine, store, scales[s], r, pool));
    wall_s[s] = watch.seconds();
  }
  const Tally& full = tallies.back();

  eval::Table table({"releases", "mean candidates", "mean survivors",
                     "unique rate", "correct rate"});
  const auto rate = [&](std::int64_t n) {
    return common::fmt(full.users > 0
                           ? static_cast<double>(n) /
                                 static_cast<double>(full.users)
                           : 0.0);
  };
  for (std::size_t t = 0; t < releases; ++t) {
    table.add_row({std::to_string(t + 1), rate(full.layer_sum[t]),
                   rate(full.survivor_sum[t]), rate(full.unique_count[t]),
                   rate(full.correct_count[t])});
  }
  eval::print_section(std::cout,
                      "streaming linkage vs releases observed (" +
                          std::to_string(full.users) + " users)");
  table.print(std::cout);
  eval::print_note(std::cout,
                   "expected: survivor sets shrink monotonically as "
                   "releases accumulate, so uniqueness — and with it "
                   "correct first-location linkage — grows with the "
                   "stream length");

  if (!json_path.empty()) {
    eval::JsonWriter json;
    json.begin_object();
    json.field("scenario", "linkage_100k");
    json.field("seed", static_cast<std::uint64_t>(options.seed));
    json.field("r_km", r);
    json.field("users", static_cast<std::uint64_t>(users));
    json.field("releases", static_cast<std::uint64_t>(releases));
    json.field("threads", static_cast<std::uint64_t>(pool.concurrency()));
    json.key("generation");
    json.begin_object();
    json.field("points", static_cast<std::uint64_t>(store.total_points()));
    json.field("wall_s", generation_s);
    json.end_object();
    json.key("scales");
    json.begin_array();
    for (std::size_t s = 0; s < scales.size(); ++s) {
      json.begin_object();
      json.field("users", static_cast<std::uint64_t>(scales[s]));
      json.field("linkage_wall_s", wall_s[s]);
      json.field("users_per_sec",
                 wall_s[s] > 0.0
                     ? static_cast<double>(scales[s]) / wall_s[s]
                     : 0.0);
      const Tally& tally = tallies[s];
      json.field("unique_rate",
                 tally.users > 0
                     ? static_cast<double>(tally.unique_count.back()) /
                           static_cast<double>(tally.users)
                     : 0.0);
      json.end_object();
    }
    json.end_array();
    if (scales.size() >= 2) {
      // Least-squares slope of log(time) vs log(users): the measured
      // scaling exponent (1.0 = linear, 2.0 = quadratic).
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      for (std::size_t s = 0; s < scales.size(); ++s) {
        const double x = std::log(static_cast<double>(scales[s]));
        const double y = std::log(std::max(wall_s[s], 1e-9));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
      }
      const double n = static_cast<double>(scales.size());
      json.field("scaling_exponent",
                 (n * sxy - sx * sy) / (n * sxx - sx * sx));
    }
    json.end_object();
    std::ofstream out(json_path == "-" ? "/dev/stdout" : json_path);
    out << json.str() << "\n";
    if (!out) return 1;
  }
  return 0;
}

}  // namespace

void register_linkage_100k(eval::ScenarioRegistry& registry) {
  registry.add({
      .name = "linkage_100k",
      .description = "Extension: streaming cross-release linkage engine at "
                     "population scale (--json FILE for the scaling sweep)",
      .extra_flags = {"r", "users", "releases", "train", "json", "smoke"},
      .smoke_args = {"--smoke", "--seed", "4242"},
      .run = run,
  });
}

}  // namespace poiprivacy::bench
