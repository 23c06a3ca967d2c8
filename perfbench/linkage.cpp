// attack_linkage: the streaming cross-release linkage attack.
//
// Set-up generates the (fixed) city, trains the pairwise SVR on a small
// taxi corpus, fills a seeded kUsers x kReleases taxi store and runs one untimed
// round over it (filling the anchor cache, the tile aggregates and the
// trackers' scratch). The timed phase streams every user's releases
// (freq_into -> Tracker::observe) in rounds on one thread, each round on
// the next CPU (see pin_to_cpu), until --seconds have passed.
//
// Output check: the integer tallies (survivor sums, unique and correct
// counts per release) repeat in every round and in one more round on
// kCheckThreads threads, chunks folded in order.
//
// Traced run: the same stream serially with a span per freq_into and
// per observe, then the tracker's steps replayed one by one on the same
// releases — layer_into (candidate enumeration + envelope pruning),
// estimate_step_km (SVR), CandidateBlockIndex::build — whose spans are
// subtracted from observe's to give the linkage step's self time.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "attack/linkage_engine.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "traj/generators.h"
#include "workloads.h"

namespace perfbench {

namespace attack = poiprivacy::attack;
namespace common = poiprivacy::common;
namespace geo = poiprivacy::geo;
namespace traj = poiprivacy::traj;

namespace {

constexpr double kRadiusKm = 1.0;
constexpr std::size_t kReleases = 8;
constexpr std::size_t kUsers = 2048;
constexpr std::size_t kProbeUsers = 256;
constexpr std::size_t kSmokeUsers = 64;
/// Timed rounds run on one thread, rotated over the CPUs like the
/// serving rounds; the tally check repeats a round on kCheckThreads.
constexpr std::size_t kCheckThreads = 2;
constexpr std::size_t kChunk = 256;

/// Integer linkage tallies per release index; exact sums, so every
/// thread count and every repetition must reproduce them.
struct Tally {
  std::vector<std::int64_t> layer_sum = std::vector<std::int64_t>(kReleases);
  std::vector<std::int64_t> survivor_sum =
      std::vector<std::int64_t>(kReleases);
  std::vector<std::int64_t> unique_count =
      std::vector<std::int64_t>(kReleases);
  std::vector<std::int64_t> correct_count =
      std::vector<std::int64_t>(kReleases);

  Tally& operator+=(const Tally& other) {
    for (std::size_t t = 0; t < kReleases; ++t) {
      layer_sum[t] += other.layer_sum[t];
      survivor_sum[t] += other.survivor_sum[t];
      unique_count[t] += other.unique_count[t];
      correct_count[t] += other.correct_count[t];
    }
    return *this;
  }
  friend bool operator==(const Tally&, const Tally&) = default;
};

/// The attacker's prior: a pairwise SVR trained on a fixed taxi corpus.
std::unique_ptr<attack::TrajectoryAttack> train(const poi::City& city,
                                                bool smoke) {
  traj::TaxiConfig config;
  config.num_taxis = smoke ? 20 : 60;
  config.points_per_taxi = 40;
  common::Rng rng(kCitySeed + 1);
  const std::vector<traj::Trajectory> corpus =
      traj::generate_taxi_trajectories(city, config, rng);
  std::vector<traj::ReleasePair> pairs =
      traj::extract_release_pairs(corpus, city.db, kRadiusKm, 10 * 60);
  if (pairs.size() < 40) {
    throw std::runtime_error("linkage: too few training pairs");
  }
  pairs.resize(std::min<std::size_t>(pairs.size(), smoke ? 64 : 200));
  return std::make_unique<attack::TrajectoryAttack>(
      city.db, pairs, kRadiusKm, attack::TrajectoryAttackConfig{}, rng);
}

struct LinkageState {
  LinkageState(std::uint64_t seed, std::size_t users, bool smoke)
      : city(poi::generate_city(poi::beijing_preset(), kCitySeed)),
        pairwise(train(city, smoke)),
        engine(city.db, *pairwise, kRadiusKm) {
    traj::TaxiConfig population;
    population.num_taxis = users;
    population.points_per_taxi = kReleases;
    traj::fill_taxi_store(city, population, seed + 2, store);
  }

  poi::City city;
  std::unique_ptr<attack::TrajectoryAttack> pairwise;
  attack::LinkageEngine engine;
  traj::TrajectoryStore store;
};

/// Streams users [begin, end) through one tracker. `latency_us` (when
/// given) receives each release's freq_into + observe time.
Tally stream_users(const LinkageState& state, std::size_t begin,
                   std::size_t end, std::vector<double>* latency_us) {
  Tally tally;
  attack::LinkageEngine::Tracker tracker(state.engine);
  poi::FrequencyVector released;
  for (std::size_t u = begin; u < end; ++u) {
    const std::span<const traj::TrackPoint> points = state.store.user_points(u);
    const geo::Point truth = points.front().pos;
    tracker.reset();
    for (std::size_t t = 0; t < points.size(); ++t) {
      const std::int64_t t0 = latency_us ? now_ns() : 0;
      state.city.db.freq_into(points[t].pos, kRadiusKm, released);
      const std::size_t survivors = tracker.observe(released, points[t].time);
      if (latency_us) {
        latency_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      tally.layer_sum[t] += static_cast<std::int64_t>(tracker.last_layer_size());
      tally.survivor_sum[t] += static_cast<std::int64_t>(survivors);
      if (tracker.unique()) {
        tally.unique_count[t] += 1;
        const geo::Point anchor =
            state.city.db.poi(tracker.survivors().front()).pos;
        tally.correct_count[t] += geo::distance(anchor, truth) <= kRadiusKm + 1e-9;
      }
    }
  }
  return tally;
}

/// One round over the whole population on `pool`, chunks folded in
/// order.
Tally round(const LinkageState& state, common::ThreadPool& pool,
            std::vector<std::vector<double>>* latency_us) {
  const std::size_t users = state.store.num_users();
  const std::size_t chunks = (users + kChunk - 1) / kChunk;
  if (latency_us) latency_us->assign(chunks, {});
  return common::ordered_reduce(
      pool, chunks, 1, Tally{},
      [&](std::size_t c) {
        return stream_users(state, c * kChunk,
                            std::min(users, (c + 1) * kChunk),
                            latency_us ? &(*latency_us)[c] : nullptr);
      },
      [](Tally acc, const Tally& part) {
        acc += part;
        return acc;
      });
}

std::size_t population(const Options& options, bool full) {
  if (options.smoke) return kSmokeUsers;
  return full ? kUsers : kProbeUsers;
}

}  // namespace

void run_linkage(const Options& options, Outcome& out) {
  const std::size_t users = population(options, true);
  common::ThreadPool pool(1);
  std::unique_ptr<LinkageState> state;
  const double setup_s = timed_setup(state, kSetupReps, [&] {
    auto made = std::make_unique<LinkageState>(options.seed, users,
                                               options.smoke);
    round(*made, pool, nullptr);  // warm-up
    return made;
  });
  const double releases = static_cast<double>(users * kReleases);

  std::vector<double> throughput, cpu_us, p50, p99;
  std::vector<std::vector<double>> latency;
  Tally first;
  std::size_t rounds = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (;; ++rounds) {
    pin_to_cpu(rounds);
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    const Tally tally = round(*state, pool, &latency);
    const std::int64_t t1 = now_ns();
    const double cpu1 = process_cpu_seconds();
    throughput.push_back(releases / (static_cast<double>(t1 - t0) * 1e-9));
    cpu_us.push_back((cpu1 - cpu0) * 1e6 / releases);
    std::vector<double> all;
    for (const std::vector<double>& part : latency) {
      all.insert(all.end(), part.begin(), part.end());
    }
    p50.push_back(quantile(all, 0.5));
    p99.push_back(quantile(all, 0.99));
    out.attempted += users * kReleases;
    if (rounds == 0) {
      first = tally;
    } else if (!(tally == first)) {
      out.fail(users * kReleases,
               "round " + std::to_string(rounds) + " tallies differ");
    }
    if (now_ns() >= deadline && rounds >= 7) {
      ++rounds;
      break;
    }
  }
  unpin();
  if (options.corrupt_digest) first.survivor_sum[0] += 1;
  common::ThreadPool check(kCheckThreads);
  if (!(round(*state, check, nullptr) == first)) {
    out.fail(users * kReleases, "tallies differ on two threads");
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metric("throughput_per_s", median(throughput), "1/s");
  out.metric("cpu_us_per_op", median(cpu_us), "us");
  out.metric("latency_p50_us", median(p50), "us");
  out.metric("latency_p99_us", median(p99), "us");

  out.note("threads", 1.0);
  out.note("check_threads", static_cast<double>(kCheckThreads));
  out.note("users", static_cast<double>(users));
  out.note("releases_per_user", static_cast<double>(kReleases));
  out.note("rounds", static_cast<double>(rounds));
  out.note("latency_kind", json_string("freq_into_plus_observe_per_release"));
  out.note("unique_final", static_cast<double>(first.unique_count.back()));
  out.note("correct_final", static_cast<double>(first.correct_count.back()));
}

StackTrace trace_linkage(const Options& options, bool full, Outcome& out) {
  const std::size_t users = population(options, full);
  LinkageState state(options.seed, users, options.smoke);
  const poi::PoiDatabase& db = state.city.db;
  common::ThreadPool serial(1);
  round(state, serial, nullptr);  // warm-up, as in the untraced run

  // Untraced and traced passes over the same stream.
  std::int64_t t0 = now_ns();
  const Tally plain = stream_users(state, 0, users, nullptr);
  const std::int64_t plain_ns = now_ns() - t0;
  SpanLog log(users * kReleases * 6 + 16);
  Tally traced;
  std::uint64_t survivors = 0;
  t0 = now_ns();
  {
    attack::LinkageEngine::Tracker tracker(state.engine);
    poi::FrequencyVector released;
    for (std::size_t u = 0; u < users; ++u) {
      const std::span<const traj::TrackPoint> points =
          state.store.user_points(u);
      tracker.reset();
      for (std::size_t t = 0; t < points.size(); ++t) {
        {
          const Scope span(log, "poi.freq_into");
          db.freq_into(points[t].pos, kRadiusKm, released);
        }
        std::size_t alive = 0;
        {
          const Scope span(log, "attack.tracker.observe");
          alive = tracker.observe(released, points[t].time);
        }
        survivors += alive;
        traced.layer_sum[t] += static_cast<std::int64_t>(tracker.last_layer_size());
        traced.survivor_sum[t] += static_cast<std::int64_t>(alive);
      }
    }
  }
  const std::int64_t traced_ns = now_ns() - t0;
  if (plain.layer_sum != traced.layer_sum ||
      plain.survivor_sum != traced.survivor_sum ||
      options.corrupt_digest) {
    out.fail(users * kReleases, "traced linkage pass differs from untraced");
  }

  // The tracker's steps one by one on the same releases.
  attack::ReidScratch scratch;
  attack::ReidResult layer;
  attack::CandidateBlockIndex index;
  std::vector<double> features;
  poi::FrequencyVector released, previous;
  std::uint64_t candidates = 0, pivot_pois = 0, releases = 0;
  for (std::size_t u = 0; u < users; ++u) {
    const std::span<const traj::TrackPoint> points = state.store.user_points(u);
    for (std::size_t t = 0; t < points.size(); ++t) {
      db.freq_into(points[t].pos, kRadiusKm, released);
      {
        const Scope span(log, "attack.reid");
        state.engine.layer_into(released, scratch, layer);
      }
      ++releases;
      candidates += layer.candidates.size();
      if (layer.pivot_type) pivot_pois += db.pois_of_type(*layer.pivot_type).size();
      if (t > 0) {
        const Scope span(log, "ml.svr");
        state.engine.estimate_step_km(previous, released, points[t - 1].time,
                                      points[t].time, features);
      }
      {
        const Scope span(log, "attack.block_index");
        index.build(state.engine.context(), layer.candidates);
      }
      std::swap(previous, released);
    }
  }

  const SpanLog::Totals observe = log.totals("attack.tracker.observe");
  const SpanLog::Totals reid = log.totals("attack.reid");
  const SpanLog::Totals svr = log.totals("ml.svr");
  const SpanLog::Totals build = log.totals("attack.block_index");
  const SpanLog::Totals freq = log.totals("poi.freq_into");
  const double n = static_cast<double>(releases);
  const double steps_ns = reid.total_ns + svr.total_ns + build.total_ns;
  out.metric("poi.freq_into.ns_per_op",
             freq.total_ns / static_cast<double>(freq.count), "ns");
  out.metric("attack.reid.us_per_release", reid.total_ns * 1e-3 / n, "us");
  out.metric("attack.reid.candidates_mean", static_cast<double>(candidates) / n,
             "count");
  out.metric("attack.reid.prune_ratio",
             static_cast<double>(candidates) /
                 static_cast<double>(std::max<std::uint64_t>(pivot_pois, 1)),
             "ratio");
  out.metric("ml.svr.ns_per_step",
             svr.total_ns / static_cast<double>(svr.count), "ns");
  out.metric("attack.block_index.ns_per_build",
             build.total_ns / static_cast<double>(build.count), "ns");
  out.metric("attack.tracker.us_per_observe",
             observe.total_ns * 1e-3 / static_cast<double>(observe.count),
             "us");
  out.metric("attack.linkage.self_us_per_observe",
             (observe.total_ns - steps_ns) * 1e-3 /
                 static_cast<double>(observe.count),
             "us");
  out.metric("attack.survivors_mean", static_cast<double>(survivors) / n,
             "count");
  out.note("linkage_trace_users", static_cast<double>(users));
  out.attempted += users * kReleases;

  StackTrace result;
  result.overhead_share = static_cast<double>(traced_ns - plain_ns) /
                          static_cast<double>(plain_ns);
  result.coverage_share = steps_ns / observe.total_ns;
  return result;
}

}  // namespace perfbench
