// Tests of the membership-inference subsystem (src/mia): mobility
// generation, the aggregate-stream releaser (incl. a pinned golden
// regression on a tiny fixed city, raw and DP-noised), feature
// extraction, priors, and the distinguishing game's determinism across
// thread counts.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "dp/ledger.h"
#include "mia/features.h"
#include "mia/game.h"
#include "mia/mobility.h"
#include "mia/priors.h"
#include "mia/stream_release.h"
#include "poi/city_model.h"

namespace poiprivacy::mia {
namespace {

// One tiny fixed city per suite run; everything downstream is a pure
// function of it, the configs, and the seeds.
const poi::City& tiny_city() {
  static const poi::City city = poi::generate_city(poi::test_preset(), 7);
  return city;
}

UserTraces tiny_traces(std::uint64_t seed = 11) {
  MobilityConfig config;
  config.num_users = 6;
  config.epochs = 4;
  config.visits_per_epoch = 2;
  config.profile_tiles = 2;
  config.routine_prob = 0.9;
  const attack::AttackContext ctx(tiny_city().db);
  return generate_traces(ctx, config, seed);
}

std::vector<std::int32_t> flatten(const poi::FreqArena& arena) {
  std::vector<std::int32_t> flat;
  for (std::size_t w = 0; w < arena.rows(); ++w) {
    const auto row = arena.row(w);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

// ---- Mobility --------------------------------------------------------------

TEST(Mobility, ShapeAndRange) {
  const UserTraces traces = tiny_traces();
  EXPECT_EQ(traces.num_users(), 6u);
  EXPECT_EQ(traces.epochs(), 4u);
  EXPECT_EQ(traces.visits_per_epoch(), 2u);
  EXPECT_GT(traces.num_tiles(), 0u);
  for (std::size_t u = 0; u < traces.num_users(); ++u) {
    for (std::size_t e = 0; e < traces.epochs(); ++e) {
      for (const TileId tile : traces.visits(u, e)) {
        EXPECT_GE(tile, 0);
        EXPECT_LT(static_cast<std::size_t>(tile), traces.num_tiles());
      }
    }
  }
}

TEST(Mobility, DeterministicInSeed) {
  const UserTraces a = tiny_traces(11);
  const UserTraces b = tiny_traces(11);
  const UserTraces c = tiny_traces(12);
  bool all_equal = true;
  bool any_differs = false;
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    for (std::size_t e = 0; e < a.epochs(); ++e) {
      const auto va = a.visits(u, e);
      const auto vb = b.visits(u, e);
      const auto vc = c.visits(u, e);
      all_equal &= std::equal(va.begin(), va.end(), vb.begin());
      any_differs |= !std::equal(va.begin(), va.end(), vc.begin());
    }
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs);
}

TEST(Mobility, RoutineDominatesVisits) {
  // With routine_prob = 0.9 and 2 profile tiles, most of a user's visits
  // land on its two most-visited tiles.
  const UserTraces traces = tiny_traces();
  std::size_t routine_visits = 0;
  std::size_t total_visits = 0;
  for (std::size_t u = 0; u < traces.num_users(); ++u) {
    std::vector<std::size_t> counts(traces.num_tiles(), 0);
    for (std::size_t e = 0; e < traces.epochs(); ++e) {
      for (const TileId tile : traces.visits(u, e)) {
        ++counts[static_cast<std::size_t>(tile)];
        ++total_visits;
      }
    }
    std::vector<std::size_t> sorted = counts;
    std::sort(sorted.rbegin(), sorted.rend());
    routine_visits += sorted[0] + sorted[1];
  }
  EXPECT_GT(routine_visits * 2, total_visits);
}

// ---- Stream releaser -------------------------------------------------------

TEST(StreamRelease, WindowCountAndSensitivity) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.window_epochs = 2;
  config.stride = 1;
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  EXPECT_EQ(releaser.num_windows(0, 4), 3u);
  EXPECT_EQ(releaser.num_windows(0, 2), 1u);
  EXPECT_EQ(releaser.num_windows(0, 1), 0u);
  EXPECT_EQ(releaser.num_windows(2, 4), 1u);
  EXPECT_DOUBLE_EQ(releaser.sensitivity(), 4.0);  // 2 visits * 2 epochs
}

TEST(StreamRelease, RoiIsSortedByActivity) {
  const UserTraces traces = tiny_traces();
  const AggregateStreamReleaser releaser(traces, StreamConfig{}, 4, 4);
  ASSERT_EQ(releaser.roi().size(), 4u);
  // ROI tiles must be distinct full-grid ids.
  std::vector<TileId> roi = releaser.roi();
  std::sort(roi.begin(), roi.end());
  EXPECT_EQ(std::unique(roi.begin(), roi.end()), roi.end());
}

TEST(StreamRelease, RawReleaseMatchesDirectCount) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.window_epochs = 2;
  config.stride = 1;
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  const std::vector<std::uint32_t> group{0, 2, 4};
  common::Rng rng(1);
  poi::FreqArena arena;
  releaser.release(group, 0, 4, rng, arena);
  ASSERT_EQ(arena.rows(), 3u);
  ASSERT_EQ(arena.row_len(), 4u);
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t slot = 0; slot < releaser.roi().size(); ++slot) {
      std::int32_t expected = 0;
      for (const std::uint32_t user : group) {
        for (std::size_t e = w; e < w + 2; ++e) {
          for (const TileId tile : traces.visits(user, e)) {
            expected += tile == releaser.roi()[slot];
          }
        }
      }
      EXPECT_EQ(arena.row(w)[slot], expected) << "w=" << w << " slot=" << slot;
    }
  }
}

TEST(StreamRelease, EpochRangeOutOfBoundsThrows) {
  const UserTraces traces = tiny_traces();
  const AggregateStreamReleaser releaser(traces, StreamConfig{}, 4, 4);
  common::Rng rng(1);
  poi::FreqArena arena;
  EXPECT_THROW(releaser.release(std::vector<std::uint32_t>{0}, 0, 5, rng,
                                arena),
               std::invalid_argument);
}

// Golden smoke-regression: the exact released tables of a fixed tiny
// configuration, raw and DP-noised at one epsilon. Any change to the
// mobility generator, ROI selection, window accumulation, or the noise
// draw order shows up here first.
TEST(StreamRelease, GoldenRawTable) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.window_epochs = 2;
  config.stride = 1;
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  const std::vector<std::uint32_t> group{0, 1, 2};
  common::Rng rng(99);
  poi::FreqArena arena;
  releaser.release(group, 0, 4, rng, arena);
  const std::vector<std::int32_t> expected = {
      2, 0, 4, 0,   // window [0, 2)
      1, 0, 4, 0,   // window [1, 3)
      2, 0, 2, 0};  // window [2, 4)
  EXPECT_EQ(flatten(arena), expected);
}

TEST(StreamRelease, GoldenNoisedTable) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.window_epochs = 2;
  config.stride = 1;
  config.epsilon = 1.0;
  config.accounting = {2, 10.0};
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  const std::vector<std::uint32_t> group{0, 1, 2};
  common::Rng rng(99);
  poi::FreqArena arena;
  dp::Ledger ledger(dp::LedgerConfig{
      .policy = dp::LedgerPolicy::kWindowedRenewal,
      .window = config.accounting,
  });
  releaser.release(group, 0, 4, rng, arena, &ledger);
  // Laplace(eps=1, sens=4) draws from Rng(99) in window-major order,
  // rounded and clamped at zero.
  const std::vector<std::int32_t> expected = {
      3, 0, 5, 0,   // window [0, 2)
      0, 4, 6, 9,   // window [1, 3)
      0, 0, 0, 4};  // window [2, 4)
  EXPECT_EQ(flatten(arena), expected);
  // Window starts 0, 1, 2 -> accounting windows {0, 1} of 2 epochs.
  EXPECT_EQ(ledger.releases(), 3u);
  EXPECT_EQ(ledger.windows_touched(), 2u);
  EXPECT_DOUBLE_EQ(ledger.peak_window_composition().epsilon, 2.0);
}

TEST(StreamRelease, NoisedCountsAreNonNegative) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.epsilon = 0.2;  // heavy noise
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  common::Rng rng(5);
  poi::FreqArena arena;
  for (int trial = 0; trial < 20; ++trial) {
    releaser.release(std::vector<std::uint32_t>{0, 1}, 0, 4, rng, arena);
    for (const std::int32_t v : flatten(arena)) EXPECT_GE(v, 0);
  }
}

// A tiny epsilon is accepted, but the Laplace scale is then 4e9
// (sensitivity 4 / 1e-9), so many draws round above INT32_MAX: they
// saturate instead of being cast out of range (undefined; the UBSan build
// traps it).
TEST(StreamRelease, HugeNoiseSaturates) {
  const UserTraces traces = tiny_traces();
  StreamConfig config;
  config.window_epochs = 2;
  config.stride = 1;
  config.epsilon = 1e-9;
  const AggregateStreamReleaser releaser(traces, config, 4, 4);
  common::Rng rng(99);
  poi::FreqArena arena;
  std::size_t saturated = 0;
  std::size_t zero = 0;
  for (int trial = 0; trial < 10; ++trial) {
    releaser.release(std::vector<std::uint32_t>{0, 1, 2}, 0, 4, rng, arena);
    for (const std::int32_t v : flatten(arena)) {
      EXPECT_GE(v, 0);
      saturated += v == std::numeric_limits<std::int32_t>::max();
      zero += v == 0;
    }
  }
  EXPECT_GT(saturated, 0u);
  EXPECT_GT(zero, 0u);
}

// ---- Features --------------------------------------------------------------

TEST(Features, DimsMatchExtraction) {
  poi::FreqArena arena;
  arena.reset(3, 4);
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t t = 0; t < 4; ++t) {
      arena.row(w)[t] = static_cast<std::int32_t>(w * 4 + t);
    }
  }
  std::vector<double> out;
  for (const FeatureSet set : kAllFeatureSets) {
    extract_features(arena, set, out);
    EXPECT_EQ(out.size(), feature_dim(set, 3, 4)) << feature_set_name(set);
  }
}

TEST(Features, RawConcatIsTheFlattenedStream) {
  poi::FreqArena arena;
  arena.reset(2, 3);
  const std::int32_t values[] = {5, 0, 2, 1, 4, 3};
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t t = 0; t < 3; ++t) arena.row(w)[t] = values[w * 3 + t];
  }
  std::vector<double> out;
  extract_features(arena, FeatureSet::kRawConcat, out);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(out[i], values[i]);
}

TEST(Features, DeltasAreConsecutiveDifferences) {
  poi::FreqArena arena;
  arena.reset(3, 2);
  const std::int32_t values[] = {1, 2, 4, 1, 3, 5};
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t t = 0; t < 2; ++t) arena.row(w)[t] = values[w * 2 + t];
  }
  std::vector<double> out;
  extract_features(arena, FeatureSet::kDeltas, out);
  const std::vector<double> expected = {3.0, -1.0, -1.0, 4.0};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], expected[i]) << i;
  }
}

TEST(Features, StatsPerWindow) {
  poi::FreqArena arena;
  arena.reset(2, 3);
  const std::int32_t values[] = {2, 0, 3, 1, 1, 0};
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t t = 0; t < 3; ++t) arena.row(w)[t] = values[w * 3 + t];
  }
  std::vector<double> out;
  extract_features(arena, FeatureSet::kStats, out);
  // Per window: total, max, occupied, L1 to previous (0 for the first).
  const std::vector<double> expected = {5.0, 3.0, 2.0, 0.0,
                                        2.0, 1.0, 2.0, 5.0};
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], expected[i]) << i;
  }
}

// ---- Priors ----------------------------------------------------------------

TEST(Priors, SubsetPoolScalesWithFraction) {
  PriorConfig config;
  config.kind = PriorKind::kSubsetOfLocations;
  config.known_fraction = 0.5;
  const PriorKnowledge knowledge = resolve_prior(config, 100, 10);
  EXPECT_EQ(knowledge.training_pool.size(), 50u);
  EXPECT_FALSE(knowledge.trains_on_released);
}

TEST(Priors, SubsetPoolClampsToMinPool) {
  PriorConfig config;
  config.known_fraction = 0.01;
  const PriorKnowledge knowledge = resolve_prior(config, 100, 21);
  EXPECT_EQ(knowledge.training_pool.size(), 21u);
}

TEST(Priors, PastGroupsUsesFullPopulationThroughRelease) {
  PriorConfig config;
  config.kind = PriorKind::kPastGroups;
  const PriorKnowledge knowledge = resolve_prior(config, 40, 10);
  EXPECT_EQ(knowledge.training_pool.size(), 40u);
  EXPECT_TRUE(knowledge.trains_on_released);
}

TEST(Priors, InvalidInputsThrow) {
  PriorConfig config;
  EXPECT_THROW(resolve_prior(config, 5, 10), std::invalid_argument);
  config.known_fraction = 0.0;
  EXPECT_THROW(resolve_prior(config, 100, 10), std::invalid_argument);
  config.known_fraction = 1.5;
  EXPECT_THROW(resolve_prior(config, 100, 10), std::invalid_argument);
}

// ---- Game ------------------------------------------------------------------

GameConfig small_game_config() {
  GameConfig config;
  config.stream.window_epochs = 2;
  config.stream.stride = 2;
  config.roi_tiles = 48;
  config.group_size = 5;
  config.train_pairs = 24;
  config.test_pairs = 4;
  config.train_epochs = 8;
  config.trials = 4;
  config.seed = 21;
  return config;
}

UserTraces game_traces() {
  MobilityConfig config;
  config.num_users = 40;
  config.epochs = 16;
  config.visits_per_epoch = 3;
  config.profile_tiles = 3;
  config.routine_prob = 0.85;
  const attack::AttackContext ctx(tiny_city().db);
  return generate_traces(ctx, config, 17);
}

TEST(Game, RawStreamIsDistinguishable) {
  const UserTraces traces = game_traces();
  const GameResult result = play_game(traces, small_game_config());
  EXPECT_EQ(result.scores.size(), 4u * 4u * 2u);
  EXPECT_EQ(result.labels.size(), result.scores.size());
  EXPECT_EQ(result.dp_releases, 0u);
  EXPECT_DOUBLE_EQ(result.peak_window.epsilon, 0.0);
  // Raw aggregates of routine-driven traces leak membership clearly
  // (deterministic: the exact value is 0.965 for this configuration).
  EXPECT_GE(result.auc, 0.85);
}

TEST(Game, HeavyNoiseDegradesAuc) {
  const UserTraces traces = game_traces();
  GameConfig config = small_game_config();
  config.stream.epsilon = 0.05;
  config.stream.accounting = {4, 1e9};
  const GameResult noised = play_game(traces, config);
  const GameResult raw = play_game(traces, small_game_config());
  EXPECT_GT(noised.dp_releases, 0u);
  EXPECT_GT(noised.peak_window.epsilon, 0.0);
  EXPECT_LT(noised.auc, raw.auc);
}

TEST(Game, InvalidConfigsThrow) {
  const UserTraces traces = game_traces();
  GameConfig config = small_game_config();
  config.group_size = traces.num_users();
  EXPECT_THROW(play_game(traces, config), std::invalid_argument);
  config = small_game_config();
  config.train_epochs = traces.epochs();
  EXPECT_THROW(play_game(traces, config), std::invalid_argument);
  config = small_game_config();
  config.trials = 0;
  EXPECT_THROW(play_game(traces, config), std::invalid_argument);
}

// The acceptance gate: the full game — trials fanned out over the global
// pool — must be bit-identical at --threads 1, 2 and 8.
TEST(Game, BitIdenticalAcrossThreadCounts) {
  const UserTraces traces = game_traces();
  GameConfig config = small_game_config();
  config.stream.epsilon = 1.0;
  config.stream.accounting = {4, 1e9};

  common::set_default_thread_count(1);
  const GameResult baseline = play_game(traces, config);
  for (const std::size_t threads : {2u, 8u}) {
    common::set_default_thread_count(threads);
    const GameResult result = play_game(traces, config);
    EXPECT_EQ(result.scores, baseline.scores) << "threads=" << threads;
    EXPECT_EQ(result.labels, baseline.labels) << "threads=" << threads;
    EXPECT_EQ(result.auc, baseline.auc) << "threads=" << threads;
    EXPECT_EQ(result.dp_releases, baseline.dp_releases)
        << "threads=" << threads;
  }
  common::set_default_thread_count(0);
}

}  // namespace
}  // namespace poiprivacy::mia
