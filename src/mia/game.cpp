#include "mia/game.h"

#include <stdexcept>
#include <utility>

#include "common/parallel.h"

namespace poiprivacy::mia {

namespace {

/// One trial's contribution to the pooled result.
struct TrialOutcome {
  std::vector<double> scores;
  std::vector<int> labels;
  dp::PrivacyParams peak_window{0.0, 0.0};
  std::size_t dp_releases = 0;
};

/// Samples a group of `size` distinct users from `pool`: the target plus
/// size-1 others when `include_target`, otherwise `size` non-target
/// users. Consumes rng deterministically.
std::vector<std::uint32_t> sample_group(std::span<const std::uint32_t> pool,
                                        std::uint32_t target,
                                        bool include_target, std::size_t size,
                                        common::Rng& rng) {
  std::vector<std::uint32_t> others;
  others.reserve(pool.size());
  for (const std::uint32_t user : pool) {
    if (user != target) others.push_back(user);
  }
  const std::size_t picks = include_target ? size - 1 : size;
  std::vector<std::uint32_t> group;
  group.reserve(size);
  if (include_target) group.push_back(target);
  for (const std::size_t idx : rng.sample_indices(others.size(), picks)) {
    group.push_back(others[idx]);
  }
  return group;
}

TrialOutcome run_trial(const UserTraces& traces,
                       const AggregateStreamReleaser& raw_releaser,
                       const AggregateStreamReleaser& released_releaser,
                       const GameConfig& config, std::size_t trial) {
  common::Rng rng = common::Rng(config.seed).substream(trial);
  const PriorKnowledge knowledge =
      resolve_prior(config.prior, traces.num_users(), config.group_size + 1);
  const auto target = knowledge.training_pool[static_cast<std::size_t>(
      rng.uniform_int(0,
                      static_cast<std::int64_t>(knowledge.training_pool.size()) -
                          1))];

  dp::Ledger ledger(dp::LedgerConfig{
      .policy = dp::LedgerPolicy::kWindowedRenewal,
      .window = config.stream.accounting,
  });
  poi::FreqArena& stream = poi::scratch_arena();
  std::vector<double> features;

  // --- Training worlds over the prior period -------------------------------
  const AggregateStreamReleaser& train_releaser =
      knowledge.trains_on_released ? released_releaser : raw_releaser;
  ml::Matrix x_train;
  std::vector<int> y_train;
  for (std::size_t pair = 0; pair < config.train_pairs; ++pair) {
    for (const bool in_world : {true, false}) {
      const std::vector<std::uint32_t> group = sample_group(
          knowledge.training_pool, target, in_world, config.group_size, rng);
      train_releaser.release(group, 0, config.train_epochs, rng, stream,
                             knowledge.trains_on_released ? &ledger
                                                          : nullptr);
      extract_features(stream, config.features, features);
      x_train.push_row(features);
      y_train.push_back(in_world ? +1 : -1);
    }
  }

  Distinguisher distinguisher(config.distinguisher);
  distinguisher.train(x_train, y_train, rng);

  // --- Challenge worlds over the inference period --------------------------
  std::vector<std::uint32_t> population(traces.num_users());
  for (std::size_t u = 0; u < population.size(); ++u) {
    population[u] = static_cast<std::uint32_t>(u);
  }
  TrialOutcome outcome;
  for (std::size_t pair = 0; pair < config.test_pairs; ++pair) {
    for (const bool in_world : {true, false}) {
      const std::vector<std::uint32_t> group = sample_group(
          population, target, in_world, config.group_size, rng);
      released_releaser.release(group, config.train_epochs, traces.epochs(),
                                rng, stream, &ledger);
      extract_features(stream, config.features, features);
      outcome.scores.push_back(distinguisher.score(features));
      outcome.labels.push_back(in_world ? +1 : -1);
    }
  }
  outcome.peak_window = ledger.peak_window_composition();
  outcome.dp_releases = ledger.releases();
  return outcome;
}

}  // namespace

GameResult play_game(const UserTraces& traces, const GameConfig& config) {
  if (config.group_size == 0 || config.group_size >= traces.num_users()) {
    throw std::invalid_argument(
        "mia game: group_size must be in [1, num_users)");
  }
  if (config.train_epochs == 0 ||
      config.train_epochs + config.stream.window_epochs > traces.epochs()) {
    throw std::invalid_argument(
        "mia game: need at least one full window in both periods");
  }
  if (config.train_pairs == 0 || config.test_pairs == 0 ||
      config.trials == 0) {
    throw std::invalid_argument("mia game: pair/trial counts must be positive");
  }

  // The ROI is a public prior-period statistic; the raw releaser doubles
  // as the subset-prior simulator (epsilon forced to 0).
  StreamConfig raw_config = config.stream;
  raw_config.epsilon = 0.0;
  const AggregateStreamReleaser raw_releaser(traces, raw_config,
                                             config.roi_tiles,
                                             config.train_epochs);
  const AggregateStreamReleaser released_releaser(traces, config.stream,
                                                  config.roi_tiles,
                                                  config.train_epochs);
  // The distinguisher scores test streams with the training-fitted scaler
  // and weights, so both periods must release the same number of windows.
  if (released_releaser.num_windows(0, config.train_epochs) !=
      released_releaser.num_windows(config.train_epochs, traces.epochs())) {
    throw std::invalid_argument(
        "mia game: prior and inference periods must release the same number "
        "of windows (adjust train_epochs / window geometry)");
  }

  GameResult result = common::ordered_reduce(
      common::global_pool(), config.trials, /*chunk=*/1, GameResult{},
      [&](std::size_t trial) {
        return run_trial(traces, raw_releaser, released_releaser, config,
                         trial);
      },
      [](GameResult acc, TrialOutcome trial) {
        acc.scores.insert(acc.scores.end(), trial.scores.begin(),
                          trial.scores.end());
        acc.labels.insert(acc.labels.end(), trial.labels.begin(),
                          trial.labels.end());
        if (trial.peak_window.epsilon > acc.peak_window.epsilon) {
          acc.peak_window = trial.peak_window;
        }
        acc.dp_releases += trial.dp_releases;
        return acc;
      });

  result.auc = ml::auc_from_scores(result.scores, result.labels);
  result.confusion =
      ml::confusion_from_scores(result.scores, result.labels, 0.0);
  return result;
}

}  // namespace poiprivacy::mia
