// Multinomial (one-vs-rest) logistic regression trained by mini-batch
// SGD with L2 regularization — a linear-model ablation against the
// paper's SVM choice for the sanitization-recovery classifiers
// (`poibench --scenario ablation_recovery_models`).
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace poiprivacy::ml {

struct LogisticConfig {
  double learning_rate = 0.1;
  double l2 = 1e-4;
  int epochs = 60;
  std::size_t batch_size = 16;
};

/// Two-class logistic regression over labels {-1, +1}.
class BinaryLogistic {
 public:
  void train(const Matrix& x, std::span<const int> labels,
             const LogisticConfig& config, common::Rng& rng);

  /// Log-odds (positive => class +1).
  double decision(std::span<const double> row) const;
  /// P(label == +1).
  double probability(std::span<const double> row) const;

  const std::vector<double>& weights() const noexcept { return weights_; }
  double bias() const noexcept { return bias_; }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// One-vs-rest classifier over arbitrary integer labels, mirroring
/// SvmClassifier's interface so the two are drop-in interchangeable.
class LogisticClassifier {
 public:
  explicit LogisticClassifier(LogisticConfig config = {}) : config_(config) {}

  void train(const Matrix& x, std::span<const int> labels, common::Rng& rng);

  int predict(std::span<const double> row) const;
  std::vector<int> predict(const Matrix& x) const;

  const std::vector<int>& classes() const noexcept { return classes_; }

 private:
  LogisticConfig config_;
  std::vector<int> classes_;
  std::vector<BinaryLogistic> machines_;
};

}  // namespace poiprivacy::ml
