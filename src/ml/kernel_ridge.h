// Kernel ridge regression — closed-form alternative to the SVR used by
// the trajectory attack (ablated in `poibench --scenario
// ablation_regressors`).
//
// Solves (K + lambda I) alpha = y via Cholesky on the (bias-absorbed)
// Gram matrix; prediction is sum_i alpha_i k'(x_i, x).
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/kernel.h"

namespace poiprivacy::ml {

struct KernelRidgeConfig {
  KernelParams kernel;
  double lambda = 1.0;  ///< ridge regularizer
};

class KernelRidge {
 public:
  explicit KernelRidge(KernelRidgeConfig config = {}) : config_(config) {}

  /// Trains on standardized rows; throws std::invalid_argument when the
  /// training set is too large for the Gram cache or lambda <= 0.
  void train(const Matrix& x, std::span<const double> targets);

  double predict(std::span<const double> row) const;
  std::vector<double> predict(const Matrix& x) const;

 private:
  KernelRidgeConfig config_;
  Matrix train_x_;
  std::vector<double> alpha_;
  double gamma_ = 1.0;
};

}  // namespace poiprivacy::ml
