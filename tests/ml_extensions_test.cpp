#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/kernel_ridge.h"
#include "ml/validation.h"

namespace poiprivacy::ml {
namespace {

TEST(KernelRidge, RejectsBadLambda) {
  KernelRidgeConfig config;
  config.lambda = 0.0;
  KernelRidge model(config);
  Matrix x(2, 1);
  EXPECT_THROW(model.train(x, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(KernelRidge, FitsLinearFunction) {
  common::Rng rng(5);
  Matrix x(120, 1);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    x.at(i, 0) = rng.uniform(-2.0, 2.0);
    y[i] = 2.0 * x.at(i, 0) - 1.0;
  }
  KernelRidgeConfig config;
  config.kernel.kind = KernelKind::kLinear;
  config.lambda = 1e-4;
  KernelRidge model(config);
  model.train(x, y);
  EXPECT_LT(mean_absolute_error(y, model.predict(x)), 0.05);
}

TEST(KernelRidge, RbfFitsSine) {
  common::Rng rng(7);
  Matrix x(200, 1);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = rng.uniform(-3.0, 3.0);
    y[i] = std::sin(x.at(i, 0));
  }
  KernelRidgeConfig config;
  config.kernel.gamma = 1.0;
  config.lambda = 1e-3;
  KernelRidge model(config);
  model.train(x, y);
  EXPECT_LT(mean_absolute_error(y, model.predict(x)), 0.05);
}

TEST(KernelRidge, HeavyRegularizationShrinksTowardMeanishPrediction) {
  common::Rng rng(9);
  Matrix x(80, 1);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x.at(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = 10.0 * x.at(i, 0);
  }
  KernelRidgeConfig light;
  light.lambda = 1e-4;
  KernelRidgeConfig heavy;
  heavy.lambda = 1e4;
  KernelRidge light_model(light);
  KernelRidge heavy_model(heavy);
  light_model.train(x, y);
  heavy_model.train(x, y);
  // The heavily regularized model predicts much smaller magnitudes.
  const std::vector<double> probe{0.9};
  EXPECT_LT(std::abs(heavy_model.predict(probe)),
            std::abs(light_model.predict(probe)));
}

TEST(KernelRidge, EmptyTrainingPredictsZero) {
  KernelRidge model;
  model.train(Matrix(0, 0), std::vector<double>{});
  EXPECT_DOUBLE_EQ(model.predict(std::vector<double>{1.0}), 0.0);
}

TEST(ConfusionMatrix, CountsAndMetrics) {
  ConfusionMatrix cm;
  // truth=1 predicted=1 twice; truth=1 predicted=0 once;
  // truth=0 predicted=0 three times; truth=0 predicted=1 once.
  cm.add(1, 1);
  cm.add(1, 1);
  cm.add(1, 0);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  EXPECT_EQ(cm.total(), 7u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_NEAR(cm.accuracy(), 5.0 / 7.0, 1e-12);
  EXPECT_NEAR(cm.precision(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.recall(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.precision(0), 3.0 / 4.0, 1e-12);
  EXPECT_EQ(cm.labels(), (std::vector<int>{0, 1}));
}

TEST(ConfusionMatrix, UndefinedMetricsAreZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(5), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(5), 0.0);
}

}  // namespace
}  // namespace poiprivacy::ml
