#include "ml/validation.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <set>

namespace poiprivacy::ml {

void ConfusionMatrix::add(int truth, int predicted) {
  ++counts_[{truth, predicted}];
  ++total_;
}

std::size_t ConfusionMatrix::count(int truth, int predicted) const {
  const auto it = counts_.find({truth, predicted});
  return it == counts_.end() ? 0 : it->second;
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t hits = 0;
  for (const auto& [key, n] : counts_) {
    if (key.first == key.second) hits += n;
  }
  return static_cast<double>(hits) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(int label) const {
  std::size_t predicted = 0;
  std::size_t correct = 0;
  for (const auto& [key, n] : counts_) {
    if (key.second == label) {
      predicted += n;
      if (key.first == label) correct += n;
    }
  }
  return predicted ? static_cast<double>(correct) / predicted : 0.0;
}

double ConfusionMatrix::recall(int label) const {
  std::size_t actual = 0;
  std::size_t correct = 0;
  for (const auto& [key, n] : counts_) {
    if (key.first == label) {
      actual += n;
      if (key.second == label) correct += n;
    }
  }
  return actual ? static_cast<double>(correct) / actual : 0.0;
}

std::vector<int> ConfusionMatrix::labels() const {
  std::set<int> labels;
  for (const auto& [key, n] : counts_) {
    (void)n;
    labels.insert(key.first);
    labels.insert(key.second);
  }
  return {labels.begin(), labels.end()};
}

double macro_f1(const ConfusionMatrix& matrix) {
  const std::vector<int> labels = matrix.labels();
  if (labels.empty()) return 0.0;
  double sum = 0.0;
  for (const int label : labels) {
    const double p = matrix.precision(label);
    const double r = matrix.recall(label);
    sum += (p + r > 0.0) ? 2.0 * p * r / (p + r) : 0.0;
  }
  return sum / static_cast<double>(labels.size());
}

double auc_from_scores(std::span<const double> scores,
                       std::span<const int> labels) {
  assert(scores.size() == labels.size());
  const std::size_t n = scores.size();
  std::size_t positives = 0;
  for (const int label : labels) positives += label > 0;
  const std::size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  // Sum of the positives' average ranks: a run of k tied scores occupying
  // ranks [lo, lo + k) all take rank (lo + (lo + k - 1)) / 2.
  double rank_sum = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>((i + 1) + j);
    for (std::size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0) rank_sum += avg_rank;
    }
    i = j;
  }
  const double p = static_cast<double>(positives);
  return (rank_sum - p * (p + 1.0) / 2.0) /
         (p * static_cast<double>(negatives));
}

std::vector<RocPoint> roc_curve(std::span<const double> scores,
                                std::span<const int> labels) {
  assert(scores.size() == labels.size());
  const std::size_t n = scores.size();
  std::size_t positives = 0;
  for (const int label : labels) positives += label > 0;
  const std::size_t negatives = n - positives;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  std::vector<RocPoint> curve;
  curve.push_back({std::numeric_limits<double>::infinity(), 0.0, 0.0});
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t i = 0;
  while (i < n) {
    // Consume a whole tied-score block before emitting the point, so ties
    // produce one diagonal segment (the trapezoid matching the 1/2 credit
    // the rank AUC gives them).
    std::size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    for (std::size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0) {
        ++tp;
      } else {
        ++fp;
      }
    }
    curve.push_back(
        {scores[order[i]],
         negatives ? static_cast<double>(fp) / static_cast<double>(negatives)
                   : 0.0,
         positives ? static_cast<double>(tp) / static_cast<double>(positives)
                   : 0.0});
    i = j;
  }
  if (curve.back().fpr != 1.0 || curve.back().tpr != 1.0) {
    curve.push_back({-std::numeric_limits<double>::infinity(), 1.0, 1.0});
  }
  return curve;
}

ConfusionMatrix confusion_from_scores(std::span<const double> scores,
                                      std::span<const int> labels,
                                      double threshold) {
  assert(scores.size() == labels.size());
  ConfusionMatrix matrix;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    matrix.add(labels[i], scores[i] >= threshold ? +1 : -1);
  }
  return matrix;
}

}  // namespace poiprivacy::ml
