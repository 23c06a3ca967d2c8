// Model-validation metrics: a confusion matrix (the recovery-model
// ablation's accuracy and macro F1) and ranking metrics (exact AUC, ROC
// curves) for the membership-inference distinguishers.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

namespace poiprivacy::ml {

/// Confusion counts over integer labels.
class ConfusionMatrix {
 public:
  void add(int truth, int predicted);

  std::size_t count(int truth, int predicted) const;
  std::size_t total() const noexcept { return total_; }
  double accuracy() const;
  /// Precision/recall for one label (0 when undefined).
  double precision(int label) const;
  double recall(int label) const;
  std::vector<int> labels() const;

 private:
  std::map<std::pair<int, int>, std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Macro-averaged F1 over the matrix's labels (harmonic mean of
/// precision and recall per label, 0 when both are 0, averaged).
double macro_f1(const ConfusionMatrix& matrix);

// ---- Ranking metrics -------------------------------------------------------
//
// Scores are real-valued decision values (larger => more likely positive);
// labels are +1 / -1, matching the binary classifiers in ml/svm.h and
// ml/logistic.h.

/// Exact area under the ROC curve by the rank statistic
///   AUC = (R_pos - P(P+1)/2) / (P * N)
/// where R_pos is the sum of the positives' 1-based ranks under ascending
/// score order and tied scores receive their average rank — i.e. a tie
/// between a positive and a negative counts 1/2, the Mann-Whitney
/// convention, so a constant classifier scores exactly 0.5. Returns 0.5
/// when either class is absent (no ranking information).
double auc_from_scores(std::span<const double> scores,
                       std::span<const int> labels);

/// One operating point of a score threshold sweep.
struct RocPoint {
  double threshold = 0.0;  ///< predict +1 when score >= threshold
  double fpr = 0.0;        ///< false-positive rate at this threshold
  double tpr = 0.0;        ///< true-positive rate at this threshold
};

/// ROC curve swept over every distinct score (plus the degenerate
/// (0,0) / (1,1) endpoints), in ascending-FPR order. Tied scores
/// collapse into one point, so the trapezoidal area under the returned
/// polyline equals auc_from_scores exactly.
std::vector<RocPoint> roc_curve(std::span<const double> scores,
                                std::span<const int> labels);

/// Confusion matrix of thresholding scores at `threshold` (predict +1
/// when score >= threshold) against the +1/-1 labels.
ConfusionMatrix confusion_from_scores(std::span<const double> scores,
                                      std::span<const int> labels,
                                      double threshold = 0.0);

}  // namespace poiprivacy::ml
