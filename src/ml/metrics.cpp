#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/infer.h"
#include "support/check.h"

namespace hmd::ml {

double Confusion::accuracy() const {
  const double t = total();
  return t > 0.0 ? (tp + tn) / t : 0.0;
}

double Confusion::tpr() const {
  const double p = tp + fn;
  return p > 0.0 ? tp / p : 0.0;
}

double Confusion::fpr() const {
  const double n = fp + tn;
  return n > 0.0 ? fp / n : 0.0;
}

double Confusion::precision() const {
  const double d = tp + fp;
  return d > 0.0 ? tp / d : 0.0;
}

double Confusion::f1() const {
  const double p = precision();
  const double r = tpr();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

Confusion evaluate_confusion(const Classifier& clf, const Dataset& data) {
  Confusion cm;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const int pred = clf.predict(data.row(i));
    const double w = data.weight(i);
    if (data.label(i) == 1) {
      (pred == 1 ? cm.tp : cm.fn) += w;
    } else {
      (pred == 1 ? cm.fp : cm.tn) += w;
    }
  }
  return cm;
}

std::vector<RocPoint> roc_curve(std::span<const double> scores,
                                std::span<const int> labels,
                                std::span<const double> weights) {
  HMD_REQUIRE(scores.size() == labels.size());
  HMD_REQUIRE(weights.empty() || weights.size() == scores.size());

  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });

  double total_pos = 0.0, total_neg = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    (labels[i] == 1 ? total_pos : total_neg) += w;
  }

  std::vector<RocPoint> curve;
  curve.push_back({0.0, 0.0, std::numeric_limits<double>::infinity()});
  double tp = 0.0, fp = 0.0;
  std::size_t i = 0;
  while (i < order.size()) {
    // Consume all samples tied at this score before emitting a point, so
    // ties produce a diagonal segment rather than an optimistic staircase.
    const double s = scores[order[i]];
    while (i < order.size() && scores[order[i]] == s) {
      const std::size_t idx = order[i];
      const double w = weights.empty() ? 1.0 : weights[idx];
      (labels[idx] == 1 ? tp : fp) += w;
      ++i;
    }
    curve.push_back({total_neg > 0.0 ? fp / total_neg : 0.0,
                     total_pos > 0.0 ? tp / total_pos : 0.0, s});
  }
  // Close the curve at (1,1) so it is always plottable. For a single-class
  // score set this endpoint is a fabrication (one axis never moved), which
  // is why auc() short-circuits degenerate sets to 0.5 instead of
  // integrating this curve.
  if (curve.back().fpr != 1.0 || curve.back().tpr != 1.0)
    curve.push_back({1.0, 1.0, -std::numeric_limits<double>::infinity()});
  return curve;
}

double auc_from_curve(std::span<const RocPoint> curve) {
  HMD_REQUIRE(curve.size() >= 2);
  double area = 0.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double dx = curve[i].fpr - curve[i - 1].fpr;
    area += dx * (curve[i].tpr + curve[i - 1].tpr) / 2.0;
  }
  return area;
}

double auc(std::span<const double> scores, std::span<const int> labels,
           std::span<const double> weights) {
  HMD_REQUIRE(scores.size() == labels.size());
  HMD_REQUIRE(weights.empty() || weights.size() == scores.size());
  // Degenerate (single-class) score sets carry no ranking information: AUC
  // is the probability that a random positive outranks a random negative,
  // which is undefined when one class is absent. The curve-based estimate
  // used to fabricate an answer here — roc_curve force-appends the (1,1)
  // endpoint, so an all-positive set scored ~1.0 and an all-negative set
  // ~0.0 regardless of the scores. Report chance level (0.5) instead: it
  // keeps the paper's ACC×AUC composite finite and neither rewards nor
  // punishes a detector for a test slice that cannot measure ranking.
  double total_pos = 0.0, total_neg = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    (labels[i] == 1 ? total_pos : total_neg) += w;
  }
  if (total_pos <= 0.0 || total_neg <= 0.0) return 0.5;
  const auto curve = roc_curve(scores, labels, weights);
  return auc_from_curve(curve);
}

std::vector<double> score_dataset(const Classifier& clf, const Dataset& data) {
  // The grid hot path: build the flat inference backend once for the whole
  // test split and score it as a single batch. It is bit-identical to the
  // scalar walk (see ml/infer.h).
  const auto backend = make_backend(clf);
  return backend->predict_proba_batch(data);
}

DetectorMetrics detector_metrics(std::span<const double> scores,
                                 std::span<const int> labels,
                                 std::span<const double> weights) {
  HMD_REQUIRE(scores.size() == labels.size());
  HMD_REQUIRE(weights.empty() || weights.size() == scores.size());
  double correct = 0.0, total = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const int pred = scores[i] >= kDecisionThreshold ? 1 : 0;
    if (pred == labels[i]) correct += w;
    total += w;
  }
  DetectorMetrics m;
  m.accuracy = total > 0.0 ? correct / total : 0.0;
  m.auc = auc(scores, labels, weights);
  return m;
}

DetectorMetrics evaluate_detector(const Classifier& clf, const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  const auto scores = score_dataset(clf, data);
  std::vector<int> labels;
  std::vector<double> weights;
  labels.reserve(data.num_rows());
  weights.reserve(data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    labels.push_back(data.label(i));
    weights.push_back(data.weight(i));
  }
  return detector_metrics(scores, labels, weights);
}

}  // namespace hmd::ml
