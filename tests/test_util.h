// Shared helpers for the test suite: synthetic dataset builders with known
// structure, so classifier tests assert against ground truth instead of
// golden numbers.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "support/rng.h"

namespace hmd::testutil {

/// Two Gaussian blobs, linearly separable with margin ~ (4 - 2*spread).
/// Class 0 centred at -2, class 1 at +2 along every informative axis;
/// `noise_features` additional N(0,1) columns carry no signal.
inline ml::Dataset gaussian_blobs(std::size_t n_per_class,
                                  std::size_t informative,
                                  std::size_t noise_features, double spread,
                                  std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < informative + noise_features; ++f)
    names.push_back("f" + std::to_string(f));
  ml::Dataset data(std::move(names));
  Rng rng(seed);
  for (int cls = 0; cls <= 1; ++cls) {
    const double centre = cls == 0 ? -2.0 : 2.0;
    for (std::size_t i = 0; i < n_per_class; ++i) {
      std::vector<double> row;
      for (std::size_t f = 0; f < informative; ++f)
        row.push_back(rng.gaussian(centre, spread));
      for (std::size_t f = 0; f < noise_features; ++f)
        row.push_back(rng.gaussian(0.0, 1.0));
      data.add_row(std::move(row), cls, 1.0, /*group=*/cls * 1000 + i / 8);
    }
  }
  return data;
}

/// Small 3-feature dataset with duplicated feature values (ties) and
/// non-unit weights: the regime where the sweep order of the tree/rule
/// learners decides every split, and so where an ordering change shows.
inline ml::Dataset tied_weighted(std::uint64_t seed) {
  ml::Dataset base = gaussian_blobs(40, 2, 1, 1.5, seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < base.num_features(); ++f)
    names.push_back(base.feature_name(f));
  ml::Dataset data(std::move(names));
  Rng rng(seed ^ 0x7157ULL);
  for (std::size_t i = 0; i < base.num_rows(); ++i) {
    std::vector<double> row(base.row(i).begin(), base.row(i).end());
    // Quantise one column hard so many rows tie exactly.
    row[0] = std::floor(row[0]);
    const double w = 0.25 + static_cast<double>(rng.below(8)) * 0.25;
    data.add_row(std::move(row), base.label(i), w, base.group(i));
  }
  return data;
}

/// XOR checkerboard in the first two features: not linearly separable,
/// needs at least a depth-2 tree (or an ensemble of stumps).
inline ml::Dataset xor_data(std::size_t n_per_quadrant, double spread,
                            std::uint64_t seed) {
  ml::Dataset data(std::vector<std::string>{"x", "y"});
  Rng rng(seed);
  for (int qx = 0; qx <= 1; ++qx) {
    for (int qy = 0; qy <= 1; ++qy) {
      const int label = qx ^ qy;
      for (std::size_t i = 0; i < n_per_quadrant; ++i) {
        data.add_row({rng.gaussian(qx ? 2.0 : -2.0, spread),
                      rng.gaussian(qy ? 2.0 : -2.0, spread)},
                     label, 1.0, /*group=*/(qx * 2 + qy) * 100 + i / 8);
      }
    }
  }
  return data;
}

/// Fraction of rows of `data` classified correctly by `clf`.
template <typename Classifier>
double train_accuracy(const Classifier& clf, const ml::Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    if (clf.predict(data.row(i)) == data.label(i)) ++correct;
  return static_cast<double>(correct) /
         static_cast<double>(data.num_rows());
}

}  // namespace hmd::testutil
