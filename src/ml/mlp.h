// MultilayerPerceptron — one hidden sigmoid layer trained with
// backpropagation (stochastic gradient descent with momentum).
//
// Hyper-parameters follow WEKA's MultilayerPerceptron defaults: hidden
// units = (#attributes + #classes) / 2 (the 'a' wildcard), learning rate
// 0.3, momentum 0.2, inputs standardized. Epoch count is configurable
// (WEKA's 500; we default to 300 which converges on these datasets).
// Instance weights scale the per-sample gradient, so the model composes
// with AdaBoost re-weighting.
//
// Training runs through one kernel templated on a lane count L: L models
// train in lockstep, one per SIMD lane, each on its own sample. train() is
// the 1-lane instance; train_replicas() (Bagging's members) runs groups of
// 8, 4, 2 and 1 lanes. Replicas share the seed and the row count, so every
// lane draws the same initial weights and epoch permutations, and each
// lane performs a 1-lane run's floating-point operations in the same
// order: a member trained in a lane is bit-identical to the same member
// trained alone. See DESIGN.md §18.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class Mlp final : public Classifier {
 public:
  explicit Mlp(std::size_t hidden = 0 /* 0 = WEKA 'a' rule */,
               double learning_rate = 0.3, double momentum = 0.2,
               std::size_t epochs = 300, std::uint64_t seed = 1)
      : hidden_(hidden),
        learning_rate_(learning_rate),
        momentum_(momentum),
        epochs_(epochs),
        seed_(seed) {}

  void train(const Dataset& data) override;
  /// Lockstep training of one replica per sample. Requires every sample to
  /// have the same row and feature counts (they share one permutation).
  std::vector<std::unique_ptr<Classifier>> train_replicas(
      std::span<const Dataset> samples) const override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<Mlp>(hidden_, learning_rate_, momentum_, epochs_,
                                 seed_);
  }
  std::string name() const override { return "MLP"; }
  ModelComplexity complexity() const override;

  std::size_t hidden_units() const { return h_; }

  /// Trained parameters (read-only, for integrity analysis / export).
  /// All are valid only after train().
  std::size_t num_inputs() const { return nf_; }
  const std::vector<double>& hidden_weights() const { return w1_; }
  const std::vector<double>& hidden_bias() const { return b1_; }
  const std::vector<double>& output_weights() const { return w2_; }
  double output_bias() const { return b2_; }
  const std::vector<double>& input_mean() const { return mean_; }
  const std::vector<double>& input_stdev() const { return stdev_; }

 private:
  /// Activation of hidden unit j for raw input x.
  double hidden(std::span<const double> x, std::size_t j) const;
  /// The training kernel: models[l] (untrained clones sharing these
  /// hyper-parameters) is fitted to samples[l], for l < L, in lockstep.
  template <std::size_t L>
  static void train_lanes(const Dataset* samples, Mlp* const* models);

  std::size_t hidden_;
  double learning_rate_;
  double momentum_;
  std::size_t epochs_;
  std::uint64_t seed_;

  std::size_t nf_ = 0, h_ = 0;
  std::vector<double> mean_, stdev_;       ///< input standardization
  std::vector<double> w1_;                 ///< h_ × nf_ (row-major)
  std::vector<double> b1_;                 ///< h_
  std::vector<double> w2_;                 ///< h_
  double b2_ = 0.0;
  bool trained_ = false;
};

}  // namespace hmd::ml
