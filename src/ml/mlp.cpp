#include "ml/mlp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {
namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

double Mlp::hidden(std::span<const double> x, std::size_t j) const {
  double z = b1_[j];
  const double* w = &w1_[j * nf_];
  for (std::size_t f = 0; f < nf_; ++f)
    z += w[f] * (x[f] - mean_[f]) / stdev_[f];
  return sigmoid(z);
}

template <std::size_t L>
void Mlp::train_lanes(const Dataset* samples, Mlp* const* models) {
  const Mlp& hp = *models[0];
  const std::size_t n = samples[0].num_rows();
  const std::size_t nf = samples[0].num_features();
  HMD_REQUIRE(n > 0);
  const std::size_t h =
      hp.hidden_ != 0 ? hp.hidden_ : std::max<std::size_t>(2, (nf + 2) / 2);
  const std::size_t hl = h * L;
  const double momentum = hp.momentum_;

  // Lane-minor state: inputs [f][lane], hidden units [j][lane], hidden
  // weights [j][f][lane] (for L = 1, the w1_ layout itself).
  std::array<Standardization, L> st;
  std::vector<double> mean(nf * L), stdev(nf * L);
  std::array<double, L> mean_weight{};
  for (std::size_t l = 0; l < L; ++l) {
    st[l] = standardization(samples[l]);
    for (std::size_t f = 0; f < nf; ++f) {
      mean[f * L + l] = st[l].mean[f];
      stdev[f * L + l] = st[l].stdev[f];
    }
    mean_weight[l] = samples[l].total_weight() / static_cast<double>(n);
    HMD_REQUIRE(mean_weight[l] > 0.0);
  }

  // One seed for every lane: the same initial weights (w1 in [j][f] order,
  // then b1, w2, b2) and then the same epoch permutations.
  Rng rng(hp.seed_);
  auto init = [&] { return rng.uniform(-0.5, 0.5); };
  std::vector<double> w1(nf * hl), b1(hl), w2(hl);
  for (std::vector<double>* layer : {&w1, &b1, &w2})
    for (std::size_t k = 0; k < layer->size(); k += L) {
      const double w = init();
      for (std::size_t l = 0; l < L; ++l) (*layer)[k + l] = w;
    }
  std::array<double, L> b2;
  b2.fill(init());

  std::vector<double> v1(nf * hl, 0.0), vb1(hl, 0.0), v2(hl, 0.0);
  std::array<double, L> vb2{};
  std::vector<double> d(nf * L), xs(nf * L), xs_prev(nf * L, 0.0);
  std::vector<double> hid(hl), lr_dh(hl, 0.0);
  std::array<const double*, L> row{};
  std::array<double, L> target{}, sample_w{}, delta_out{};

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  // Step t applies step t−1's hidden-weight update (lr_dh, xs_prev) while
  // it sums its own forward pass over the same weights. The update of the
  // very first step is lr_dh = 0: it adds +0 to every weight, a no-op
  // (the initial weights are never −0).
  auto update_hidden_weights = [&](std::size_t j, std::size_t f) {
    double* w = &w1[(j * nf + f) * L];
    double* v = &v1[(j * nf + f) * L];
    for (std::size_t l = 0; l < L; ++l) {
      v[l] = momentum * v[l] - lr_dh[j * L + l] * xs_prev[f * L + l];
      w[l] += v[l];
    }
    return w;
  };

  for (std::size_t epoch = 0; epoch < hp.epochs_; ++epoch) {
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    // WEKA decays the learning rate over epochs.
    const double lr = hp.learning_rate_ /
                      (1.0 + static_cast<double>(epoch) /
                                 static_cast<double>(hp.epochs_));
    for (const std::size_t idx : order) {
      for (std::size_t l = 0; l < L; ++l) {
        row[l] = samples[l].row(idx).data();
        target[l] = static_cast<double>(samples[l].label(idx));
        sample_w[l] = samples[l].weight(idx) / mean_weight[l];
      }
      // Each lane centres its own row: d = x − mean, xs = d / stdev.
      for (std::size_t f = 0; f < nf; ++f) {
        std::array<double, L> x;
        for (std::size_t l = 0; l < L; ++l) x[l] = row[l][f];
        for (std::size_t l = 0; l < L; ++l) {
          d[f * L + l] = x[l] - mean[f * L + l];
          xs[f * L + l] = d[f * L + l] / stdev[f * L + l];
        }
      }

      // Forward, as hidden() sums it: b1 + Σ_f (w·d)/s in ascending f.
      for (std::size_t j = 0; j < h; ++j) {
        std::array<double, L> z;
        for (std::size_t l = 0; l < L; ++l) z[l] = b1[j * L + l];
        for (std::size_t f = 0; f < nf; ++f) {
          const double* w = update_hidden_weights(j, f);
          for (std::size_t l = 0; l < L; ++l)
            z[l] += w[l] * d[f * L + l] / stdev[f * L + l];
        }
        for (std::size_t l = 0; l < L; ++l) hid[j * L + l] = -z[l];
      }
      // sigmoid(z) = 1 / (1 + exp(-z)): exp per lane, the rest in SIMD.
      for (std::size_t k = 0; k < hl; ++k) hid[k] = std::exp(hid[k]);
      for (std::size_t k = 0; k < hl; ++k) hid[k] = 1.0 / (1.0 + hid[k]);
      for (std::size_t l = 0; l < L; ++l) delta_out[l] = b2[l];
      for (std::size_t j = 0; j < h; ++j)
        for (std::size_t l = 0; l < L; ++l)
          delta_out[l] += w2[j * L + l] * hid[j * L + l];
      for (std::size_t l = 0; l < L; ++l)
        delta_out[l] = std::exp(-delta_out[l]);
      for (std::size_t l = 0; l < L; ++l)
        delta_out[l] = (1.0 / (1.0 + delta_out[l]) - target[l]) * sample_w[l];

      // Backward. Every expression keeps the operation order the trained
      // bits are pinned to; the hidden deltas use this step's output
      // weights, before their own update.
      for (std::size_t j = 0; j < h; ++j)
        for (std::size_t l = 0; l < L; ++l) {
          const std::size_t k = j * L + l;
          const double a = hid[k];
          v2[k] = momentum * v2[k] - lr * (delta_out[l] * a);
          lr_dh[k] = lr * (delta_out[l] * w2[k] * a * (1.0 - a));
        }
      for (std::size_t l = 0; l < L; ++l)
        vb2[l] = momentum * vb2[l] - lr * delta_out[l];
      for (std::size_t k = 0; k < hl; ++k) {
        vb1[k] = momentum * vb1[k] - lr_dh[k];
        b1[k] += vb1[k];
        w2[k] += v2[k];
      }
      for (std::size_t l = 0; l < L; ++l) b2[l] += vb2[l];
      std::swap(xs, xs_prev);
    }
  }
  for (std::size_t j = 0; j < h; ++j)
    for (std::size_t f = 0; f < nf; ++f) update_hidden_weights(j, f);

  for (std::size_t l = 0; l < L; ++l) {
    Mlp& m = *models[l];
    m.nf_ = nf;
    m.h_ = h;
    m.mean_ = std::move(st[l].mean);
    m.stdev_ = std::move(st[l].stdev);
    m.w1_.resize(h * nf);
    m.b1_.resize(h);
    m.w2_.resize(h);
    for (std::size_t j = 0; j < h; ++j) {
      for (std::size_t f = 0; f < nf; ++f)
        m.w1_[j * nf + f] = w1[(j * nf + f) * L + l];
      m.b1_[j] = b1[j * L + l];
      m.w2_[j] = w2[j * L + l];
    }
    m.b2_ = b2[l];
    m.trained_ = true;
  }
}

void Mlp::train(const Dataset& data) {
  Mlp* const self = this;
  train_lanes<1>(&data, &self);
}

std::vector<std::unique_ptr<Classifier>> Mlp::train_replicas(
    std::span<const Dataset> samples) const {
  std::vector<std::unique_ptr<Classifier>> models;
  std::vector<Mlp*> mlps;
  for (const Dataset& sample : samples) {
    HMD_REQUIRE_MSG(sample.num_rows() == samples[0].num_rows() &&
                        sample.num_features() == samples[0].num_features(),
                    "lockstep MLP replicas need samples of one shape");
    auto m = std::make_unique<Mlp>(hidden_, learning_rate_, momentum_,
                                   epochs_, seed_);
    mlps.push_back(m.get());
    models.push_back(std::move(m));
  }
  // Fixed-width lane groups: 8 lanes while they last, then 4, 2 and 1.
  for (std::size_t i = 0; i < samples.size();) {
    const std::size_t left = samples.size() - i;
    if (left >= 8) {
      train_lanes<8>(&samples[i], &mlps[i]);
      i += 8;
    } else if (left >= 4) {
      train_lanes<4>(&samples[i], &mlps[i]);
      i += 4;
    } else if (left >= 2) {
      train_lanes<2>(&samples[i], &mlps[i]);
      i += 2;
    } else {
      train_lanes<1>(&samples[i], &mlps[i]);
      i += 1;
    }
  }
  return models;
}

double Mlp::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Mlp::train() must be called first");
  HMD_REQUIRE(x.size() == nf_);
  // forward()'s output sum in the same j order, without the hidden buffer.
  double z = b2_;
  for (std::size_t j = 0; j < h_; ++j) z += w2_[j] * hidden(x, j);
  return sigmoid(z);
}

ModelComplexity Mlp::complexity() const {
  HMD_REQUIRE(trained_);
  ModelComplexity mc;
  mc.kind = "mlp";
  mc.multipliers = h_ * nf_ + h_;
  mc.adders = h_ * nf_ + h_ + h_ + 1;
  mc.nonlinearities = h_ + 1;  // PWL sigmoid evaluators
  // Two dense layers, each an adder tree over its fan-in.
  auto tree_depth = [](std::size_t n) {
    std::size_t d = 0;
    while (n > 1) {
      n = (n + 1) / 2;
      ++d;
    }
    return d;
  };
  mc.depth = tree_depth(std::max<std::size_t>(nf_, 1)) +
             tree_depth(std::max<std::size_t>(h_, 1)) + 4;
  mc.inputs = nf_;
  return mc;
}

}  // namespace hmd::ml
