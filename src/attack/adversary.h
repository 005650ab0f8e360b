// Adversarial counter perturbation: the attacker-side counterpart of the
// fault layer.
//
// The fault layer (src/hpc/faults.h) models a collector that loses data at
// *random*; this module models malware that shapes its own HPC footprint on
// purpose — Kuruvila et al., "Defending Hardware-based Malware Detectors
// against Adversarial Attacks", show that small bounded perturbations of
// the counter stream collapse single-model HMD accuracy. An `Adversary`
// owns two things:
//
//   * a budget model (PerturbationBudget) giving the attacker explicit,
//     physical limits — a per-event cap that combines an absolute and a
//     relative delta, non-negativity (a counter cannot go below zero),
//     integer counts (a counter reading is an integer), and an optional
//     total L1 budget across the whole feature vector (shaping one event
//     costs instructions that show up in others; the total budget is the
//     coarse knob for that coupling);
//
//   * a seeded, gradient-free evasion search over the budget box: batched
//     coordinate descent (every candidate batch is scored through the
//     PR 7 InferenceBackend, so the inner loop rides the branch-free batch
//     engine) plus seeded random joint probes that escape axis-aligned
//     local minima. The search only ever *accepts* score decreases, so an
//     attacked score is never above the clean score — the monotonicity the
//     bench and CI assert on.
//
// Determinism contract: evade() is a pure function of (model, budget,
// search config, seed, stream, x). Every random draw comes from an Rng
// forked from (seed, stream), candidates are generated and compared in a
// fixed order, and ties keep the incumbent — so attack results are
// bit-identical across runs and thread counts, like everything else in the
// tree. Thread safety: an Adversary is immutable after construction;
// concurrent evade() calls are safe (search state is call-local).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/infer.h"

namespace hmd::attack {

/// Explicit physical limits on how far the attacker can shape one
/// interval's counter readings.
struct PerturbationBudget {
  /// Per-event absolute delta: |x'_i - x_i| <= max_abs_delta + ...
  double max_abs_delta = 0.0;
  /// ... + max_rel_delta * x_i (scale-free component; 0.05 = 5%).
  double max_rel_delta = 0.0;
  /// Optional L1 budget across the whole vector: sum_i |x'_i - x_i| <=
  /// total_budget. 0 disables the coupling (each event only limited by its
  /// own cap).
  double total_budget = 0.0;
  /// Counter readings are integers; perturbed values snap to the integer
  /// lattice inside the box. Disable only for already-continuous features
  /// (e.g. imputed medians in unit tests).
  bool integer_counts = true;

  /// Largest per-event |delta| for a clean reading `value` (>= 0).
  double event_cap(double value) const {
    return max_abs_delta + max_rel_delta * value;
  }
  /// True when no event can move at all.
  bool empty() const { return max_abs_delta <= 0.0 && max_rel_delta <= 0.0; }
};

/// One-line human description, for bench banners ("abs 0 rel 5% total off").
std::string describe_budget(const PerturbationBudget& budget);

/// Shape of the gradient-free evasion search.
struct EvasionSearchConfig {
  /// Full coordinate sweeps (each followed by a random-probe batch).
  std::size_t rounds = 3;
  /// Seeded random joint perturbations scored per round; escapes
  /// axis-aligned local minima of the coordinate sweep. 0 disables.
  std::size_t random_probes = 16;
};

/// Outcome of attacking one feature vector.
struct EvasionResult {
  std::vector<double> x;     ///< perturbed vector (== input when no gain)
  double clean_score = 0.0;  ///< P(malware) of the clean vector
  double score = 0.0;        ///< P(malware) of the perturbed vector
  double spent = 0.0;        ///< L1 perturbation actually used
  /// The detector's clean verdict was malware and the perturbed one is not.
  bool evaded = false;
};

/// A budget-bounded evasion attacker against one trained model.
class Adversary {
 public:
  /// `model` must be trained and outlive the adversary; scoring goes
  /// through the flat inference backend (ml::make_backend).
  Adversary(const ml::Classifier& model, PerturbationBudget budget,
            EvasionSearchConfig search = {}, std::uint64_t seed = 0xADE5A17ULL);

  /// Minimise P(malware | x') over the budget box around `x`. `stream`
  /// derives the per-call random stream (callers use the row index or the
  /// interval number), so a dataset attack is a set of independent,
  /// reproducible per-row searches.
  EvasionResult evade(std::span<const double> x, std::uint64_t stream) const;

  const PerturbationBudget& budget() const { return budget_; }
  const EvasionSearchConfig& search() const { return search_; }
  std::uint64_t seed() const { return seed_; }

 private:
  const ml::Classifier* model_;
  std::unique_ptr<ml::InferenceBackend> backend_;
  PerturbationBudget budget_;
  EvasionSearchConfig search_;
  std::uint64_t seed_;
};

}  // namespace hmd::attack
