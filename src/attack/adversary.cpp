#include "attack/adversary.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.h"
#include "support/rng.h"
#include "support/table.h"

namespace hmd::attack {
namespace {

/// Per-coordinate feasible value range under the budget (integer-aligned
/// when the budget demands integer counts).
struct Box {
  double lo = 0.0;
  double hi = 0.0;
  bool movable = false;  ///< the coordinate has at least one non-clean value
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::string describe_budget(const PerturbationBudget& budget) {
  std::string s = "abs " + TextTable::num(budget.max_abs_delta, 0) + ", rel " +
                  TextTable::num(100.0 * budget.max_rel_delta, 1) + "%";
  s += budget.total_budget > 0.0
           ? ", total " + TextTable::num(budget.total_budget, 0)
           : ", total off";
  s += budget.integer_counts ? ", integer" : ", continuous";
  return s;
}

Adversary::Adversary(const ml::Classifier& model, PerturbationBudget budget,
                     EvasionSearchConfig search, std::uint64_t seed)
    : model_(&model),
      backend_(ml::make_backend(model)),
      budget_(budget),
      search_(search),
      seed_(seed) {
  HMD_REQUIRE(budget_.max_abs_delta >= 0.0);
  HMD_REQUIRE(budget_.max_rel_delta >= 0.0);
  HMD_REQUIRE(budget_.total_budget >= 0.0);
}

EvasionResult Adversary::evade(std::span<const double> x,
                               std::uint64_t stream) const {
  const std::size_t nf = x.size();
  HMD_REQUIRE(nf > 0);

  EvasionResult out;
  out.x.assign(x.begin(), x.end());
  out.clean_score = backend_->predict_proba(x);
  out.score = out.clean_score;

  // The feasible box around the clean reading: non-negative, per-event
  // capped, integer-aligned. A coordinate whose integer box collapses onto
  // the clean value (tiny cap) simply cannot move.
  std::vector<Box> box(nf);
  bool any_movable = false;
  for (std::size_t i = 0; i < nf; ++i) {
    const double cap = budget_.event_cap(x[i]);
    double lo = std::max(0.0, x[i] - cap);
    double hi = x[i] + cap;
    if (budget_.integer_counts) {
      lo = std::ceil(lo);
      hi = std::floor(hi);
    }
    box[i].lo = lo;
    box[i].hi = hi;
    box[i].movable = hi > lo || (hi == lo && hi != x[i]);
    any_movable = any_movable || box[i].movable;
  }
  if (budget_.empty() || !any_movable) return out;

  std::vector<double>& cur = out.x;
  double spent = 0.0;
  const double total = budget_.total_budget;

  // Project a proposal for coordinate i into its box and an L1 allowance
  // around the clean value. Integer snapping rounds *toward* the clean
  // value, so neither the box nor the allowance can be exceeded (box
  // endpoints are already integers).
  const auto project = [&](std::size_t i, double v, double allow) {
    v = std::clamp(v, box[i].lo, box[i].hi);
    if (allow < kInf) v = std::clamp(v, x[i] - allow, x[i] + allow);
    if (budget_.integer_counts) v = v > x[i] ? std::floor(v) : std::ceil(v);
    return v;
  };

  Rng base(seed_);
  Rng rng = base.fork(stream);

  std::vector<double> cand_vals;
  std::vector<double> batch;
  std::vector<double> scores;

  for (std::size_t round = 0; round < search_.rounds; ++round) {
    bool improved = false;

    // Coordinate sweep: for each event, score a small candidate set (box
    // extremes, box midpoint, half-steps from the current value) in one
    // backend batch and keep the best strict improvement.
    for (std::size_t i = 0; i < nf && out.score > 0.0; ++i) {
      if (!box[i].movable) continue;
      const double allow =
          total > 0.0 ? total - (spent - std::abs(cur[i] - x[i])) : kInf;
      if (allow <= 0.0) continue;

      const double proposals[5] = {box[i].lo, box[i].hi,
                                   0.5 * (box[i].lo + box[i].hi),
                                   0.5 * (cur[i] + box[i].lo),
                                   0.5 * (cur[i] + box[i].hi)};
      cand_vals.clear();
      for (const double p : proposals) {
        const double v = project(i, p, allow);
        if (v == cur[i]) continue;
        if (std::find(cand_vals.begin(), cand_vals.end(), v) !=
            cand_vals.end())
          continue;
        cand_vals.push_back(v);
      }
      if (cand_vals.empty()) continue;

      batch.assign(cand_vals.size() * nf, 0.0);
      for (std::size_t c = 0; c < cand_vals.size(); ++c) {
        std::copy(cur.begin(), cur.end(), batch.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  c * nf));
        batch[c * nf + i] = cand_vals[c];
      }
      scores.assign(cand_vals.size(), 0.0);
      backend_->predict_proba_batch(batch, nf, scores);

      std::size_t best = cand_vals.size();
      double best_score = out.score;
      for (std::size_t c = 0; c < cand_vals.size(); ++c) {
        if (scores[c] < best_score) {  // strict: ties keep the incumbent
          best = c;
          best_score = scores[c];
        }
      }
      if (best == cand_vals.size()) continue;
      spent += std::abs(cand_vals[best] - x[i]) - std::abs(cur[i] - x[i]);
      cur[i] = cand_vals[best];
      out.score = best_score;
      improved = true;
    }

    // Random joint probes: seeded uniform draws over the whole box,
    // greedily trimmed to the total budget in coordinate order. These move
    // several events at once, which the per-coordinate sweep cannot.
    if (search_.random_probes > 0 && out.score > 0.0) {
      batch.assign(search_.random_probes * nf, 0.0);
      for (std::size_t p = 0; p < search_.random_probes; ++p) {
        double remaining = total > 0.0 ? total : kInf;
        for (std::size_t i = 0; i < nf; ++i) {
          double v = x[i];
          if (box[i].movable && remaining > 0.0) {
            v = project(i, box[i].lo + rng.uniform() * (box[i].hi - box[i].lo),
                        remaining);
            if (total > 0.0) remaining -= std::abs(v - x[i]);
          }
          batch[p * nf + i] = v;
        }
      }
      scores.assign(search_.random_probes, 0.0);
      backend_->predict_proba_batch(batch, nf, scores);
      std::size_t best = search_.random_probes;
      double best_score = out.score;
      for (std::size_t p = 0; p < search_.random_probes; ++p) {
        if (scores[p] < best_score) {
          best = p;
          best_score = scores[p];
        }
      }
      if (best < search_.random_probes) {
        const auto row = batch.begin() +
                         static_cast<std::ptrdiff_t>(best * nf);
        std::copy(row, row + static_cast<std::ptrdiff_t>(nf), cur.begin());
        spent = 0.0;
        for (std::size_t i = 0; i < nf; ++i) spent += std::abs(cur[i] - x[i]);
        out.score = best_score;
        improved = true;
      }
    }

    if (!improved || out.score <= 0.0) break;
  }

  out.spent = spent;
  out.evaded = out.clean_score >= ml::kDecisionThreshold &&
               out.score < ml::kDecisionThreshold;
  return out;
}

}  // namespace hmd::attack
