#include "sim/branch_predictor.h"

#include <algorithm>

#include "support/check.h"
#include "support/rng.h"

namespace hmd::sim {

std::string_view branch_predictor_kind_name(BranchPredictorKind kind) {
  switch (kind) {
    case BranchPredictorKind::kGshare: return "gshare";
    case BranchPredictorKind::kBimodal: return "bimodal";
    case BranchPredictorKind::kLocalHistory: return "local";
    case BranchPredictorKind::kTournament: return "tournament";
  }
  throw PreconditionError("unknown branch predictor kind");
}

BranchPredictor::BranchPredictor(BranchPredictorConfig cfg)
    : cfg_(cfg), btb_(cfg.btb) {
  HMD_REQUIRE(cfg_.history_bits >= 1 && cfg_.history_bits <= 24);
  const std::size_t entries = std::size_t{1} << cfg_.history_bits;
  mask_ = entries - 1;
  gshare_counters_.assign(entries, 1);  // weakly not-taken
  bimodal_counters_.assign(entries, 1);
  local_history_.assign(entries, 0);
  local_counters_.assign(entries, 1);
  chooser_.assign(entries, 2);  // weakly favour gshare
}

namespace {
/// Saturating 2-bit counter step toward the outcome.
void bump(std::uint8_t& ctr, bool taken) {
  if (taken && ctr < 3) ++ctr;
  if (!taken && ctr > 0) --ctr;
}
}  // namespace

bool BranchPredictor::execute(std::uint64_t pc, bool taken) {
  ++branches_;
  last_btb_hit_ = btb_.access(pc);

  // Each kind reads and trains only its own tables; the others would
  // never be consulted.
  const std::uint64_t pc_hash = mix64(pc);
  const std::size_t pc_slot = static_cast<std::size_t>(pc_hash & mask_);
  const std::uint64_t outcome = taken ? 1u : 0u;
  bool predicted_taken = false;
  switch (cfg_.kind) {
    case BranchPredictorKind::kGshare: {
      std::uint8_t& ctr = gshare_counters_[(pc_hash ^ history_) & mask_];
      predicted_taken = ctr >= 2;
      bump(ctr, taken);
      break;
    }
    case BranchPredictorKind::kBimodal: {
      std::uint8_t& ctr = bimodal_counters_[pc_slot];
      predicted_taken = ctr >= 2;
      bump(ctr, taken);
      break;
    }
    case BranchPredictorKind::kLocalHistory: {
      std::uint64_t& lh = local_history_[pc_slot];
      std::uint8_t& ctr = local_counters_[(lh ^ mix64(pc * 3)) & mask_];
      predicted_taken = ctr >= 2;
      bump(ctr, taken);
      lh = ((lh << 1) | outcome) & mask_;
      break;
    }
    case BranchPredictorKind::kTournament: {
      std::uint8_t& g_ctr = gshare_counters_[(pc_hash ^ history_) & mask_];
      std::uint8_t& b_ctr = bimodal_counters_[pc_slot];
      const bool g = g_ctr >= 2;
      const bool b = b_ctr >= 2;
      std::uint8_t& ch = chooser_[pc_slot];
      predicted_taken = ch >= 2 ? g : b;
      // Train the chooser toward whichever component was right.
      if (g != b) {
        if (g == taken && ch < 3) ++ch;
        if (b == taken && ch > 0) --ch;
      }
      bump(g_ctr, taken);
      bump(b_ctr, taken);
      break;
    }
  }
  history_ = ((history_ << 1) | outcome) & mask_;
  const bool correct = predicted_taken == taken;
  if (!correct) ++direction_misses_;
  return correct;
}

void BranchPredictor::reset() {
  std::fill(gshare_counters_.begin(), gshare_counters_.end(), 1);
  std::fill(bimodal_counters_.begin(), bimodal_counters_.end(), 1);
  std::fill(local_history_.begin(), local_history_.end(), 0);
  std::fill(local_counters_.begin(), local_counters_.end(), 1);
  std::fill(chooser_.begin(), chooser_.end(), 2);
  history_ = 0;
  btb_.reset();
  last_btb_hit_ = false;
  branches_ = 0;
  direction_misses_ = 0;
}

}  // namespace hmd::sim
