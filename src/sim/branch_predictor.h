// Branch prediction unit model: selectable direction predictor plus a
// set-associative branch target buffer (BTB).
//
// Direction predictor organisations (selectable for the microarchitecture-
// sensitivity ablation; the default matches Nehalem-era cores):
//   kGshare      — global history XOR pc indexing one 2-bit counter table
//   kBimodal     — per-pc 2-bit counters, no history
//   kLocalHistory— per-pc local history indexing a pattern table
//   kTournament  — gshare + bimodal with a per-pc chooser (Alpha 21264)
//
// Event mapping (matches how perf attributes the generic branch events):
//   branch_loads        — BTB lookups (one per executed branch)
//   branch_load_misses  — BTB misses (target unknown at fetch)
//   branch_misses       — direction mispredictions
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/cache.h"

namespace hmd::sim {

enum class BranchPredictorKind : std::uint8_t {
  kGshare,
  kBimodal,
  kLocalHistory,
  kTournament,
};

std::string_view branch_predictor_kind_name(BranchPredictorKind kind);

struct BranchPredictorConfig {
  BranchPredictorKind kind = BranchPredictorKind::kGshare;
  std::uint32_t history_bits = 12;   ///< global/local history length
  CacheGeometry btb{128, 4, 4};      ///< 512-entry BTB, 4-way
};

class BranchPredictor {
 public:
  explicit BranchPredictor(BranchPredictorConfig cfg = {});

  /// Record the outcome of one executed branch at `pc`.
  /// Returns true if the *direction* was predicted correctly.
  bool execute(std::uint64_t pc, bool taken);

  /// True if the most recent execute() hit in the BTB.
  bool last_btb_hit() const { return last_btb_hit_; }

  std::uint64_t branches() const { return branches_; }
  std::uint64_t direction_misses() const { return direction_misses_; }
  std::uint64_t btb_lookups() const { return btb_.accesses(); }
  std::uint64_t btb_misses() const { return btb_.misses(); }
  BranchPredictorKind kind() const { return cfg_.kind; }

  void reset();

 private:
  BranchPredictorConfig cfg_;
  std::uint64_t mask_ = 0;
  std::vector<std::uint8_t> gshare_counters_;
  std::vector<std::uint8_t> bimodal_counters_;
  std::vector<std::uint64_t> local_history_;
  std::vector<std::uint8_t> local_counters_;
  std::vector<std::uint8_t> chooser_;  ///< >=2 favours gshare
  std::uint64_t history_ = 0;
  Cache btb_;
  bool last_btb_hit_ = false;
  std::uint64_t branches_ = 0;
  std::uint64_t direction_misses_ = 0;
};

}  // namespace hmd::sim
