// The simulated machine: a functional microarchitecture model of one core
// of the paper's Intel Xeon X5550 (Nehalem) testbed.
//
// A Machine executes an AppProfile one 10 ms interval at a time. For each
// interval it synthesises an instruction trace from the active PhaseSpec and
// drives it through:
//   * a gshare branch predictor + BTB          (branch_* events)
//   * L1I / L1D / LLC set-associative caches   (L1_*, LLC_*, cache_* events)
//   * iTLB / dTLB                              (i/dTLB_* events)
//   * a NUMA memory interface                  (node_* events)
//   * a next-line prefetcher                   (*_prefetch* events)
// and synthesises the 7 software events from the phase's OS-noise rates.
// Context switches genuinely flush the TLBs, and syscalls genuinely execute
// kernel-space bursts that compete for the same structures, so the
// cross-event correlation structure of the output is mechanical, not
// hand-painted.
//
// Cycle counts come from a penalty-based CPI model on top of the functional
// miss counts (Nehalem-ish penalties; see machine.cpp).
#pragma once

#include <cstdint>

#include "sim/app_profile.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/events.h"
#include "support/rng.h"

namespace hmd::sim {

/// Structural configuration of the simulated core.
struct MachineConfig {
  CacheGeometry l1i = nehalem::kL1I;
  CacheGeometry l1d = nehalem::kL1D;
  CacheGeometry llc = nehalem::kLlc;
  CacheGeometry dtlb = nehalem::kDtlb;
  CacheGeometry itlb = nehalem::kItlb;
  BranchPredictorConfig branch{};

  // CPI / penalty model (cycles).
  double base_cpi = 0.8;
  double branch_miss_penalty = 17.0;
  double btb_miss_penalty = 6.0;
  double l1d_miss_penalty = 6.0;
  double l1i_miss_penalty = 8.0;
  double llc_miss_penalty = 110.0;
  double remote_node_penalty = 90.0;
  double tlb_miss_penalty = 26.0;
  double context_switch_penalty = 4000.0;

  // OS scheduler model: with this probability an interval loses part of its
  // timeslice to other tasks, scaling the instruction volume down. This is
  // the dominant noise source on volume-type events in real perf data.
  double deschedule_prob = 0.10;
  double deschedule_min_share = 0.35;
  double deschedule_max_share = 0.75;
};

/// Executes application profiles and reports per-interval event counts.
///
/// A Machine is *stateful across intervals of one run* (caches stay warm).
/// start_run() fully resets it first, so every run starts cold — the
/// paper's destroy-the-LXC-container-per-run protocol, which the
/// hpc::Container wrapper mirrors.
class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  /// Reset the machine, then begin a run of `app`. `run_index`
  /// differentiates the capture batches: the paper re-executes the
  /// application per batch, so two runs see statistically identical but
  /// not bit-identical behaviour.
  void start_run(const AppProfile& app, std::uint32_t run_index);

  /// True while the current run has intervals left.
  bool running() const { return app_ != nullptr && interval_ < total_intervals_; }

  /// Execute the next 10 ms interval and return all 44 event counts.
  /// The PMU layer decides which of these are architecturally visible.
  EventCounts next_interval();

  /// Clear all microarchitectural and run state.
  void reset();

  const MachineConfig& config() const { return cfg_; }

 private:
  struct CodePoint {
    std::uint32_t page = 0;
    std::uint32_t block = 0;
  };

  /// The active phase's footprint, derived once per interval rather than
  /// once per instruction.
  struct Footprint {
    std::uint32_t code_pages = 1;  ///< user code pages (>= 1)
    std::uint32_t blocks = 1;      ///< user basic blocks per page (>= 1)
    std::uint32_t hot_pages = 1;   ///< data pages in the hot set (>= 1)
    std::uint32_t cold_pages = 1;  ///< data pages outside it (>= 1)
    std::uint64_t hot_bytes = 0;   ///< streaming range of the hot set
    std::uint64_t stride = 1;      ///< streaming stride in bytes (>= 1)
    double seq_load_prob = 0.0;    ///< P(a user load streams)
  };

  const PhaseSpec& phase_for_interval(std::uint32_t interval) const;
  static Footprint footprint_of(const PhaseSpec& ph);
  std::uint64_t code_address(bool kernel, const CodePoint& at,
                             std::uint32_t instr_slot);
  std::uint64_t data_address(bool kernel, const PhaseSpec& ph, bool is_store);
  void execute_instruction(const PhaseSpec& ph, bool kernel, EventCounts& out);
  void memory_access(std::uint64_t addr, bool is_store, bool sequential,
                     const PhaseSpec& ph, EventCounts& out);
  void context_switch(EventCounts& out);

  MachineConfig cfg_;
  Cache l1i_, l1d_, llc_, dtlb_, itlb_;
  BranchPredictor bp_;

  const AppProfile* app_ = nullptr;
  std::uint32_t run_index_ = 0;
  std::uint32_t interval_ = 0;
  std::uint32_t total_intervals_ = 0;
  std::uint64_t layout_seed_ = 0;  ///< per-run ASLR-style address layout
  Rng rng_{0};

  Footprint fp_{};
  CodePoint user_pc_{};
  CodePoint kernel_pc_{};
  /// mix64-scattered page id of user code page `code_page_`; the page only
  /// changes on a branch, the lookup happens every instruction.
  std::uint32_t code_page_ = 0;
  std::uint64_t code_page_id_ = 0;
  std::uint64_t seq_ptr_ = 0;    ///< streaming-access pointer within hot set
  std::uint32_t fetch_slot_ = 0; ///< advancing instruction slot in a block
  bool need_fetch_ = true;       ///< control flow forces a refetch

  // Penalty accumulators for the interval being simulated.
  double extra_frontend_ = 0.0;
  double extra_backend_ = 0.0;
};

}  // namespace hmd::sim
