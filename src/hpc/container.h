// Isolated execution of one application run — the LXC-container analogue.
//
// The paper runs every capture inside a fresh Linux container and destroys
// it after each run "to ensure that there is no contamination in collected
// data due to the previous run". Container mirrors that: each run() starts
// from a fully reset Machine (cold caches, cold predictor, fresh address
// layout). The machine keeps the last run's state until the next run()
// resets it, but it is private to the Container, so no caller can observe
// that state or carry it into another run.
#pragma once

#include <cstdint>
#include <vector>

#include "hpc/pmu.h"
#include "sim/app_profile.h"
#include "sim/machine.h"

namespace hmd::hpc {

class FaultInjector;

/// Per-interval readout of the programmed counters for one run.
struct RunTrace {
  std::vector<sim::Event> events;  ///< programmed events, column order
  /// samples[i][j] = count of events[j] during 10 ms interval i.
  std::vector<std::vector<std::uint64_t>> samples;
  /// Parallel mask of lost cells (perf read failure / ring-buffer
  /// overflow): dropped[i][j] != 0 means samples[i][j] is meaningless.
  /// Empty — the common case — when no fault injector is attached.
  std::vector<std::vector<std::uint8_t>> dropped;
  /// True when the run ended before the app's full interval count
  /// (injected truncation); samples then holds only the completed prefix.
  bool truncated = false;
};

class Container {
 public:
  /// `faults`, when non-null, perturbs every run deterministically (seeded
  /// per app seed + run index); it must outlive the Container. Null — the
  /// default — leaves the capture path byte-identical to a fault-free
  /// build (zero-cost abstraction).
  explicit Container(sim::MachineConfig machine_cfg = {},
                     PmuConfig pmu_cfg = {},
                     const FaultInjector* faults = nullptr)
      : machine_(machine_cfg), pmu_(pmu_cfg), faults_(faults) {}

  /// Execute `app` from scratch with the PMU programmed to `events`,
  /// sampling every interval. `run_index` selects the batch-specific run
  /// randomness (the paper re-executes the app once per batch).
  /// With a fault injector attached this may throw RunCrashError — the
  /// crashed attempt still counts in runs_executed(), because the paper's
  /// protocol-cost accounting must include work that was thrown away.
  RunTrace run(const sim::AppProfile& app, std::uint32_t run_index,
               const std::vector<sim::Event>& events);

  /// Total run attempts executed, including crashed and truncated ones
  /// (for honest protocol-cost accounting in the ablations).
  std::uint64_t runs_executed() const { return runs_; }

  const Pmu& pmu() const { return pmu_; }

 private:
  sim::Machine machine_;
  Pmu pmu_;
  const FaultInjector* faults_ = nullptr;
  std::uint64_t runs_ = 0;
};

}  // namespace hmd::hpc
