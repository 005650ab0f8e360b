// Ablation (beyond the paper's tables): detector robustness under capture
// faults — the run-time analogue of the paper's low-HPC claim.
//
// The paper argues ensembles let a detector keep its accuracy as the HPC
// budget shrinks from 16 to 2 counters. A real deployment loses data in a
// second dimension too: dropped samples, crashed/truncated runs, and
// glitched counter reads (Kuruvila et al. show HMD accuracy collapses under
// perturbed HPC inputs). This bench sweeps a fault-rate scale through the
// full resilient-capture pipeline — retries, quarantine, shortest-common-
// interval alignment, screening, imputation — and evaluates General vs
// AdaBoost vs Bagging J48 detectors at every HPC budget on the faulted
// data, via the PR 2 grid runner. Two claims are under test:
//   1. the capture layer never aborts, even under the heavy profile — it
//      degrades (quarantine/impute) and reports what it did;
//   2. ensemble detectors degrade more gracefully than the general model
//      as fault rates rise, especially at the deployable 4/2-HPC budgets.
//
// Flags (bench_util): --quick, --seed, --threads, --fault-seed. The
// --faults profile flag does not pick the sweep's stochastic rates (the
// sweep owns those), but its unavailable-events list and the fault seed
// carry over — `--faults heavy` therefore also exercises the
// degraded-PMU path at every rate.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "support/table.h"

namespace {

/// A composite fault load parameterised by one scale knob, so the sweep
/// reads as "how bad is the collector allowed to get".
hmd::hpc::FaultConfig faults_at(double rate, std::uint64_t seed) {
  hmd::hpc::FaultConfig f;
  f.sample_drop_rate = rate;
  f.run_crash_rate = rate;
  f.counter_glitch_rate = rate / 2.0;
  f.truncate_rate = rate;
  f.seed = seed;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const std::uint64_t fault_seed = cfg.capture.faults.seed;

  // The sweep: clean baseline up to the heavy profile's 8% composite load.
  constexpr double kRates[] = {0.0, 0.02, 0.04, 0.08};

  // Ensembles over one strong base family (J48, the paper's best tree) at
  // every HPC budget the paper studies.
  const ml::EnsembleKind kEnsembles[] = {ml::EnsembleKind::kGeneral,
                                         ml::EnsembleKind::kAdaBoost,
                                         ml::EnsembleKind::kBagging};
  constexpr std::size_t kHpcs[] = {16, 8, 4, 2};

  std::vector<core::GridCell> cells;
  for (ml::EnsembleKind ens : kEnsembles)
    for (std::size_t hpcs : kHpcs)
      cells.push_back({ml::ClassifierKind::kJ48, ens, hpcs});

  TextTable health("Ablation — capture health vs fault rate (J48 pipeline)");
  health.set_header({"Fault rate", "Runs", "Retries", "Backoff ms",
                     "Quarantined", "Imputed cells", "Rows"});

  TextTable acc(
      "\nAblation — accuracy vs fault rate: General vs Boosted vs Bagging "
      "(J48 base)");
  acc.set_header(
      {"Fault rate", "Ensemble", "16HPC", "8HPC", "4HPC", "2HPC"});

  for (double rate : kRates) {
    core::ExperimentConfig fcfg = cfg;
    fcfg.capture.faults = faults_at(rate, fault_seed);
    fcfg.capture.faults.unavailable_events =
        cfg.capture.faults.unavailable_events;
    const std::string label = benchutil::pct(rate, 0) + "%";
    std::fprintf(stderr, "[ablation_faults] fault rate %s...\n",
                 label.c_str());

    const auto ctx = benchutil::prepare(fcfg, "ablation_faults");
    const hpc::CaptureReport& rep = ctx.capture.report;
    health.add_row(
        {label, std::to_string(ctx.capture.total_runs),
         std::to_string(rep.total_retries()),
         std::to_string(rep.total_backoff_ms()),
         std::to_string(rep.quarantined_apps()) + "/" +
             std::to_string(rep.apps.size()),
         std::to_string(rep.total_imputed_cells()) + " (" +
             benchutil::pct(rep.imputed_fraction()) + "%)",
         std::to_string(ctx.capture.num_rows())});

    const auto results = core::run_grid(ctx, cells, fcfg.threads);
    for (std::size_t e = 0; e < std::size(kEnsembles); ++e) {
      std::vector<std::string> row = {
          label, std::string(ml::ensemble_kind_name(kEnsembles[e]))};
      for (std::size_t h = 0; h < std::size(kHpcs); ++h)
        row.push_back(
            benchutil::pct(results[e * std::size(kHpcs) + h].metrics.accuracy));
      acc.add_row(std::move(row));
    }
  }

  health.print(std::cout);
  acc.print(std::cout);
  std::cout << "\nReading: each fault-rate block resamples the corpus under "
               "a faulted collector; the ensemble rows should lose less "
               "accuracy than the General row as the rate grows, and no "
               "fault rate may abort the campaign (quarantine, don't "
               "crash).\n";
  return 0;
}
