// Ablation (beyond the paper's tables): the cost of the capture protocol as
// a function of PMU width, and what the protocol does to detector quality.
//
// The paper's motivation rests on two facts this bench quantifies:
//   1. capturing 44 events with a W-counter PMU needs ceil(37/W) separate
//      executions per application (7 of the 44 are software events);
//   2. run-time detection can only use W concurrently-countable events, so
//      the detector quality attainable *live* is the W-HPC column.
// It also compares the three capture protocols (multi-run, multiplex,
// oracle) at fixed W=4 for a Bagging-J48 detector.
#include <iostream>

#include "bench_util.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "ablation_counters");

  // Part 1: protocol cost + live-detector quality vs PMU width.
  TextTable width_table(
      "Ablation A — PMU width: capture cost and live-detector quality");
  width_table.set_header({"PMU width", "Runs per app (44 events)",
                          "J48 acc%", "J48-Bagging acc%"});
  std::vector<sim::Event> all(sim::all_events().begin(),
                              sim::all_events().end());
  constexpr std::uint32_t kWidths[] = {1, 2, 4, 6, 8};
  std::vector<core::GridCell> cells;
  for (std::uint32_t width : kWidths) {
    cells.push_back({ml::ClassifierKind::kJ48, ml::EnsembleKind::kGeneral,
                     width});
    cells.push_back({ml::ClassifierKind::kJ48, ml::EnsembleKind::kBagging,
                     width});
  }
  const auto results = core::run_grid(ctx, cells, cfg.threads);
  for (std::size_t w = 0; w < std::size(kWidths); ++w) {
    const auto batches = hpc::schedule_batches(all, kWidths[w]);
    width_table.add_row({std::to_string(kWidths[w]),
                         std::to_string(batches.size()),
                         benchutil::pct(results[2 * w].metrics.accuracy),
                         benchutil::pct(results[2 * w + 1].metrics.accuracy)});
  }
  width_table.print(std::cout);

  // Part 2: capture protocol comparison at the Nehalem width of 4.
  TextTable proto_table(
      "\nAblation B — capture protocol (4-counter PMU, Bagging-J48 @4HPC)");
  proto_table.set_header(
      {"Protocol", "Runs per app", "Samples", "Accuracy%", "AUC"});
  for (const auto protocol :
       {hpc::CaptureProtocol::kMultiRun, hpc::CaptureProtocol::kMultiplex,
        hpc::CaptureProtocol::kOracle}) {
    core::ExperimentConfig pcfg = cfg;
    pcfg.capture.protocol = protocol;
    // Stochastic fault injection models the multi-run protocol only; the
    // protocol comparison always runs clean (ablation_faults owns faults).
    pcfg.capture.faults = {};
    const auto pctx = core::prepare_experiment(pcfg);
    const auto cell = core::run_cell(pctx, ml::ClassifierKind::kJ48,
                                     ml::EnsembleKind::kBagging, 4);
    const double runs_per_app =
        static_cast<double>(pctx.capture.total_runs) /
        static_cast<double>(pctx.capture.app_names.size());
    proto_table.add_row({std::string(hpc::capture_protocol_name(protocol)),
                         TextTable::num(runs_per_app, 0),
                         std::to_string(pctx.full.num_rows()),
                         benchutil::pct(cell.metrics.accuracy),
                         TextTable::num(cell.metrics.auc, 3)});
    std::fprintf(stderr, "[ablation_counters] protocol %s done\n",
                 std::string(hpc::capture_protocol_name(protocol)).c_str());
  }
  proto_table.print(std::cout);
  return 0;
}
