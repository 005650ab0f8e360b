// Reproduces paper Figure 5: "Performance results (ACC×AUC) for various ML
// classifiers with varying number of HPCs", plus the paper's headline
// ensemble-improvement call-outs:
//   * SMO: 4/2 HPC + AdaBoost vs the same classifier — +16% / +17%
//   * REPTree: 2HPC-Boosted vs 8HPC general — +11%
//   * JRip: 4HPC-Boosted (+10%) and 4HPC-Bagging (+7%) vs 8HPC general
#include <iostream>
#include <map>

#include "bench_util.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  using EK = ml::EnsembleKind;
  using CK = ml::ClassifierKind;
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "fig5");

  // The full 96-cell grid, evaluated concurrently; the call-out section
  // below reuses the same results by coordinates.
  const auto cells = core::full_grid();
  const auto results = core::run_grid(ctx, cells, cfg.threads);
  std::map<std::tuple<CK, EK, std::size_t>, ml::DetectorMetrics> grid;
  for (const auto& cell : results)
    grid[{cell.classifier, cell.ensemble, cell.hpcs}] = cell.metrics;

  TextTable table("Figure 5 — Performance = ACC×AUC (%) vs number of HPCs");
  table.set_header({"Classifier", "Variant", "16HPC", "8HPC", "4HPC",
                    "2HPC"});
  for (std::size_t i = 0; i < results.size(); i += 4) {
    std::vector<std::string> row{
        std::string(ml::classifier_kind_name(results[i].classifier)),
        std::string(ml::ensemble_kind_name(results[i].ensemble))};
    for (std::size_t c = 0; c < 4; ++c)
      row.push_back(benchutil::pct(results[i + c].metrics.performance()));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // The paper's call-outs, measured on our data.
  auto perf = [&](CK k, EK e, std::size_t h) {
    return grid.at({k, e, h}).performance();
  };
  auto gain = [&](double ours, double base) {
    return TextTable::num(100.0 * (ours - base) / base, 1) + "%";
  };

  TextTable callouts("Paper call-outs (relative ACC×AUC improvement)");
  callouts.set_header({"Comparison", "Measured", "Paper"});
  callouts.add_row({"SMO 4HPC-Boosted vs SMO 4HPC",
                    gain(perf(CK::kSmo, EK::kAdaBoost, 4),
                         perf(CK::kSmo, EK::kGeneral, 4)),
                    "+16%"});
  callouts.add_row({"SMO 2HPC-Boosted vs SMO 2HPC",
                    gain(perf(CK::kSmo, EK::kAdaBoost, 2),
                         perf(CK::kSmo, EK::kGeneral, 2)),
                    "+17%"});
  callouts.add_row({"REPTree 2HPC-Boosted vs REPTree 8HPC",
                    gain(perf(CK::kRepTree, EK::kAdaBoost, 2),
                         perf(CK::kRepTree, EK::kGeneral, 8)),
                    "+11%"});
  callouts.add_row({"JRip 4HPC-Boosted vs JRip 8HPC",
                    gain(perf(CK::kJRip, EK::kAdaBoost, 4),
                         perf(CK::kJRip, EK::kGeneral, 8)),
                    "+10%"});
  callouts.add_row({"JRip 4HPC-Bagging vs JRip 8HPC",
                    gain(perf(CK::kJRip, EK::kBagging, 4),
                         perf(CK::kJRip, EK::kGeneral, 8)),
                    "+7%"});
  std::cout << '\n';
  callouts.print(std::cout);
  return 0;
}
