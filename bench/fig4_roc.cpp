// Reproduces paper Figure 4: ROC graphs.
//   (a) 4HPC-Bagging detectors for BayesNet, J48, JRip, REPTree;
//   (b) AdaBoost effectiveness when dropping from 8 to 2 HPCs:
//       8HPC-General vs 2HPC-Boosted for JRip and OneR.
// Each curve is printed as a downsampled FPR/TPR series (CSV) plus its AUC,
// so the figure can be re-plotted directly from this output. All eight
// detectors are trained once, concurrently, via core::run_grid_full — the
// curves come from the same score pass as the metrics, never a retrain.
#include <iostream>

#include "bench_util.h"
#include "ml/metrics.h"
#include "support/table.h"

namespace {

using namespace hmd;

void print_curve(const std::string& label, const core::CellScores& cell) {
  const auto curve = ml::roc_curve(cell.scores, cell.labels);
  const double auc = ml::auc_from_curve(curve);
  std::cout << "\n# " << label << "  (AUC = " << TextTable::num(auc, 3)
            << ")\nfpr,tpr\n";
  // Downsample long curves to ~24 points; endpoints always kept.
  const std::size_t step = std::max<std::size_t>(1, curve.size() / 24);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (i % step != 0 && i + 1 != curve.size()) continue;
    std::cout << TextTable::num(curve[i].fpr, 4) << ','
              << TextTable::num(curve[i].tpr, 4) << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::check_args(argc, argv);
  using EK = ml::EnsembleKind;
  using CK = ml::ClassifierKind;
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "fig4");

  const core::GridCell cells[] = {
      {CK::kBayesNet, EK::kBagging, 4},  // Figure 4a
      {CK::kJ48, EK::kBagging, 4},
      {CK::kJRip, EK::kBagging, 4},
      {CK::kRepTree, EK::kBagging, 4},
      {CK::kJRip, EK::kGeneral, 8},      // Figure 4b
      {CK::kJRip, EK::kAdaBoost, 2},
      {CK::kOneR, EK::kGeneral, 8},
      {CK::kOneR, EK::kAdaBoost, 2},
  };
  const auto evals = core::run_grid_full(ctx, cells, cfg.threads);

  std::cout << "Figure 4a — ROC of 4HPC-Bagging detectors\n";
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string name(
        ml::classifier_kind_name(cells[i].classifier));
    print_curve("4HPC-Bagging-" + name, evals[i].scores);
  }

  std::cout << "\nFigure 4b — 8HPC-General vs 2HPC-Boosted\n";
  for (std::size_t i = 4; i < std::size(cells); i += 2) {
    const std::string name(
        ml::classifier_kind_name(cells[i].classifier));
    print_curve("8HPC-" + name, evals[i].scores);
    print_curve("2HPC-Boosted-" + name, evals[i + 1].scores);
  }
  std::cout << "\nPaper shape check: in (b) each classifier's 2HPC-Boosted "
               "curve should dominate (or match) its 8HPC general curve.\n";
  return 0;
}
