// Reproduces paper Table 2: "AUC values for various general and ensemble
// detectors" — classification robustness (area under the ROC curve) per
// classifier for 16/8/4 HPC general models and the 4/2 HPC ensembles.
#include <iostream>

#include "bench_util.h"
#include "support/table.h"

namespace {

// The paper's Table 2, for side-by-side comparison in the output.
struct PaperRow {
  const char* name;
  double v[8];  // 16, 8, 4, 4B, 4Bag, 2, 2B, 2Bag
};
constexpr PaperRow kPaper[] = {
    {"BayesNet", {0.92, 0.92, 0.92, 0.92, 0.94, 0.92, 0.87, 0.93}},
    {"J48", {0.88, 0.88, 0.81, 0.94, 0.85, 0.81, 0.92, 0.82}},
    {"JRip", {0.86, 0.86, 0.81, 0.88, 0.93, 0.81, 0.93, 0.88}},
    {"MLP", {0.90, 0.90, 0.89, 0.92, 0.86, 0.90, 0.93, 0.87}},
    {"OneR", {0.81, 0.81, 0.81, 0.90, 0.87, 0.81, 0.90, 0.87}},
    {"REPTree", {0.85, 0.85, 0.81, 0.85, 0.88, 0.81, 0.92, 0.91}},
    {"SGD", {0.74, 0.74, 0.72, 0.89, 0.74, 0.71, 0.71, 0.71}},
    {"SMO", {0.65, 0.65, 0.65, 0.88, 0.85, 0.68, 0.89, 0.83}},
};

const PaperRow* paper_row(std::string_view name) {
  for (const auto& row : kPaper)
    if (name == row.name) return &row;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  using EK = ml::EnsembleKind;
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "table2");

  struct Col {
    const char* label;
    std::size_t hpcs;
    EK ens;
  };
  const Col cols[] = {
      {"16HPC", 16, EK::kGeneral},   {"8HPC", 8, EK::kGeneral},
      {"4HPC", 4, EK::kGeneral},     {"4HPC-Boost", 4, EK::kAdaBoost},
      {"4HPC-Bag", 4, EK::kBagging}, {"2HPC", 2, EK::kGeneral},
      {"2HPC-Boost", 2, EK::kAdaBoost}, {"2HPC-Bag", 2, EK::kBagging},
  };

  TextTable table("Table 2 — AUC (robustness); 'measured (paper)'");
  std::vector<std::string> header{"Classifier"};
  for (const Col& c : cols) header.emplace_back(c.label);
  table.set_header(std::move(header));

  // One grid cell per (classifier, column), evaluated concurrently with
  // results in input order: classifier-major, columns inner.
  std::vector<core::GridCell> cells;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds())
    for (const Col& c : cols) cells.push_back({kind, c.ens, c.hpcs});
  const auto results = core::run_grid(ctx, cells, cfg.threads);

  std::size_t i = 0;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    const std::string name(ml::classifier_kind_name(kind));
    const PaperRow* paper = paper_row(name);
    std::vector<std::string> row{name};
    for (std::size_t c = 0; c < std::size(cols); ++c, ++i) {
      std::string text = TextTable::num(results[i].metrics.auc, 2);
      if (paper != nullptr)
        text += " (" + TextTable::num(paper->v[c], 2) + ")";
      row.push_back(std::move(text));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  return 0;
}
