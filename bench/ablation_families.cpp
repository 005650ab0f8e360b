// Family-classification ablation (extension; cf. Khasawneh et al. RAID'15,
// the paper's reference [11]): can the same 4 HPCs name the malware family,
// not just flag it?
//
// One specialized family-vs-benign detector per family, winner-take-all
// combination; reports per-family recall and the family confusion matrix
// over unknown applications.
#include <iostream>
#include <map>

#include "bench_util.h"
#include "core/family.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "ablation_families");
  const auto corpus = sim::build_corpus(cfg.corpus);

  // Per-row family labels come from the row's application (group id is
  // the corpus index).
  auto labels_for = [&](const ml::Dataset& data) {
    std::vector<std::string> labels;
    labels.reserve(data.num_rows());
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      const auto& app = corpus[data.group(i)];
      labels.push_back(app.is_malware ? app.family : std::string{});
    }
    return labels;
  };

  const auto features = ctx.top_features(8);  // triage is offline forensics
  const ml::Dataset train = ctx.split.train.select_features(features);
  const ml::Dataset test = ctx.split.test.select_features(features);

  core::FamilyClassifier clf;
  clf.train(train, labels_for(train));
  std::fprintf(stderr, "[ablation_families] %zu family detectors trained\n",
               clf.families().size());

  const auto test_labels = labels_for(test);
  const auto confusion = core::evaluate_families(clf, test, test_labels);

  TextTable table("Family triage @8HPC (gate + one-vs-rest Bagging-J48 detectors)");
  table.set_header({"True family", "Samples", "Named correctly%",
                    "Flagged as malware%", "Most-confused-with"});
  for (const auto& [truth, row] : confusion) {
    std::size_t total = 0, correct = 0, flagged = 0;
    std::string top_other;
    std::size_t top_other_n = 0;
    for (const auto& [pred, n] : row) {
      total += n;
      if (pred == truth) correct += n;
      if (!pred.empty()) flagged += n;
      if (pred != truth && n > top_other_n) {
        top_other_n = n;
        top_other = pred.empty() ? "(benign)" : pred;
      }
    }
    const std::string name = truth.empty() ? "(benign)" : truth;
    const auto pct_of_total = [total](std::size_t n) {
      return TextTable::num(100.0 * static_cast<double>(n) /
                                static_cast<double>(total),
                            1);
    };
    table.add_row({name, std::to_string(total), pct_of_total(correct),
                   truth.empty() ? pct_of_total(flagged) + " (FP)"
                                 : pct_of_total(flagged),
                   top_other_n > 0 ? top_other : "-"});
  }
  table.print(std::cout);
  std::cout << "\n'Flagged as malware%' for (benign) is the false-alarm "
               "rate; for families it is\nbinary detection recall even when "
               "the named family is wrong.\n";
  return 0;
}
