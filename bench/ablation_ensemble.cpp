// Ablation (beyond the paper's tables): ensemble design choices.
//   A) ensemble size — accuracy/AUC of AdaBoost and Bagging over J48 @2HPC
//      as the member count grows (the paper fixes 10, WEKA's default);
//   B) BayesNet structure — naive vs TAN (tree-augmented) at 4 HPCs;
//   C) AdaBoost reweighting vs resampling (WEKA -Q) for REPTree @2HPC.
#include <iostream>

#include "bench_util.h"
#include "ml/adaboost.h"
#include "ml/bagging.h"
#include "ml/bayesnet.h"
#include "ml/metrics.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "ablation_ensemble");

  // The 2- and 4-HPC projections come from the context's shared cache —
  // the same materialisation the grid benches use.
  const ml::Dataset& train2 = ctx.projected_split(2).train;
  const ml::Dataset& test2 = ctx.projected_split(2).test;

  TextTable size_table("Ablation A — ensemble size (J48 @2HPC)");
  size_table.set_header({"Members", "AdaBoost acc%", "AdaBoost AUC",
                         "Bagging acc%", "Bagging AUC"});
  // Each member count trains its own ensembles from seed 7 — independent
  // work units, evaluated concurrently with ordered results.
  constexpr std::size_t kMembers[] = {1, 2, 5, 10, 20, 40};
  struct SizePoint {
    ml::DetectorMetrics boost, bag;
  };
  support::ThreadPool pool(cfg.threads);
  const auto size_points =
      pool.parallel_map(std::size(kMembers), [&](std::size_t i) {
        ml::AdaBoostM1 boost(ml::make_classifier(ml::ClassifierKind::kJ48),
                             kMembers[i], /*seed=*/7);
        boost.train(train2);
        ml::Bagging bag(ml::make_classifier(ml::ClassifierKind::kJ48),
                        kMembers[i], /*seed=*/7);
        bag.train(train2);
        return SizePoint{ml::evaluate_detector(boost, test2),
                         ml::evaluate_detector(bag, test2)};
      });
  for (std::size_t i = 0; i < std::size(kMembers); ++i) {
    size_table.add_row({std::to_string(kMembers[i]),
                        benchutil::pct(size_points[i].boost.accuracy),
                        TextTable::num(size_points[i].boost.auc, 3),
                        benchutil::pct(size_points[i].bag.accuracy),
                        TextTable::num(size_points[i].bag.auc, 3)});
  }
  size_table.print(std::cout);

  const ml::Dataset& train4 = ctx.projected_split(4).train;
  const ml::Dataset& test4 = ctx.projected_split(4).test;

  TextTable bn_table("\nAblation B — BayesNet structure (@4HPC)");
  bn_table.set_header({"Structure", "Accuracy%", "AUC"});
  for (const auto structure :
       {ml::BayesNet::Structure::kNaive, ml::BayesNet::Structure::kTan}) {
    ml::BayesNet bn(structure);
    bn.train(train4);
    const auto m = ml::evaluate_detector(bn, test4);
    bn_table.add_row(
        {structure == ml::BayesNet::Structure::kNaive ? "naive" : "TAN",
         benchutil::pct(m.accuracy), TextTable::num(m.auc, 3)});
  }
  bn_table.print(std::cout);

  TextTable rs_table(
      "\nAblation C — AdaBoost reweighting vs resampling (REPTree @2HPC)");
  rs_table.set_header({"Mode", "Accuracy%", "AUC", "Members trained"});
  for (const bool resample : {false, true}) {
    ml::AdaBoostM1 boost(ml::make_classifier(ml::ClassifierKind::kRepTree),
                         /*iterations=*/10, /*seed=*/7, resample);
    boost.train(train2);
    const auto m = ml::evaluate_detector(boost, test2);
    rs_table.add_row({resample ? "resampling (-Q)" : "reweighting",
                      benchutil::pct(m.accuracy), TextTable::num(m.auc, 3),
                      std::to_string(boost.num_members())});
  }
  rs_table.print(std::cout);
  return 0;
}
