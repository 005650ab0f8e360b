// Extension ablations beyond the paper's evaluation:
//   A) RandomForest (Breiman 2001) vs the paper's Boosted/Bagged detectors
//      at 2/4 HPCs — the ensemble later HMD work converged on;
//   B) Platt-calibrated SMO vs raw and Boosted SMO — separating "ensemble
//      effect" from "calibration effect" in the SMO robustness story;
//   C) counter register width: saturating 8..48-bit counters vs detector
//      quality (how cheap can the PMU itself get?);
//   D) mimicry evasion: malware blended toward a benign cover workload,
//      detection rate vs blend factor (the detector's failure mode).
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "ml/calibration.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/smo.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "ablation_extensions");

  // ------------------------------------------------------------------ A --
  TextTable forest_table(
      "Ablation A — RandomForest vs the paper's ensembles");
  forest_table.set_header({"Detector", "HPCs", "Accuracy%", "AUC",
                           "ACCxAUC%"});
  for (std::size_t hpcs : {4u, 2u}) {
    const auto features = ctx.top_features(hpcs);
    const ml::Dataset train = ctx.split.train.select_features(features);
    const ml::Dataset test = ctx.split.test.select_features(features);

    auto add = [&](const char* label, ml::Classifier& clf) {
      clf.train(train);
      const auto m = ml::evaluate_detector(clf, test);
      forest_table.add_row({label, std::to_string(hpcs),
                            benchutil::pct(m.accuracy),
                            TextTable::num(m.auc, 3),
                            benchutil::pct(m.performance())});
    };
    ml::RandomForest forest(30, 0, 7);
    add("RandomForest(30)", forest);
    auto boosted =
        ml::make_detector(ml::ClassifierKind::kJ48, ml::EnsembleKind::kAdaBoost, 7);
    add("Boosted-J48", *boosted);
    auto bagged =
        ml::make_detector(ml::ClassifierKind::kJ48, ml::EnsembleKind::kBagging, 7);
    add("Bagging-J48", *bagged);
    std::fprintf(stderr, "[ablation_extensions] forest %zuHPC done\n", hpcs);
  }
  forest_table.print(std::cout);

  // ------------------------------------------------------------------ B --
  TextTable platt_table("\nAblation B — calibration vs ensembling (SMO @4HPC)");
  platt_table.set_header({"Detector", "Accuracy%", "AUC"});
  {
    const auto features = ctx.top_features(4);
    const ml::Dataset train = ctx.split.train.select_features(features);
    const ml::Dataset test = ctx.split.test.select_features(features);
    auto add = [&](const char* label, ml::Classifier& clf) {
      clf.train(train);
      const auto m = ml::evaluate_detector(clf, test);
      platt_table.add_row({label, benchutil::pct(m.accuracy),
                           TextTable::num(m.auc, 3)});
    };
    ml::Smo raw;
    add("SMO (raw, hard output)", raw);
    ml::PlattScaling platt(std::make_unique<ml::Smo>(), 0.3, 7);
    add("Platt(SMO)", platt);
    auto boosted =
        ml::make_detector(ml::ClassifierKind::kSmo, ml::EnsembleKind::kAdaBoost, 7);
    add("Boosted-SMO", *boosted);
  }
  platt_table.print(std::cout);

  // ------------------------------------------------------------------ C --
  TextTable width_table(
      "\nAblation C — counter register width (Bagging-J48 @4HPC)");
  width_table.set_header({"Counter bits", "Saturation point",
                          "Accuracy%", "AUC"});
  for (std::uint32_t bits : {4u, 6u, 8u, 10u, 12u, 48u}) {
    core::ExperimentConfig wcfg = cfg;
    wcfg.capture.pmu.counter_bits = bits;
    const auto wctx = core::prepare_experiment(wcfg);
    const auto cell = core::run_cell(wctx, ml::ClassifierKind::kJ48,
                                     ml::EnsembleKind::kBagging, 4);
    width_table.add_row(
        {std::to_string(bits),
         std::to_string((std::uint64_t{1} << std::min(bits, 63u)) - 1),
         benchutil::pct(cell.metrics.accuracy),
         TextTable::num(cell.metrics.auc, 3)});
    std::fprintf(stderr, "[ablation_extensions] %u-bit counters done\n",
                 bits);
  }
  width_table.print(std::cout);

  // ------------------------------------------------------------------ D --
  TextTable evasion_table(
      "\nAblation D — mimicry evasion (Bagging-J48 @4HPC, ransomware "
      "blended toward cjpeg)");
  evasion_table.set_header({"Blend lambda", "Malicious work retained",
                            "Detection rate% (of intervals)"});
  {
    const auto features = ctx.top_features(4);
    std::vector<sim::Event> events;
    for (std::size_t f : features)
      events.push_back(
          sim::event_from_name(ctx.full.feature_name(f)));
    // Deployment training: the 4 events captured together in one run per
    // app — the distribution the online readout produces (see
    // core::train_deployment_model).
    const auto corpus = sim::build_corpus(cfg.corpus);
    auto detector = core::train_deployment_model(
        corpus, events, ml::ClassifierKind::kJ48,
        ml::EnsembleKind::kBagging, cfg.capture, 7);

    const auto cover = sim::make_benign(3 /*cjpeg*/, 50, 777, 24);
    for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      // Average over several unseen ransomware variants.
      double flagged = 0.0, total = 0.0;
      for (std::uint32_t v = 60; v < 64; ++v) {
        const auto mal = sim::blend_toward(
            sim::make_malware(4 /*ransomware*/, v, 777, 24), cover, lambda);
        sim::Machine machine;
        hpc::Pmu pmu(cfg.capture.pmu);
        pmu.program(events);
        machine.start_run(mal, 0);
        while (machine.running()) {
          pmu.observe(machine.next_interval());
          const auto values = pmu.sample_and_clear();
          std::vector<double> x(values.begin(), values.end());
          flagged += detector->predict(x);
          total += 1.0;
        }
      }
      evasion_table.add_row(
          {TextTable::num(lambda, 2),
           benchutil::pct(1.0 - lambda, 0) /* work scales with 1-lambda */,
           benchutil::pct(flagged / total)});
    }
  }
  evasion_table.print(std::cout);
  std::cout << "\nThe evasion trade-off: approaching full mimicry "
               "(lambda=1) defeats the detector\nbut also removes the "
               "malicious behaviour itself — detection pressure converts\n"
               "into a throughput tax on the attacker.\n";
  return 0;
}
