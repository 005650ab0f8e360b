// Contract tests for the batched inference engine (ml/infer.h): the flat
// backend must be BIT-identical to the scalar reference walk for every
// classifier kind and ensemble wrapping, across batch shapes, feature
// widths, and degenerate models. Identity here is EXPECT_EQ on doubles on
// purpose — the flat engine replays the scalar model's comparisons and
// accumulation order exactly, so even the last ulp must agree.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/fixed_backend.h"
#include "analysis/hls_checker.h"
#include "analysis/model_ir.h"
#include "core/experiment.h"
#include "core/online.h"
#include "ml/adaboost.h"
#include "ml/bagging.h"
#include "ml/classifier.h"
#include "ml/infer.h"
#include "ml/j48.h"
#include "ml/jrip.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;

struct Case {
  ClassifierKind kind;
  EnsembleKind ensemble;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(classifier_kind_name(info.param.kind)) + "_" +
         std::string(ensemble_kind_name(info.param.ensemble));
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (ClassifierKind k : all_classifier_kinds())
    for (EnsembleKind e : all_ensemble_kinds()) cases.push_back({k, e});
  return cases;
}

/// Scores `data` through both backend kinds and requires bitwise equality.
void expect_backends_identical(const Classifier& model, const Dataset& data) {
  const auto scalar = make_backend(model, InferBackendKind::kScalar);
  const auto flat = make_backend(model, InferBackendKind::kFlat);
  const std::vector<double> a = scalar->predict_proba_batch(data);
  const std::vector<double> b = flat->predict_proba_batch(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "row " << i << " diverged on backend "
                          << flat->name();
}

class InferContract : public testing::TestWithParam<Case> {};

TEST_P(InferContract, FlatMatchesScalarBitwise) {
  const auto data = gaussian_blobs(60, 3, 1, 1.4, 11);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  expect_backends_identical(*clf, data);
}

TEST_P(InferContract, SingleRowBatchMatchesPredictProba) {
  const auto data = gaussian_blobs(40, 2, 0, 1.2, 5);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  const auto backend = make_backend(*clf);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto row = data.row(i);
    EXPECT_EQ(backend->predict_proba(row), clf->predict_proba(row));
  }
}

TEST_P(InferContract, EmptyBatchIsANoOp) {
  const auto data = gaussian_blobs(40, 2, 0, 1.2, 5);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  const auto backend = make_backend(*clf);
  std::vector<double> out;
  EXPECT_NO_THROW(backend->predict_proba_batch(
      std::span<const double>{}, data.num_features(), out));
}

TEST_P(InferContract, UntrainedModelFallsBackAndStillThrows) {
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  const auto backend = make_backend(*clf, InferBackendKind::kFlat);
  // Nothing to lower yet, so the flat request must resolve to the generic
  // wrapper and surface the scalar "train first" error at predict time.
  EXPECT_EQ(backend->name(), "generic");
  const std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(backend->predict_proba(x), PreconditionError);
}

TEST_P(InferContract, DecisionThresholdRoutesPredict) {
  const auto data = gaussian_blobs(40, 2, 0, 1.4, 9);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = data.row(i);
    EXPECT_EQ(clf->predict(row),
              clf->predict_proba(row) >= kDecisionThreshold ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, InferContract,
                         testing::ValuesIn(all_cases()), case_name);

// ---------------------------------------------------------------------------
// Batch-shape and feature-width coverage beyond the per-cell contract.

TEST(Infer, FeatureWidthSweepStaysBitIdentical) {
  for (std::size_t informative : {1u, 2u, 4u}) {
    for (std::size_t noise : {1u, 4u, 12u}) {
      const auto data = gaussian_blobs(50, informative, noise, 1.3,
                                       17 + informative + noise);
      for (ClassifierKind kind :
           {ClassifierKind::kJ48, ClassifierKind::kRepTree,
            ClassifierKind::kJRip, ClassifierKind::kOneR}) {
        const auto clf = make_detector(kind, EnsembleKind::kAdaBoost, 7);
        clf->train(data);
        expect_backends_identical(*clf, data);
      }
    }
  }
}

TEST(Infer, OddBatchSizesCoverLaneRemainders) {
  // 1..19 rows exercises every remainder of the 8-wide lane groups, the
  // refill drain, and the sub-group fallback paths.
  const auto data = gaussian_blobs(40, 2, 1, 1.3, 23);
  const auto clf = make_detector(ClassifierKind::kJ48,
                                 EnsembleKind::kBagging, 7);
  clf->train(data);
  const auto scalar = make_backend(*clf, InferBackendKind::kScalar);
  const auto flat = make_backend(*clf, InferBackendKind::kFlat);
  const std::size_t nf = data.num_features();
  std::vector<double> x;
  for (std::size_t rows = 1; rows <= 19; ++rows) {
    x.clear();
    for (std::size_t i = 0; i < rows; ++i) {
      const auto row = data.row((i * 7) % data.num_rows());
      x.insert(x.end(), row.begin(), row.end());
    }
    std::vector<double> a(rows), b(rows);
    scalar->predict_proba_batch(x, nf, a);
    flat->predict_proba_batch(x, nf, b);
    for (std::size_t i = 0; i < rows; ++i)
      EXPECT_EQ(a[i], b[i]) << "rows=" << rows << " i=" << i;
  }
}

TEST(Infer, RandomForestFlattens) {
  const auto data = gaussian_blobs(60, 3, 1, 1.4, 31);
  RandomForest forest(12, 0, 7);
  forest.train(data);
  EXPECT_TRUE(flat_supported(forest));
  const auto backend = make_backend(forest, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(forest, data);
}

// ---------------------------------------------------------------------------
// Degenerate models.

TEST(Infer, SingleLeafTreeIsConstant) {
  // All-one-label data trains J48 to a single leaf (depth-0 walk).
  Dataset data(std::vector<std::string>{"a", "b"});
  for (std::size_t i = 0; i < 20; ++i)
    data.add_row({static_cast<double>(i), 1.0}, 0, 1.0, i / 4);
  J48 tree;
  tree.train(data);
  const auto backend = make_backend(tree, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(tree, data);
}

TEST(Infer, SingleClassRuleListUsesDefaultOnly) {
  // JRip trained on one class learns no rules for the other: the compiled
  // decision list is just the default leaf.
  Dataset data(std::vector<std::string>{"a", "b"});
  for (std::size_t i = 0; i < 24; ++i)
    data.add_row({static_cast<double>(i % 5), 2.0}, 1, 1.0, i / 4);
  JRip rip;
  rip.train(data);
  const auto backend = make_backend(rip, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(rip, data);
}

/// The JRip members of a General/AdaBoost/Bagging JRip detector.
std::vector<const JRip*> jrip_members(const Classifier& model) {
  if (const auto* rip = dynamic_cast<const JRip*>(&model)) return {rip};
  std::vector<const JRip*> out;
  const auto add = [&](const Classifier& m) {
    out.push_back(&dynamic_cast<const JRip&>(m));
  };
  if (const auto* boost = dynamic_cast<const AdaBoostM1*>(&model)) {
    for (std::size_t m = 0; m < boost->num_members(); ++m)
      add(boost->member(m));
  } else {
    const auto& bag = dynamic_cast<const Bagging&>(model);
    for (std::size_t m = 0; m < bag.num_members(); ++m) add(bag.member(m));
  }
  return out;
}

TEST(Infer, JRipNonFiniteRowsMatchScalar) {
  // A NaN fails both `<=` and `>=` in the scalar decision list; +-inf and
  // the threshold itself (and its ulp neighbours) sit on the comparison
  // boundaries. The flat engine must agree on every one of them.
  const double kInf = std::numeric_limits<double>::infinity();
  const auto data = gaussian_blobs(60, 3, 1, 1.0, 29);
  const std::size_t nf = data.num_features();
  for (EnsembleKind ens : all_ensemble_kinds()) {
    SCOPED_TRACE(ensemble_kind_name(ens));
    const auto clf = make_detector(ClassifierKind::kJRip, ens, 7);
    clf->train(data);
    ASSERT_EQ(make_backend(*clf, InferBackendKind::kFlat)->name(), "flat");

    std::vector<std::pair<std::size_t, double>> probes;
    for (const JRip* rip : jrip_members(*clf))
      for (const JRip::Rule& rule : rip->rules())
        for (const JRip::Condition& c : rule.conditions)
          for (double v : {c.value, std::nextafter(c.value, -kInf),
                           std::nextafter(c.value, kInf)})
            probes.emplace_back(c.feature, v);
    ASSERT_FALSE(probes.empty());
    for (std::size_t f = 0; f < nf; ++f)
      for (double v : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf})
        probes.emplace_back(f, v);

    Dataset rows(data.feature_names());
    for (std::size_t i = 0; i < data.num_rows(); i += 5) {
      const auto base = data.row(i);
      for (const auto& [f, v] : probes) {
        std::vector<double> x(base.begin(), base.end());
        x[f] = v;
        rows.add_row(x, 0, 1.0, i);
      }
      // Every feature non-finite at once.
      rows.add_row(std::vector<double>(nf, std::nan("")), 0, 1.0, i);
    }
    expect_backends_identical(*clf, rows);
  }
}

TEST(Infer, WideRuleModelStaysBitIdentical) {
  // Rule members testing more than 16 distinct features shrink the scoring
  // tile below 128 rows (the per-tile feature transpose has a fixed
  // budget); batches of several tiles and a ragged tail must still match.
  const auto data = gaussian_blobs(150, 30, 10, 6.0, 37);
  const auto clf =
      make_detector(ClassifierKind::kJRip, EnsembleKind::kBagging, 7);
  clf->train(data);
  std::set<std::size_t> tested;
  for (const JRip* rip : jrip_members(*clf))
    for (const JRip::Rule& rule : rip->rules())
      for (const JRip::Condition& c : rule.conditions) tested.insert(c.feature);
  ASSERT_GT(tested.size(), 16u);
  expect_backends_identical(*clf, data);
}

// ---------------------------------------------------------------------------
// The scoring paths built on make_backend's default.

TEST(Infer, ScoreDatasetIdenticalAcrossBackendKinds) {
  const auto data = gaussian_blobs(50, 3, 1, 1.4, 19);
  const auto clf = make_detector(ClassifierKind::kRepTree,
                                 EnsembleKind::kAdaBoost, 7);
  clf->train(data);
  ASSERT_EQ(make_backend(*clf)->name(), "flat");
  const std::vector<double> reference =
      make_backend(*clf, InferBackendKind::kScalar)->predict_proba_batch(data);
  EXPECT_EQ(score_dataset(*clf, data), reference);
}

/// Every cell of the paper grid (8 learners x 3 ensemble modes x
/// {16,8,4,2} HPCs) on a minimal prepared experiment scores its projected
/// test split identically through the scalar reference and the flat
/// engine. The grid benches score through the flat default, so this is
/// what keeps every emitted table independent of the engine.
TEST(Infer, FullGridScoresIdenticalOnScalarAndFlat) {
  core::ExperimentConfig cfg;
  cfg.corpus.benign_per_template = 1;
  cfg.corpus.malware_per_template = 1;
  cfg.corpus.intervals_per_app = 10;
  cfg.threads = 4;
  const core::ExperimentContext ctx = core::prepare_experiment(cfg);
  const std::vector<core::GridCell> cells = core::full_grid();
  ASSERT_EQ(cells.size(), 96u);
  const auto scores =
      core::map_grid(ctx, cells, 0, [&](const core::GridCell& cell) {
        const Split& split = ctx.projected_split(cell.hpcs);
        const auto m =
            make_detector(cell.classifier, cell.ensemble, cfg.model_seed);
        m->train(split.train);
        return std::pair{
            make_backend(*m, InferBackendKind::kScalar)
                ->predict_proba_batch(split.test),
            make_backend(*m, InferBackendKind::kFlat)
                ->predict_proba_batch(split.test)};
      });
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(scores[i].first, scores[i].second)
        << classifier_kind_name(cells[i].classifier) << " x "
        << ensemble_kind_name(cells[i].ensemble) << " at " << cells[i].hpcs
        << " HPCs";
}

}  // namespace
}  // namespace hmd::ml

// ---------------------------------------------------------------------------
// Cross-layer integration: the online detector and the fixed-point
// bit-simulation are InferenceBackend consumers too.

namespace hmd {
namespace {

/// The online detector scores through the flat engine; replaying the same
/// application's intervals through the scalar reference and a fresh
/// OnlineState must reproduce its verdicts exactly.
TEST(InferOnline, VerdictsIdenticalAcrossBackends) {
  const auto data = testutil::gaussian_blobs(50, 4, 0, 1.4, 41);
  auto trainable = ml::make_detector(ml::ClassifierKind::kJ48,
                                     ml::EnsembleKind::kBagging, 7);
  trainable->train(data);
  const std::shared_ptr<const ml::Classifier> model(std::move(trainable));
  const std::vector<sim::Event> events{
      sim::Event::kBranchInstructions, sim::Event::kBranchMisses,
      sim::Event::kCacheMisses, sim::Event::kInstructions};
  const auto app = sim::make_malware(0, 3, 77, 8);

  core::OnlineDetector detector(model, events);
  const auto flat = core::monitor_application(app, detector);

  const auto scalar = ml::make_backend(*model, ml::InferBackendKind::kScalar);
  const core::OnlineConfig cfg;
  core::OnlineState state;
  sim::Machine machine;
  machine.start_run(app, 0);
  std::vector<core::Verdict> reference;
  while (machine.running()) {
    const sim::EventCounts counts = machine.next_interval();
    std::vector<double> row;
    for (const sim::Event e : events)
      row.push_back(static_cast<double>(counts[e]));
    reference.push_back(state.step_score(cfg, scalar->predict_proba(row)));
  }

  ASSERT_EQ(flat.size(), reference.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].score, reference[i].score) << "interval " << i;
    EXPECT_EQ(flat[i].ewma, reference[i].ewma) << "interval " << i;
    EXPECT_EQ(flat[i].alarm, reference[i].alarm) << "interval " << i;
  }
}

TEST(InferFixedPoint, BackendMatchesFixedPointDecide) {
  const auto data = testutil::gaussian_blobs(40, 2, 0, 1.2, 13);
  ml::J48 tree;
  tree.train(data);
  constexpr int kBits = 8;
  const analysis::FixedPointBackend backend(tree, kBits);
  EXPECT_EQ(backend.name(), "fixed");
  const analysis::ModelIr ir = analysis::extract_ir(tree);
  std::vector<std::int32_t> encoded(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < row.size(); ++f)
      encoded[f] = analysis::fixed_point_encode(row[f], kBits);
    const double p = backend.predict_proba(row);
    EXPECT_EQ(p, analysis::fixed_point_decide(ir, encoded, kBits) == 1
                     ? 1.0
                     : 0.0)
        << "row " << i;
  }
}

}  // namespace
}  // namespace hmd
