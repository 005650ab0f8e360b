// Columnar dataset core: view semantics, bootstrap draws, presort
// canonical ordering against a stable-sort oracle, and grid results
// invariant to the worker-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hmd.h"
#include "ml/presort.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::tied_weighted;

TEST(DatasetView, SubsetSharesStorageInColumnarMode) {
  const Dataset d = tied_weighted(1);
  const Dataset s = d.subset(std::vector<std::size_t>{5, 5, 2});
  EXPECT_EQ(s.storage_id(), d.storage_id());
  EXPECT_FALSE(s.is_identity_view());
  EXPECT_DOUBLE_EQ(s.row(0)[0], d.row(5)[0]);
  EXPECT_DOUBLE_EQ(s.row(1)[1], d.row(5)[1]);
  EXPECT_EQ(s.label(2), d.label(2));
  EXPECT_EQ(s.storage_row(2), 2u);
}

TEST(DatasetView, ViewWeightsAreIsolatedFromParent) {
  const Dataset d = tied_weighted(2);
  Dataset s = d.subset(std::vector<std::size_t>{0, 1, 2, 3});
  std::vector<double> w{9.0, 9.0, 9.0, 9.0};
  s.set_weights(std::move(w));
  EXPECT_DOUBLE_EQ(s.weight(0), 9.0);
  EXPECT_DOUBLE_EQ(d.weight(0), tied_weighted(2).weight(0));
  s.normalize_weights();
  EXPECT_NEAR(s.total_weight(), 4.0, 1e-12);
}

TEST(DatasetView, SelectFeaturesMaterialisesIdentityView) {
  const Dataset d = tied_weighted(3);
  const Dataset sub = d.subset(std::vector<std::size_t>{7, 3, 3, 1});
  const Dataset proj = sub.select_features(std::vector<std::size_t>{2, 0});
  EXPECT_NE(proj.storage_id(), d.storage_id());
  EXPECT_TRUE(proj.is_identity_view());
  EXPECT_EQ(proj.num_features(), 2u);
  EXPECT_DOUBLE_EQ(proj.row(1)[1], sub.row(1)[0]);
  EXPECT_DOUBLE_EQ(proj.weight(2), sub.weight(2));
}

TEST(DatasetView, AddRowAfterWarmCacheCopiesOnWrite) {
  Dataset d = tied_weighted(4);
  const Dataset view = d.subset(std::vector<std::size_t>{0, 1});
  d.warm_presort_cache();
  const std::size_t before = d.num_rows();
  d.add_row(std::vector<double>(d.num_features(), 0.5), 1, 1.0, 99);
  EXPECT_EQ(d.num_rows(), before + 1);
  EXPECT_DOUBLE_EQ(d.row(before)[0], 0.5);
  // The pre-existing view must still see the old storage, unchanged.
  EXPECT_EQ(view.num_rows(), 2u);
  EXPECT_NE(view.storage_id(), d.storage_id());
}

/// Both bootstrap modes draw exactly the rows their seeded Rng picks:
/// uniform indices for bootstrap(), inverse-CDF over the running weight sum
/// for weighted_bootstrap(); either way the replicate has unit weights.
TEST(DatasetView, BootstrapDrawsIdenticalRowsInBothModes) {
  const Dataset d = tied_weighted(5);
  const std::size_t n = d.num_rows();

  Rng rng(77);
  const Dataset b = d.bootstrap(rng);
  Rng draw(77);
  ASSERT_EQ(b.num_rows(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t want = draw.below(n);
    EXPECT_EQ(b.storage_row(i), d.storage_row(want)) << "row " << i;
    EXPECT_EQ(b.weight(i), 1.0);
  }

  std::vector<double> cum(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) cum[i] = acc += d.weight(i);
  Rng wrng(78);
  const Dataset wb = d.weighted_bootstrap(wrng);
  Rng wdraw(78);
  ASSERT_EQ(wb.num_rows(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = wdraw.uniform(0.0, acc);
    const auto want = static_cast<std::size_t>(
        std::lower_bound(cum.begin(), cum.end(), r) - cum.begin());
    EXPECT_EQ(wb.storage_row(i), d.storage_row(want)) << "row " << i;
    EXPECT_EQ(wb.weight(i), 1.0);
  }
}

/// The canonical sweep order the presorted lists must reproduce: the node
/// rows gathered in order, then stable-sorted by value.
std::vector<SweepItem> stable_sort_oracle(const Dataset& d,
                                          std::span<const std::size_t> rows,
                                          std::size_t f) {
  std::vector<SweepItem> items;
  for (std::size_t r : rows)
    items.push_back({d.value(r, f), d.label(r), d.weight(r)});
  std::stable_sort(items.begin(), items.end(),
                   [](const SweepItem& a, const SweepItem& b) {
                     return a.v < b.v;
                   });
  return items;
}

TEST(Presort, ListsMatchStableSortOrderOnTies) {
  const Dataset d = tied_weighted(6);
  const std::vector<std::size_t> rows{11, 3, 19, 3, 7, 0, 25};
  Presort presort(d);
  const Presort::Lists lists = presort.make_lists(rows);
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    std::vector<SweepItem> fast;
    presort.gather(rows, lists, f, fast);
    const std::vector<SweepItem> slow = stable_sort_oracle(d, rows, f);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].v, slow[i].v) << "feature " << f << " item " << i;
      EXPECT_EQ(fast[i].y, slow[i].y) << "feature " << f << " item " << i;
      EXPECT_EQ(fast[i].w, slow[i].w) << "feature " << f << " item " << i;
    }
  }
}

TEST(Presort, SplitAndFilterPreserveSortedOrder) {
  const Dataset d = tied_weighted(7);
  std::vector<std::size_t> rows(d.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(d);
  Presort::Lists lists = presort.make_lists(rows);
  const double thr = d.value(rows[0], 1);

  Presort::Lists left, right;
  presort.split_lists(lists, rows, 1, thr, &left, &right);
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    ASSERT_EQ(left.per[f].size() + right.per[f].size(), rows.size());
    for (std::size_t i = 1; i < left.per[f].size(); ++i)
      EXPECT_LE(d.value(left.per[f][i - 1], f), d.value(left.per[f][i], f));
    for (std::uint32_t r : left.per[f]) EXPECT_LE(d.value(r, 1), thr);
    for (std::uint32_t r : right.per[f]) EXPECT_GT(d.value(r, 1), thr);
  }

  presort.filter_lists(&lists, 1, /*leq=*/false, thr);
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    for (std::uint32_t r : lists.per[f]) EXPECT_GE(d.value(r, 1), thr);
    for (std::size_t i = 1; i < lists.per[f].size(); ++i)
      EXPECT_LE(d.value(lists.per[f][i - 1], f), d.value(lists.per[f][i], f));
  }
}

/// End-to-end grid identity: a small experiment grid evaluated with 1 and
/// 4 worker threads must produce byte-identical metrics.
TEST(ModePairity, GridResultsInvariantToModeAndThreads) {
  core::ExperimentConfig cfg;
  cfg.corpus.benign_per_template = 1;
  cfg.corpus.malware_per_template = 1;
  cfg.corpus.intervals_per_app = 10;
  cfg.threads = 1;
  const core::ExperimentContext ctx = core::prepare_experiment(cfg);

  const std::vector<core::GridCell> cells{
      {ClassifierKind::kJ48, EnsembleKind::kAdaBoost, 4},
      {ClassifierKind::kJRip, EnsembleKind::kBagging, 4},
      {ClassifierKind::kRepTree, EnsembleKind::kAdaBoost, 2},
      {ClassifierKind::kOneR, EnsembleKind::kBagging, 2},
  };

  std::vector<std::vector<double>> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // A fresh projection cache per run so each rebuilds its projected
    // datasets on its own worker count.
    core::ExperimentContext run = ctx;
    run.projections = std::make_shared<core::detail::ProjectionCache>();
    const auto results = core::run_grid(run, cells, threads);
    std::vector<double> flat;
    for (const auto& cell : results) {
      flat.push_back(cell.metrics.accuracy);
      flat.push_back(cell.metrics.auc);
    }
    outcomes.push_back(std::move(flat));
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

}  // namespace
}  // namespace hmd::ml
