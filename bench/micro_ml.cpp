// Training/inference micro-benchmark over the full classifier × ensemble
// grid, A/B-comparing the columnar dataset core against the legacy
// row-copy path (HMD_LEGACY_DATASET=1 semantics) in one process.
//
// For every cell the benchmark trains under both dataset modes, checks the
// resulting models score the test split bit-identically, and records the
// training wall-clock of each mode plus the columnar-mode inference
// latency. Results land in BENCH_train.json; the headline number is
// `tree_ensemble_speedup`, the aggregate legacy/columnar training-time
// ratio over the presort-accelerated tree/rule ensembles
// ({J48, REPTree, JRip} × {AdaBoost, Bagging}).
//
// Flags (beyond the shared --quick/--seed/--threads set):
//   --reps N   timing repetitions per cell, best-of (default 3; 1 in --quick)
//   --hpcs N   feature-projection width to train on (default 8)
//   --out P    JSON output path (default BENCH_train.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hmd.h"

namespace {

using namespace hmd;

struct Cell {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  double legacy_ms = 0.0;
  double columnar_ms = 0.0;
  double predict_us = 0.0;  ///< columnar-mode per-sample inference latency
  bool score_match = true;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Train one detector under the current dataset mode; returns best-of-reps
/// wall-clock ms and leaves the last trained model's test-score sum in
/// `score_out` (a bit-exact fingerprint of the learned model).
double time_train(const core::ExperimentContext& ctx, const ml::Split& split,
                  ml::ClassifierKind kind, ml::EnsembleKind ensemble,
                  std::size_t reps, double* score_out, double* predict_us) {
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto detector = ml::make_detector(kind, ensemble, ctx.config.model_seed);
    const double t0 = now_ms();
    detector->train(split.train);
    const double ms = now_ms() - t0;
    if (rep == 0 || ms < best) best = ms;
    if (rep + 1 == reps) {
      double score = 0.0;
      const double p0 = now_ms();
      for (std::size_t i = 0; i < split.test.num_rows(); ++i)
        score += detector->predict_proba(split.test.row(i));
      const double pms = now_ms() - p0;
      *score_out = score;
      if (predict_us != nullptr && split.test.num_rows() > 0)
        *predict_us =
            1000.0 * pms / static_cast<double>(split.test.num_rows());
    }
  }
  return best;
}

bool tree_ensemble_cell(const Cell& c) {
  const bool tree = c.kind == ml::ClassifierKind::kJ48 ||
                    c.kind == ml::ClassifierKind::kRepTree ||
                    c.kind == ml::ClassifierKind::kJRip;
  const bool ens = c.ensemble == ml::EnsembleKind::kAdaBoost ||
                   c.ensemble == ml::EnsembleKind::kBagging;
  return tree && ens;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::check_args(argc, argv, {"--reps N", "--hpcs N", "--out P"});
  core::ExperimentConfig cfg = benchutil::config_from_args(argc, argv);
  std::size_t reps = 0;
  std::size_t hpcs = 8;
  const char* out_path = "BENCH_train.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::strtoull(argv[i + 1], nullptr, 10);
    if (std::strcmp(argv[i], "--hpcs") == 0 && i + 1 < argc)
      hpcs = std::strtoull(argv[i + 1], nullptr, 10);
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[i + 1];
  }
  if (reps == 0) reps = quick ? 1 : 3;
  if (hpcs == 0) hpcs = 8;

  long long capture_ms = 0;
  const core::ExperimentContext ctx =
      benchutil::prepare(cfg, "micro_ml", &capture_ms);
  const ml::Split& split = ctx.projected_split(hpcs);

  const ml::DatasetMode initial_mode = ml::dataset_mode();
  std::vector<Cell> cells;
  bool all_match = true;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    for (ml::EnsembleKind ensemble : ml::all_ensemble_kinds()) {
      Cell cell{kind, ensemble};
      double legacy_score = 0.0, columnar_score = 0.0;
      ml::set_dataset_mode(ml::DatasetMode::kLegacy);
      cell.legacy_ms = time_train(ctx, split, kind, ensemble, reps,
                                  &legacy_score, nullptr);
      ml::set_dataset_mode(ml::DatasetMode::kColumnar);
      cell.columnar_ms = time_train(ctx, split, kind, ensemble, reps,
                                    &columnar_score, &cell.predict_us);
      cell.score_match = legacy_score == columnar_score;
      all_match = all_match && cell.score_match;
      std::fprintf(stderr,
                   "[micro_ml] %-8s %-8s legacy %8.2f ms  columnar %8.2f ms "
                   " (%.2fx)%s\n",
                   std::string(ml::classifier_kind_name(kind)).c_str(),
                   std::string(ml::ensemble_kind_name(ensemble)).c_str(),
                   cell.legacy_ms, cell.columnar_ms,
                   cell.columnar_ms > 0.0 ? cell.legacy_ms / cell.columnar_ms
                                          : 0.0,
                   cell.score_match ? "" : "  SCORE MISMATCH");
      cells.push_back(cell);
    }
  }
  ml::set_dataset_mode(initial_mode);

  double tree_legacy = 0.0, tree_columnar = 0.0;
  for (const Cell& c : cells) {
    if (!tree_ensemble_cell(c)) continue;
    tree_legacy += c.legacy_ms;
    tree_columnar += c.columnar_ms;
  }
  const double tree_speedup =
      tree_columnar > 0.0 ? tree_legacy / tree_columnar : 0.0;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[micro_ml] cannot write %s\n", out_path);
    return 1;
  }
  const double rows = static_cast<double>(split.train.num_rows());
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_ml\",\n"
               "  \"capture_ms\": %lld,\n"
               "  \"hpcs\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"train_rows\": %zu,\n"
               "  \"test_rows\": %zu,\n"
               "  \"tree_ensemble_speedup\": %.3f,\n"
               "  \"all_scores_match\": %s,\n"
               "  \"cells\": [\n",
               capture_ms, hpcs, reps, split.train.num_rows(),
               split.test.num_rows(), tree_speedup,
               all_match ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"classifier\": \"%s\", \"ensemble\": \"%s\", "
        "\"legacy_train_ms\": %.3f, \"columnar_train_ms\": %.3f, "
        "\"speedup\": %.3f, \"rows_per_sec\": %.1f, "
        "\"predict_us_per_sample\": %.3f, \"score_match\": %s}%s\n",
        std::string(ml::classifier_kind_name(c.kind)).c_str(),
        std::string(ml::ensemble_kind_name(c.ensemble)).c_str(),
        c.legacy_ms, c.columnar_ms,
        c.columnar_ms > 0.0 ? c.legacy_ms / c.columnar_ms : 0.0,
        c.columnar_ms > 0.0 ? rows / (c.columnar_ms / 1000.0) : 0.0,
        c.predict_us, c.score_match ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "[micro_ml] wrote %s (%zu cells, tree-ensemble training "
               "speedup %.2fx, scores %s)\n",
               out_path, cells.size(), tree_speedup,
               all_match ? "bit-identical" : "MISMATCHED");
  return all_match ? 0 : 1;
}
