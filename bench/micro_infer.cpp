// Inference micro-benchmark over the full classifier × ensemble grid,
// A/B-comparing the flat batched inference engine against the scalar
// reference walk (ml/infer.h) in one process.
//
// For every cell the benchmark trains one detector, scores a stream of
// distinct intervals through both backends, verifies the score vectors are
// bit-identical element by element, and records the per-sample latency of
// each backend.
//
// The timed batch is NOT the test split looped over and over: re-scoring
// the same couple of hundred rows lets the branch predictor memorise every
// data-dependent branch in the scalar walk, which flatters it absurdly —
// run-time detection sees each interval exactly once. Instead the batch is
// tens of thousands of unique rows, each a test-split row under a small
// deterministic multiplicative jitter (so values stay in-distribution),
// scored in one pass per timing rep. Both backends score the identical
// batch, so the bit-identity check is unaffected.
//
// Results land in BENCH_infer.json; the headline number is
// `tree_ensemble_speedup`, the aggregate scalar/flat latency ratio over
// the flattenable tree/rule ensembles ({J48, REPTree, JRip} ×
// {AdaBoost, Bagging}). Any score mismatch anywhere exits 1.
//
// Timing: each rep scores the batch once through each backend, the two
// interleaved (the order alternates rep by rep), and charges each pass the
// scoring thread's CPU time. The report gives the median and quartiles over
// the reps. A co-tenant's load on a shared host stretches wall time and
// drifts over a run; interleaving spreads the drift over both backends, CPU
// time leaves out the time the thread was not running, and the quartiles
// show how far one cell's figure can be trusted.
//
// Flags (beyond the shared --quick/--seed/--threads/--backend set):
//   --reps N   timed passes per backend, N >= 1 (default 9; 3 in --quick)
//   --hpcs N   feature-projection width to score at, N >= 1 (default 8)
//   --out P    JSON output path (default BENCH_infer.json)
//   --only L   comma-separated classifier names (e.g. J48,JRip): bench only
//              those rows of the grid. The aggregate speedup then covers
//              only the tree/rule-ensemble cells actually present.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hmd.h"
#include "support/rng.h"

namespace {

using namespace hmd;

/// Median and quartiles of one backend's per-sample latency over the reps.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

struct Cell {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  std::string backend;      ///< engine behind the kFlat request: flat|generic
  Spread scalar_us;         ///< scalar per-sample latency (thread CPU)
  Spread flat_us;           ///< flat (or generic) per-sample latency
  bool score_match = true;  ///< element-wise bit-identity of the two runs
};

/// Median and quartiles (linear interpolation between order statistics).
Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// Per-sample latency spreads of scoring the `rows`-row batch `x` through
/// `scalar` and `flat`: `reps` passes each, interleaved with the order
/// alternating per rep, each timed in thread CPU. The scores stay in
/// `scalar_scores` / `flat_scores`.
void time_backends(const ml::InferenceBackend& scalar,
                   const ml::InferenceBackend& flat,
                   std::span<const double> x, std::size_t num_features,
                   std::size_t rows, std::size_t reps,
                   std::vector<double>& scalar_scores,
                   std::vector<double>& flat_scores, Cell& cell) {
  scalar_scores.assign(rows, 0.0);
  flat_scores.assign(rows, 0.0);
  std::vector<double> scalar_us, flat_us;
  const auto pass = [&](const ml::InferenceBackend& backend,
                        std::vector<double>& scores,
                        std::vector<double>& us) {
    const double t0 = benchutil::thread_cpu_s();
    backend.predict_proba_batch(x, num_features, scores);
    us.push_back(1e6 * (benchutil::thread_cpu_s() - t0) /
                 static_cast<double>(rows));
  };
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 0) {
      pass(scalar, scalar_scores, scalar_us);
      pass(flat, flat_scores, flat_us);
    } else {
      pass(flat, flat_scores, flat_us);
      pass(scalar, scalar_scores, scalar_us);
    }
  }
  cell.scalar_us = spread_of(std::move(scalar_us));
  cell.flat_us = spread_of(std::move(flat_us));
}

/// `rows` unique in-distribution intervals: test-split rows cycled in a
/// mixed order under ±5% multiplicative jitter. Unique rows keep the
/// scalar walk's branch behaviour honest (nothing to memorise), and the
/// jitter never moves a value far enough to leave the trained split range.
std::vector<double> make_stream(const ml::Dataset& test, std::size_t rows,
                                std::uint64_t seed) {
  const std::size_t nf = test.num_features();
  Rng rng(mix64(seed ^ 0x1f2e3d4c5b6a7988ULL));
  std::vector<double> x(rows * nf);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto base = test.row(rng.below(test.num_rows()));
    for (std::size_t j = 0; j < nf; ++j)
      x[i * nf + j] = base[j] * rng.uniform(0.95, 1.05);
  }
  return x;
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
  benchutil::check_args(argc, argv,
                        {"--reps N", "--hpcs N", "--out P", "--only LIST"});
  core::ExperimentConfig cfg = benchutil::config_from_args(argc, argv);
  std::size_t reps = 0;
  std::size_t hpcs = 8;
  const char* out_path = "BENCH_infer.json";
  std::string only;
  bool quick = false;
  // A count flag must be a positive integer; a typo must not silently run
  // the default.
  const auto count_flag = [&](const char* flag, int i) -> std::size_t {
    const std::uint64_t value = benchutil::parse_u64_flag(
        flag, benchutil::flag_value(flag, argc, argv, i));
    if (value == 0) {
      std::fprintf(stderr, "%s must be at least 1\n", flag);
      std::exit(2);
    }
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--reps") == 0) reps = count_flag("--reps", i);
    if (std::strcmp(argv[i], "--hpcs") == 0) hpcs = count_flag("--hpcs", i);
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc)
      only = argv[i + 1];
  }
  const auto selected = [&only](ml::ClassifierKind kind) {
    if (only.empty()) return true;
    const std::string name(ml::classifier_kind_name(kind));
    std::size_t pos = 0;
    while (pos <= only.size()) {
      std::size_t end = only.find(',', pos);
      if (end == std::string::npos) end = only.size();
      if (only.compare(pos, end - pos, name) == 0) return true;
      pos = end + 1;
    }
    return false;
  };
  if (reps == 0) reps = quick ? 3 : 9;

  long long capture_ms = 0;
  const core::ExperimentContext ctx =
      benchutil::prepare(cfg, "micro_infer", &capture_ms);
  const ml::Split& split = ctx.projected_split(hpcs);
  const ml::Dataset& test = split.test;

  // Enough unique rows per timed pass to out-resolve the clock and defeat
  // branch-history memorisation, even on the reduced --quick corpus.
  const std::size_t stream_rows = quick ? 20000 : 200000;
  const std::vector<double> stream =
      make_stream(test, stream_rows, ctx.config.corpus.seed);

  std::vector<Cell> cells;
  bool all_match = true;
  std::vector<double> scalar_scores;
  std::vector<double> flat_scores;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    if (!selected(kind)) continue;
    for (ml::EnsembleKind ensemble : ml::all_ensemble_kinds()) {
      Cell cell{kind, ensemble, "", {}, {}, true};
      auto detector = ml::make_detector(kind, ensemble, ctx.config.model_seed);
      detector->train(split.train);

      const auto scalar =
          ml::make_backend(*detector, ml::InferBackendKind::kScalar);
      const auto flat =
          ml::make_backend(*detector, ml::InferBackendKind::kFlat);
      cell.backend = flat->name();

      time_backends(*scalar, *flat, stream, test.num_features(),
                    stream_rows, reps, scalar_scores, flat_scores, cell);
      cell.score_match = scalar_scores == flat_scores;
      all_match = all_match && cell.score_match;

      std::fprintf(
          stderr,
          "[micro_infer] %-8s %-8s scalar %8.4f us [%.4f, %.4f]  %-7s "
          "%8.4f us [%.4f, %.4f]  (%.2fx)%s\n",
          std::string(ml::classifier_kind_name(kind)).c_str(),
          std::string(ml::ensemble_kind_name(ensemble)).c_str(),
          cell.scalar_us.median, cell.scalar_us.q1, cell.scalar_us.q3,
          cell.backend.c_str(), cell.flat_us.median, cell.flat_us.q1,
          cell.flat_us.q3,
          cell.flat_us.median > 0.0
              ? cell.scalar_us.median / cell.flat_us.median
              : 0.0,
          cell.score_match ? "" : "  SCORE MISMATCH");
      cells.push_back(cell);
    }
  }

  double tree_scalar = 0.0, tree_flat = 0.0;
  for (const Cell& c : cells) {
    if (!tree_ensemble_cell(c)) continue;
    tree_scalar += c.scalar_us.median;
    tree_flat += c.flat_us.median;
  }
  const double tree_speedup = tree_flat > 0.0 ? tree_scalar / tree_flat : 0.0;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[micro_infer] cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_infer\",\n"
               "  \"capture_ms\": %lld,\n"
               "  \"hpcs\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"timing\": \"thread CPU per pass, backends interleaved; "
               "median and quartiles over reps\",\n"
               "  \"batch_rows\": %zu,\n"
               "  \"tree_ensemble_speedup\": %.3f,\n"
               "  \"all_scores_match\": %s,\n"
               "  \"cells\": [\n",
               capture_ms, hpcs, reps, stream_rows, tree_speedup,
               all_match ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"classifier\": \"%s\", \"ensemble\": \"%s\", "
        "\"backend\": \"%s\", \"scalar_us_per_sample\": %.4f, "
        "\"scalar_us_q1\": %.4f, \"scalar_us_q3\": %.4f, "
        "\"flat_us_per_sample\": %.4f, \"flat_us_q1\": %.4f, "
        "\"flat_us_q3\": %.4f, \"speedup\": %.3f, "
        "\"predictions_per_sec\": %.1f, \"score_match\": %s}%s\n",
        std::string(ml::classifier_kind_name(c.kind)).c_str(),
        std::string(ml::ensemble_kind_name(c.ensemble)).c_str(),
        c.backend.c_str(), c.scalar_us.median, c.scalar_us.q1,
        c.scalar_us.q3, c.flat_us.median, c.flat_us.q1, c.flat_us.q3,
        c.flat_us.median > 0.0 ? c.scalar_us.median / c.flat_us.median : 0.0,
        c.flat_us.median > 0.0 ? 1e6 / c.flat_us.median : 0.0,
        c.score_match ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "[micro_infer] wrote %s (%zu cells, tree-ensemble inference "
               "speedup %.2fx, scores %s)\n",
               out_path, cells.size(), tree_speedup,
               all_match ? "bit-identical" : "MISMATCHED");
  return all_match ? 0 : 1;
}
