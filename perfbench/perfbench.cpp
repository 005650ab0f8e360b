// perfbench — the measuring program behind perfbench/run.py.
//
// One process runs one workload and prints one JSON record on stdout (all
// progress goes to stderr). run.py turns the record into the benchmark
// result: it checks the conservation invariants and the determinism
// witnesses, takes medians, and prints the metrics. This program only
// calls the library's public headers, times each call from outside, and
// reports what it saw.
//
//   perfbench --workload paper-grid|fleet-serve
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): set the workload up kSetups times, each from its
// own seed (the first is --seed), and make the measured call on each
// set-up at least kRunsPerSetup times and for its share of `--seconds` of
// wall time. Each call records its wall time and the CPU time all of the
// process's threads spent in it.
//
// Traced (--trace 1): one set-up and one measured call of each workload as
// the untraced references, then both workloads rebuilt from the library's
// public calls, each call timed on its own, plus a check that the rebuilt
// programs reproduce the references exactly (paper-grid: every CellResult
// bit for bit; fleet-serve: the replayed verdict stream's hash), so the
// per-layer figures describe the same programs. A drift scenario is served
// too, for the refresh path's figures. Every traced run thus measures every
// layer; --workload picks which reference is reported as the run's own.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/online.h"
#include "hpc/capture.h"
#include "hpc/pmu.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "ml/infer.h"
#include "ml/metrics.h"
#include "serve/controller.h"
#include "serve/fleet.h"
#include "sim/events.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace {

using namespace hmd;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Measured calls per set-up, at least, so every set-up's calls can be
/// checked against each other; run_cpu_s is the median of all the calls'
/// CPU times.
constexpr int kRunsPerSetup = 2;
/// Start no measured call after this much wall time, so a slow machine
/// still finishes well inside the benchmark's per-run limit.
constexpr double kWallCapS = 140.0;
/// Threads of every parallel phase: at most 4, and never more than the
/// machine has.
const std::size_t kThreads = std::min<std::size_t>(
    4, std::max(1U, std::thread::hardware_concurrency()));

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
double process_cpu_s() { return cpu_seconds(RUSAGE_SELF); }
double thread_cpu_s() { return cpu_seconds(RUSAGE_THREAD); }

/// This program's peak resident set, from VmHWM. getrusage's ru_maxrss
/// would not do: Linux carries it across exec, so it would also count the
/// memory of the process that launched this one.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  unsigned long long kib = 0;
  bool found = false;
  while (!found && std::fgets(line, sizeof line, f) != nullptr)
    found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
  std::fclose(f);
  if (!found) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// FNV-1a 64 over the bytes of the values fed to it: the determinism
// witnesses of set-up and run outputs.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFFU;
      h_ *= 0x100000001B3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (char c : s) u64(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer: objects, arrays, numbers at full precision, strings.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    separate();
    string(k);
    out_ += ':';
    after_key_ = true;
  }
  void value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
  }
  void value(bool v) {
    separate();
    out_ += v ? "true" : "false";
  }
  void value(std::string_view v) {
    separate();
    string(v);
  }
  /// A complete JSON value written by another JsonWriter.
  void raw(std::string_view json) {
    separate();
    out_ += json;
  }
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>)
      value(v);
    else if constexpr (std::is_integral_v<T>)
      value(static_cast<std::uint64_t>(v));
    else
      value(std::string_view(v));
  }

  const std::string& str() const { return out_; }

 private:
  void open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
  }
  void close(char c) {
    out_ += c;
    first_.pop_back();
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void string(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::uint64_t seed = 2018;
  double seconds = 25.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-grid|fleet-serve [--seed N] [--seconds S] "
               "[--trace 0|1]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage("bad value for " + flag + ": " + text);
  return v;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, v));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, v);
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "paper-grid" && o.workload != "fleet-serve")
    usage("unknown workload '" + o.workload + "'");
  if (o.seconds < 1.0) usage("--seconds must be at least 1");
  return o;
}

// ---------------------------------------------------------------------------
// Workload configurations. Each is fixed here, apart from the seed, so the
// benchmark's inputs are a function of --seed alone.

core::ExperimentConfig paper_grid_config(const Options& o) {
  core::ExperimentConfig c;  // paper scale: 142 apps x 20 intervals
  c.corpus.seed = o.seed;
  c.threads = kThreads;
  return c;
}

/// fleet-serve: the deployed detector's hot path at capacity.
serve::FleetConfig fleet_config(const Options& o) {
  serve::FleetConfig fc;
  fc.seed = o.seed;
  fc.threads = kThreads;
  fc.hosts = 2000;
  fc.ticks = 2000;
  return fc;
}

/// The default ServeConfig, with its one worker spelled out.
serve::ServeConfig serve_config() {
  serve::ServeConfig sc;
  sc.threads = 1;
  return sc;
}

/// The drift scenario of fleet-serve's traced run: the bench/drift fleet
/// (600 hosts, campaign at tick 150) over 600 ticks instead of 300, so the
/// swap (trigger + 48 ticks) lands inside the run for a late trigger too;
/// at 300 ticks about one seed in 25 triggers after tick 252.
serve::FleetConfig drift_fleet_config(const Options& o) {
  serve::FleetConfig fc;
  fc.seed = o.seed;
  fc.threads = kThreads;
  fc.hosts = 600;
  fc.ticks = 600;
  fc.drift.enabled = true;
  fc.drift.campaign_onset = 150;
  fc.drift.novel_templates = 4;
  fc.drift.campaign_fraction = 0.25;
  fc.drift.campaign_spread = 8;
  fc.drift.benign_shift = 0.2;
  fc.drift.benign_shift_ramp = 24;
  return fc;
}

serve::ServeConfig drift_serve_config() {
  serve::ServeConfig sc = serve_config();
  sc.drift.enabled = true;
  sc.drift.check_interval = 16;
  sc.drift.warmup_checks = 2;
  sc.drift.min_shards = 2;
  sc.refresh.enabled = true;
  sc.refresh.harvest_ticks = 16;
  sc.refresh.refresh_lag_ticks = 48;
  return sc;
}

/// The seed of a run's set-up `index`: --seed for the first, then a
/// SplitMix64 stream from it. The measured call's cost depends on its
/// inputs (fleet-serve's model, for one, costs 15% more to serve for some
/// seeds than for others), so a run that spans several inputs gives a
/// median that moves less from one --seed to the next.
std::uint64_t setup_seed(std::uint64_t seed, int index) {
  std::uint64_t state = seed;
  std::uint64_t s = seed;
  for (int i = 0; i < index; ++i) s = splitmix64(state);
  return s;
}

void write_config(JsonWriter& j, const Options& o) {
  j.key("config");
  j.begin_object();
  if (o.workload == "paper-grid") {
    const core::ExperimentConfig c = paper_grid_config(o);
    j.field("benign_per_template", c.corpus.benign_per_template);
    j.field("malware_per_template", c.corpus.malware_per_template);
    j.field("intervals_per_app", c.corpus.intervals_per_app);
    j.field("instruction_scale", c.corpus.instruction_scale);
    j.field("pmu_counters", c.capture.pmu.programmable_counters);
    j.field("train_fraction", c.train_fraction);
    j.field("split_seed", c.split_seed);
    j.field("selected_features", c.selected_features);
    j.field("model_seed", c.model_seed);
    j.field("grid_cells", core::full_grid().size());
    j.field("threads", c.threads);
  } else {
    const serve::FleetConfig fc = fleet_config(o);
    const serve::ServeConfig sc = serve_config();
    j.field("hosts", fc.hosts);
    j.field("ticks", fc.ticks);
    j.field("malware_fraction", fc.malware_fraction);
    j.field("drop_rate", fc.drop_rate);
    j.field("hpcs", fc.hpcs);
    j.field("train_variants", fc.train_variants);
    j.field("train_intervals", fc.train_intervals);
    j.field("setup_threads", fc.threads);
    j.field("serve_workers", sc.threads);
    j.field("queue_capacity", sc.queue_capacity);
    j.field("batched", sc.batched);
    j.field("admit_per_tick", sc.admit_per_tick);

  }
  j.key(o.workload == "paper-grid" ? "corpus_seeds" : "fleet_seeds");
  j.begin_array();
  for (int k = 0; k < (o.trace ? 1 : kSetups); ++k)
    j.value(setup_seed(o.seed, k));
  j.end_array();
  if (o.trace) {
    const serve::FleetConfig dc = drift_fleet_config(o);
    j.field("drift_scenario_hosts", dc.hosts);
    j.field("drift_scenario_ticks", dc.ticks);
    j.field("drift_scenario_onset", dc.drift.campaign_onset);
  }
  j.end_object();
}

// ---------------------------------------------------------------------------
// Witnesses and per-iteration facts.

std::uint64_t context_witness(const core::ExperimentContext& ctx) {
  Fnv h;
  const hpc::Capture& cap = ctx.capture;
  h.u64(cap.num_rows());
  for (std::size_t i = 0; i < cap.num_rows(); ++i) {
    for (double v : cap.rows[i]) h.f64(v);
    h.u64(static_cast<std::uint64_t>(cap.labels[i]));
    h.u64(cap.row_app[i]);
  }
  h.u64(cap.total_runs);
  for (const ml::FeatureScore& f : ctx.ranking) {
    h.u64(f.feature);
    h.f64(f.score);
  }
  return h.value();
}

void hash_complexity(Fnv& h, const ml::ModelComplexity& c) {
  h.str(c.kind);
  for (std::size_t v : {c.comparators, c.adders, c.multipliers, c.table_entries,
                        c.nonlinearities, c.depth, c.inputs})
    h.u64(v);
  h.u64(c.children.size());
  for (const ml::ModelComplexity& child : c.children) hash_complexity(h, child);
}

std::uint64_t cell_witness(const core::CellResult& r) {
  Fnv h;
  h.u64(static_cast<std::uint64_t>(r.classifier));
  h.u64(static_cast<std::uint64_t>(r.ensemble));
  h.u64(r.hpcs);
  h.f64(r.metrics.accuracy);
  h.f64(r.metrics.auc);
  hash_complexity(h, r.complexity);
  return h.value();
}

std::uint64_t grid_witness(const std::vector<core::CellResult>& results) {
  Fnv h;
  for (const core::CellResult& r : results) h.u64(cell_witness(r));
  return h.value();
}

std::uint64_t fleet_witness(const serve::FleetSetup& f) {
  Fnv h;
  for (sim::Event e : f.events) h.u64(static_cast<std::uint64_t>(e));
  for (double v : f.bank) h.f64(v);
  for (int l : f.app_labels) h.u64(static_cast<std::uint64_t>(l));
  for (const serve::HostProfile& p : f.hosts) {
    for (std::uint32_t v : {p.benign_app, p.malware_app, p.onset_tick, p.phase,
                            p.campaign_app, p.campaign_onset})
      h.u64(v);
    h.u64(p.is_malware);
    h.u64(p.campaign);
  }
  const ml::Dataset& base = f.base_train;
  h.u64(base.num_rows());
  for (std::size_t i = 0; i < base.num_rows(); ++i) {
    for (double v : base.row(i)) h.f64(v);
    h.u64(static_cast<std::uint64_t>(base.label(i)));
  }
  // The trained model, through the scores it gives the bank.
  std::vector<double> scores(f.bank.size() / f.num_features);
  f.backend->predict_proba_batch(f.bank, f.num_features, scores);
  for (double s : scores) h.f64(s);
  return h.value();
}

void write_grid_run(JsonWriter& j, const std::vector<core::CellResult>& r) {
  j.field("grid_hash", hex(grid_witness(r)));
  j.key("cells");
  j.begin_array();
  for (const core::CellResult& c : r) {
    j.begin_array();
    j.value(c.metrics.accuracy);
    j.value(c.metrics.auc);
    j.end_array();
  }
  j.end_array();
}

void write_serve_run(JsonWriter& j, const serve::ServeReport& rep) {
  const serve::ServeCounters& c = rep.counters;
  j.field("verdict_hash", hex(c.verdict_hash));
  j.key("counters");
  j.begin_object();
  j.field("hosts", c.hosts);
  j.field("ticks", c.ticks);
  j.field("shards", c.shards);
  j.field("offered", c.offered);
  j.field("missing", c.missing);
  j.field("emitted", c.emitted);
  j.field("admitted", c.admitted);
  j.field("shed", c.shed);
  j.field("batches", c.batches);
  j.field("scored_rows", c.scored_rows);
  j.field("drift_triggers", c.drift_triggers);
  j.field("drift_trigger_tick", c.drift_trigger_tick);
  j.field("model_swaps", c.model_swaps);
  j.field("model_swap_tick", c.model_swap_tick);
  j.field("final_model_epoch", c.final_model_epoch);
  j.end_object();
  const serve::LatencyStats& e2e = rep.timing.e2e;
  j.key("verdict_latency_us");
  j.begin_object();
  j.field("count", e2e.count());
  j.field("p50", e2e.p50());
  j.field("p99", e2e.p99());
  j.end_object();
}

// ---------------------------------------------------------------------------
// Set-up and the measured call.

/// The workload set up, ready for its measured call.
struct Prepared {
  std::unique_ptr<core::ExperimentContext> ctx;  ///< paper-grid
  std::unique_ptr<serve::FleetSetup> fleet;      ///< fleet-serve
  double setup_s = 0.0;
  int index = 0;  ///< which set-up of the run
};

/// What one measured call returned.
struct Outcome {
  double run_s = 0.0;  ///< wall time
  double cpu_s = 0.0;  ///< CPU time of all the process's threads
  std::vector<core::CellResult> grid;  ///< paper-grid
  serve::ServeReport serve;            ///< fleet-serve, without the verdicts
};

/// Set the workload up from the seed of set-up `index`, writing the
/// set-up's record.
Prepared set_up(const Options& o, int index, JsonWriter& j) {
  Options from = o;
  from.seed = setup_seed(o.seed, index);
  Prepared p;
  p.index = index;
  const auto t0 = Clock::now();
  if (o.workload == "paper-grid") {
    p.ctx = std::make_unique<core::ExperimentContext>(
        core::prepare_experiment(paper_grid_config(from)));
  } else {
    p.fleet = std::make_unique<serve::FleetSetup>(
        serve::make_fleet(fleet_config(from)));
  }
  p.setup_s = since(t0);
  j.begin_object();
  j.field("seed", from.seed);
  j.field("setup_s", p.setup_s);
  j.end_object();
  std::fprintf(stderr, "[perfbench] %s: setup %.3f s\n", o.workload.c_str(),
               p.setup_s);
  return p;
}

/// Serve `fleet` once, writing the call's record.
Outcome serve_once(const serve::FleetSetup& fleet,
                   const serve::ServeConfig& sc, int setup, JsonWriter& j) {
  Outcome out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  out.serve = serve::run_fleet(fleet, sc);
  out.run_s = since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.serve.verdicts = {};
  j.begin_object();
  j.field("setup", setup);
  j.field("ops", out.serve.counters.offered);
  write_serve_run(j, out.serve);
  j.field("run_s", out.run_s);
  j.field("cpu_s", out.cpu_s);
  j.end_object();
  return out;
}

/// The workload's measured call, writing its record. paper-grid runs on a
/// copy of the context with an empty projection cache, so every run pays
/// the projections as a first run_grid does.
Outcome measure(const Options& o, const Prepared& p, JsonWriter& j) {
  Outcome out;
  if (p.ctx) {
    const core::ExperimentContext& c = *p.ctx;
    const core::ExperimentContext fresh{c.config, c.capture, c.resume_stats,
                                        c.full,   c.split,   c.ranking};
    const std::vector<core::GridCell> cells = core::full_grid();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    out.grid = core::run_grid(fresh, cells, kThreads);
    out.run_s = since(t0);
    out.cpu_s = process_cpu_s() - cpu0;
    j.begin_object();
    j.field("setup", p.index);
    j.field("ops", out.grid.size());
    write_grid_run(j, out.grid);
    j.field("run_s", out.run_s);
    j.field("cpu_s", out.cpu_s);
    j.end_object();
  } else {
    out = serve_once(*p.fleet, serve_config(), p.index, j);
  }
  std::fprintf(stderr, "[perfbench] %s: run %.3f s, %.3f CPU-s\n",
               o.workload.c_str(), out.run_s, out.cpu_s);
  return out;
}

/// The untraced run: kSetups set-ups, each followed by its calls, at
/// least kRunsPerSetup of them and until the calls so far have taken
/// (index + 1) / kSetups of `--seconds`; the run stops early only past
/// kWallCapS. A shared host's speed drifts over tens of seconds, so
/// set-ups and calls spread over the whole run give steadier medians than
/// set-ups bunched at its start. Writes "setups" and "runs".
void run_untraced(const Options& o, JsonWriter& j) {
  const auto t_start = Clock::now();
  JsonWriter setups;
  JsonWriter runs;
  setups.begin_array();
  runs.begin_array();
  double measured = 0.0;
  double slowest = 0.0;
  const auto over_cap = [&] { return since(t_start) + slowest > kWallCapS; };
  for (int k = 0; k < kSetups && !(k > 0 && over_cap()); ++k) {
    const Prepared prepared = set_up(o, k, setups);
    const double until = o.seconds * (k + 1) / kSetups;
    for (int i = 0; i < kRunsPerSetup || (measured < until && !over_cap());
         ++i) {
      const double run_s = measure(o, prepared, runs).run_s;
      measured += run_s;
      slowest = std::max(slowest, run_s);
    }
  }
  setups.end_array();
  runs.end_array();
  j.key("setups");
  j.raw(setups.str());
  j.key("runs");
  j.raw(runs.str());
}

// ---------------------------------------------------------------------------
// Traced recompositions. Every figure is timed around a public library call
// from this file; nothing inside src/ is instrumented.

using Layers = std::map<std::string, double>;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// paper-grid rebuilt call by call: build_corpus -> capture_all_events ->
/// to_dataset -> stratified_group_split -> ranking -> per-cell
/// projected_split / make_detector / train / score_dataset /
/// detector_metrics, plus a separate pass of the simulator over the same
/// corpus and run indices as the capture.
void trace_paper_grid(const Options& o, const Prepared& ref_setup,
                      const Outcome& ref, Layers& L,
                      std::map<std::string, bool>& reproduced) {
  const core::ExperimentConfig cfg = paper_grid_config(o);
  double setup_t = 0.0;

  auto t0 = Clock::now();
  const std::vector<sim::AppProfile> corpus = sim::build_corpus(cfg.corpus);
  setup_t += since(t0);

  hpc::CaptureConfig cap_cfg = cfg.capture;
  if (cap_cfg.threads == 0) cap_cfg.threads = cfg.threads;
  const double cpu0 = process_cpu_s();
  t0 = Clock::now();
  hpc::Capture capture = hpc::capture_all_events(corpus, cap_cfg);
  const double capture_s = since(t0);
  const double capture_cpu = process_cpu_s() - cpu0;
  setup_t += capture_s;

  t0 = Clock::now();
  ml::Dataset full = core::to_dataset(capture);
  L["core.to_dataset_s"] = since(t0);

  t0 = Clock::now();
  Rng split_rng(cfg.split_seed);
  ml::Split split =
      ml::stratified_group_split(full, cfg.train_fraction, split_rng);
  L["core.split_s"] = since(t0);

  t0 = Clock::now();
  std::vector<ml::FeatureScore> ranking =
      ml::prune_redundant(split.train, ml::correlation_ranking(split.train));
  L["ml.rank_s"] = since(t0);
  setup_t += L["core.to_dataset_s"] + L["core.split_s"] + L["ml.rank_s"];

  L["hpc.capture_s"] = capture_s;
  L["hpc.capture_cpu_s"] = capture_cpu;
  L["hpc.container_runs"] = static_cast<double>(capture.total_runs);
  L["hpc.rows"] = static_cast<double>(capture.num_rows());
  L["hpc.runs_per_s"] = static_cast<double>(capture.total_runs) / capture_s;
  L["hpc.pool_util"] =
      capture_cpu / (static_cast<double>(cap_cfg.threads) * capture_s);

  core::ExperimentContext ctx;
  ctx.config = cfg;
  ctx.capture = std::move(capture);
  ctx.full = std::move(full);
  ctx.split = std::move(split);
  ctx.ranking = std::move(ranking);
  reproduced["setup_context"] =
      context_witness(ctx) == context_witness(*ref_setup.ctx);

  const std::vector<core::GridCell> cells = core::full_grid();
  const double grid_cpu0 = process_cpu_s();
  t0 = Clock::now();
  for (std::size_t hpcs : {16, 8, 4, 2}) ctx.projected_split(hpcs);
  L["core.projection_s"] = since(t0);

  struct CellTiming {
    core::CellResult result;
    double train_s = 0.0;
    double score_s = 0.0;
    double cell_s = 0.0;
    std::size_t rows = 0;
  };
  support::ThreadPool pool(kThreads);
  t0 = Clock::now();
  const std::vector<CellTiming> timed =
      pool.parallel_map(cells.size(), [&](std::size_t i) {
        const core::GridCell& cell = cells[i];
        const auto c0 = Clock::now();
        const ml::Split& projected = ctx.projected_split(cell.hpcs);
        auto detector = ml::make_detector(cell.classifier, cell.ensemble,
                                          cfg.model_seed);
        detector->train(projected.train);
        const auto c1 = Clock::now();
        const ml::Dataset& test = projected.test;
        const std::vector<double> scores = ml::score_dataset(*detector, test);
        const auto c2 = Clock::now();
        std::vector<int> labels(test.num_rows());
        std::vector<double> weights(test.num_rows());
        for (std::size_t r = 0; r < test.num_rows(); ++r) {
          labels[r] = test.label(r);
          weights[r] = test.weight(r);
        }
        CellTiming t;
        t.result.classifier = cell.classifier;
        t.result.ensemble = cell.ensemble;
        t.result.hpcs = cell.hpcs;
        t.result.complexity = detector->complexity();
        t.result.metrics = ml::detector_metrics(scores, labels, weights);
        t.train_s = std::chrono::duration<double>(c1 - c0).count();
        t.score_s = std::chrono::duration<double>(c2 - c1).count();
        t.cell_s = since(c0);
        t.rows = test.num_rows();
        return t;
      });
  const double grid_t = since(t0);
  const double grid_cpu = process_cpu_s() - grid_cpu0;

  bool cells_equal = timed.size() == ref.grid.size();
  for (std::size_t i = 0; cells_equal && i < timed.size(); ++i)
    cells_equal = cell_witness(timed[i].result) == cell_witness(ref.grid[i]);
  reproduced["grid_cells"] = cells_equal;

  const std::string train = "ml.train_s.";
  for (const CellTiming& t : timed) {
    L[train + std::string(ml::classifier_kind_name(t.result.classifier))] +=
        t.train_s;
    L[train + std::string(ml::ensemble_kind_name(t.result.ensemble))] +=
        t.train_s;
  }
  double score_s = 0.0;
  double score_rows = 0.0;
  double busy = 0.0;
  std::vector<double> cell_s;
  for (const CellTiming& t : timed) {
    score_s += t.score_s;
    score_rows += static_cast<double>(t.rows);
    busy += t.cell_s;
    cell_s.push_back(t.cell_s);
  }
  L["ml.score_s"] = score_s;
  L["ml.score_rows"] = score_rows;
  L["ml.score_rows_per_s"] = score_rows / score_s;
  L["core.grid_busy_s"] = busy;
  L["core.cell_p50_s"] = median_of(cell_s);
  L["core.cell_max_s"] = *std::max_element(cell_s.begin(), cell_s.end());
  L["core.grid_util"] = busy / (static_cast<double>(kThreads) * grid_t);

  // The simulator alone, over the capture's corpus and run indices: one
  // run per PMU batch of the 44 events, each on a fresh (reset) machine.
  const std::vector<sim::Event> events(sim::all_events().begin(),
                                       sim::all_events().end());
  const std::size_t batches =
      hpc::schedule_batches(events, cap_cfg.pmu.programmable_counters).size();
  struct SimTotals {
    std::uint64_t intervals = 0;
    std::uint64_t instructions = 0;
    double cpu_s = 0.0;
  };
  const std::vector<SimTotals> per_app =
      pool.parallel_map(corpus.size(), [&](std::size_t a) {
        SimTotals s;
        const double c0 = thread_cpu_s();
        sim::Machine machine(cap_cfg.machine);
        for (std::size_t b = 0; b < batches; ++b) {
          machine.start_run(corpus[a], static_cast<std::uint32_t>(b));
          while (machine.running()) {
            s.instructions += machine.next_interval()[sim::Event::kInstructions];
            ++s.intervals;
          }
          machine.reset();
        }
        s.cpu_s = thread_cpu_s() - c0;
        return s;
      });
  SimTotals sim_total;
  for (const SimTotals& s : per_app) {
    sim_total.intervals += s.intervals;
    sim_total.instructions += s.instructions;
    sim_total.cpu_s += s.cpu_s;
  }
  reproduced["sim_runs"] =
      sim_total.intervals ==
      static_cast<std::uint64_t>(L["hpc.container_runs"]) *
          cfg.corpus.intervals_per_app;
  L["sim.intervals"] = static_cast<double>(sim_total.intervals);
  L["sim.instructions"] = static_cast<double>(sim_total.instructions);
  L["sim.busy_s"] = sim_total.cpu_s;
  L["sim.instr_per_s"] =
      static_cast<double>(sim_total.instructions) / sim_total.cpu_s;
  L["hpc.overhead_frac"] = 1.0 - sim_total.cpu_s / capture_cpu;

  L["overhead.setup_s.paper-grid"] = setup_t - ref_setup.setup_s;
  L["overhead.run_cpu_s.paper-grid"] = grid_cpu - ref.cpu_s;
}

/// What one replay of fleet-serve produced.
struct Replay {
  std::uint64_t verdict_hash = 0;
  std::uint64_t batches = 0;
  std::uint64_t scored = 0;
  double cpu_s = 0.0;  ///< CPU time of the replaying thread
  double gen_s = 0.0, infer_s = 0.0, step_s = 0.0;  ///< timed replays only
};

/// fleet-serve replayed from outside: per tick and shard (hosts h with
/// h % shards == s, ascending), sample_dropped / gen_features -> the
/// fleet backend's batch scoring -> core::OnlineState stepping. A timed
/// replay reads the clock around each stage of each batch; an untimed one
/// does the same work without those reads.
Replay replay_fleet(const serve::FleetSetup& fleet, std::size_t shards,
                    bool timed) {
  const serve::ServeConfig sc = serve_config();
  const std::size_t hosts = fleet.hosts.size();
  const std::uint32_t ticks = fleet.cfg.ticks;
  const std::size_t nf = fleet.num_features;
  const auto stamp = [timed] {
    return timed ? Clock::now() : Clock::time_point{};
  };
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  std::vector<std::vector<std::uint32_t>> shard_hosts(shards);
  for (std::uint32_t h = 0; h < hosts; ++h) shard_hosts[h % shards].push_back(h);
  std::vector<core::OnlineState> state(hosts);
  std::vector<serve::ServeVerdict> verdicts(hosts * ticks);
  std::vector<double> rows;
  std::vector<double> scores;
  std::vector<serve::SampleOutcome> outcomes;

  Replay r;
  const double cpu0 = thread_cpu_s();
  for (std::uint32_t tick = 0; tick < ticks; ++tick) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::vector<std::uint32_t>& members = shard_hosts[s];
      const auto t0 = stamp();
      rows.clear();
      outcomes.assign(members.size(), serve::SampleOutcome::kScored);
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (serve::sample_dropped(fleet, members[i], tick)) {
          outcomes[i] = serve::SampleOutcome::kMissing;
          continue;
        }
        const std::size_t at = rows.size();
        rows.resize(at + nf);
        serve::gen_features(fleet, members[i], tick,
                            std::span<double>(rows).subspan(at, nf));
      }
      const auto t1 = stamp();
      const std::size_t n = rows.size() / nf;
      scores.assign(n, 0.0);
      if (n > 0) fleet.backend->predict_proba_batch(rows, nf, scores);
      const auto t2 = stamp();
      std::size_t k = 0;
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::uint32_t h = members[i];
        const core::Verdict v =
            outcomes[i] == serve::SampleOutcome::kScored
                ? state[h].step_score(sc.online, scores[k++])
                : state[h].step_missing(sc.online);
        verdicts[static_cast<std::size_t>(tick) * hosts + h] = {
            tick, h, v.score, v.ewma, outcomes[i], v.alarm, v.stale};
      }
      const auto t3 = stamp();
      r.gen_s += secs(t0, t1);
      r.infer_s += secs(t1, t2);
      r.step_s += secs(t2, t3);
      ++r.batches;
      r.scored += n;
    }
  }
  r.cpu_s = thread_cpu_s() - cpu0;
  r.verdict_hash = serve::verdict_stream_hash(verdicts);
  return r;
}

/// fleet-serve's per-stage figures from a timed replay; the replays must
/// hash to run_fleet's verdict_hash. The tracing overhead is the timed
/// replay's CPU time minus an untimed replay's.
void trace_fleet_serve(const serve::FleetSetup& fleet, const Outcome& ref,
                       Layers& L, std::map<std::string, bool>& reproduced) {
  const serve::ServeCounters& rc = ref.serve.counters;
  const Replay untimed = replay_fleet(fleet, rc.shards, false);
  const Replay timed = replay_fleet(fleet, rc.shards, true);
  const auto matches = [&rc](const Replay& r) {
    return r.verdict_hash == rc.verdict_hash && r.batches == rc.batches &&
           r.scored == rc.scored_rows;
  };
  reproduced["verdict_hash"] = matches(untimed) && matches(timed);

  const serve::LatencyStats& e2e = ref.serve.timing.e2e;
  L["serve.batches"] = static_cast<double>(rc.batches);
  L["serve.scored_rows"] = static_cast<double>(rc.scored_rows);
  L["serve.verdict_p50_us"] = e2e.p50();
  L["serve.verdict_p99_us"] = e2e.p99();
  L["serve.verdict_samples"] = static_cast<double>(e2e.count());

  const double nb = static_cast<double>(timed.batches);
  L["serve.gen_us_mean"] = timed.gen_s * 1e6 / nb;
  L["ml.infer_us_mean"] = timed.infer_s * 1e6 / nb;
  L["ml.infer_rows_per_s"] = static_cast<double>(timed.scored) / timed.infer_s;
  L["core.step_us_mean"] = timed.step_s * 1e6 / nb;
  L["serve.wait_us_mean"] =
      e2e.mean() - (timed.gen_s + timed.infer_s + timed.step_s) * 1e6 / nb;
  L["overhead.run_cpu_s.fleet-serve"] = timed.cpu_s - untimed.cpu_s;
}

/// The drift scenario, served twice: the refresh path's figures, and its
/// determinism witnesses (trigger tick, swap tick, verdict hash).
void trace_drift(const Options& o, Layers& L, JsonWriter& j) {
  const serve::FleetSetup fleet = serve::make_fleet(drift_fleet_config(o));
  j.key("drift_runs");
  j.begin_array();
  std::vector<double> run_s;
  serve::ServeReport last;
  for (int i = 0; i < 2; ++i) {
    Outcome out = serve_once(fleet, drift_serve_config(), 0, j);
    run_s.push_back(out.run_s);
    last = std::move(out.serve);
  }
  j.end_array();
  L["serve.drift_run_s"] = median_of(run_s);
  L["serve.retrain_s"] = last.timing.retrain_ms / 1000.0;
  L["serve.swap_wait_s"] = last.timing.swap_wait_ms / 1000.0;
  L["serve.barrier_s"] = last.timing.barrier_ms / 1000.0;
}

/// The traced run: one set-up and one measured call of each workload as
/// the untraced references (the chosen workload's as "setups"/"runs", the
/// other's under "traced"), a second fleet set-up that must equal the
/// first, then both recompositions and the drift scenario.
void run_traced(const Options& o, JsonWriter& j) {
  Options other = o;
  other.workload = o.workload == "paper-grid" ? "fleet-serve" : "paper-grid";
  j.key("setups");
  j.begin_array();
  const Prepared own = set_up(o, 0, j);
  j.end_array();
  j.key("runs");
  j.begin_array();
  const Outcome own_ref = measure(o, own, j);
  j.end_array();

  j.key("traced");
  j.begin_object();
  j.field("other_workload", other.workload);
  j.key("other_setups");
  j.begin_array();
  const Prepared theirs = set_up(other, 0, j);
  j.end_array();
  j.key("other_runs");
  j.begin_array();
  const Outcome their_ref = measure(other, theirs, j);
  j.end_array();

  const bool own_grid = o.workload == "paper-grid";
  const Prepared& grid = own_grid ? own : theirs;
  const Prepared& fleet = own_grid ? theirs : own;
  Layers L;
  std::map<std::string, bool> reproduced;
  // make_fleet is not rebuilt from public calls, so its determinism is
  // checked by setting the fleet up once more.
  reproduced["setup_fleet"] =
      fleet_witness(serve::make_fleet(fleet_config(o))) ==
      fleet_witness(*fleet.fleet);
  const double rss_untraced = peak_rss_mb();
  trace_paper_grid(o, grid, own_grid ? own_ref : their_ref, L, reproduced);
  trace_fleet_serve(*fleet.fleet, own_grid ? their_ref : own_ref, L,
                    reproduced);
  trace_drift(o, L, j);
  L["overhead.peak_rss_mb"] = peak_rss_mb() - rss_untraced;

  j.key("reproduced");
  j.begin_object();
  for (const auto& [name, ok] : reproduced) j.field(name, ok);
  j.end_object();
  j.key("layers");
  j.begin_object();
  for (const auto& [name, v] : L) j.field(name, v);
  j.end_object();
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  JsonWriter j;
  j.begin_object();
  j.field("workload", o.workload);
  j.field("seed", o.seed);
  j.field("seconds", o.seconds);
  j.field("trace", o.trace);
  j.field("threads", kThreads);
  j.field("nproc", std::thread::hardware_concurrency());
  j.field("compiler", "g++ " __VERSION__);
  j.field("cxx_flags", PERFBENCH_CXX_FLAGS);
  j.field("build_type", PERFBENCH_BUILD_TYPE);
  write_config(j, o);
  try {
    if (o.trace)
      run_traced(o, j);
    else
      run_untraced(o, j);
    j.field("peak_rss_mb", peak_rss_mb());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
