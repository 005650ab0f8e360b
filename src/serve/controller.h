// Sharded controller/worker serving pipeline: fleet-scale run-time
// detection with cross-host batched inference.
//
// One OnlineDetector per host scores each interval alone — a batch of one
// — which wastes the flat inference engine's entire design (DESIGN §13:
// branch-free 8-lane walks want *rows*). The serving layer restores the
// batch dimension across hosts instead of across time: a single-threaded
// controller walks the virtual 10 ms tick clock, coalesces every pending
// host interval of a shard into one row-major batch, and hands it to a
// worker that scores the whole batch in ONE predict_proba_batch call and
// then steps each host's OnlineState (core/online.h) with its score.
// Per-interval scalar scoring becomes cross-host batched scoring; the
// speedup is the bench's headline (bench/serve, BENCH_serve.json).
//
// Pipeline stages and roles:
//
//   controller (1 thread)  — per tick: token-bucket admission (explicit
//     shed accounting), drop simulation, batch assembly; hands each batch
//     to its worker.
//   workers (N)            — own a fixed partition of shards (shard
//     s -> worker s mod N): score the batch (one batched call, or
//     row-by-row in the unbatched A/B mode), step the shard's per-host
//     EWMA/alarm/staleness automata in tick order, write each verdict
//     straight into its host slot of the tick's row and the batch's stage
//     times into its shard slot, then count the batch done on that row.
//
// One per-batch function is the worker, with two dispatchers. At N = 1
// the controller calls it inline, right after assembling the batch: no
// worker thread, no queue, no hand-off, and a batch's verdicts are out as
// soon as it is scored. At N >= 2 each worker is a thread fed through its
// own BoundedQueue (backpressure: a full queue stalls the controller,
// counted, never dropped).
//
// Memory is O(hosts), independent of the run length. Verdicts live in a
// ring of R tick rows (R = 1 inline, queue_capacity + 2 queued), each
// `hosts` verdicts long, host-indexed, so a finished row is already in
// canonical (tick, host) order. Each row has a completed-shard counter:
// the worker's release increment, the controller's acquire wait. Before
// tick t + 1 takes row (t + 1) mod R, the controller finishes tick
// t + 1 - R: it waits for the tick, streams the row into the FNV-1a
// verdict hash (VerdictHasher), appends it to the report if
// record_verdicts asks, and folds its stage times into the P^2 latency
// estimators (serve/quantile.h) in shard order. That one wait is also the
// drift barrier: "tick t complete" means every batch up to t is stepped.
// After the join, run_fleet sums each worker's batch/row/alarm tallies.
//
// Determinism contract (enforced by tests and the ci.sh serve leg): the
// verdict stream and every field of ServeCounters are bit-identical across
// worker counts and batched vs unbatched scoring, under a fixed seed.
// Everything decided on the virtual tick clock — admission, shed, drops,
// scores, alarm transitions — is deterministic; everything *measured*
// (stage latencies, backpressure stalls, throughput) lives in ServeTiming
// and is explicitly excluded from the contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/online.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "serve/quantile.h"

namespace hmd::serve {

struct ServeConfig {
  /// Workers (scoring/stepping); 0 = auto via resolve_threads(). Clamped
  /// to the shard count. One worker runs inline on the controller thread;
  /// two or more each get a thread of their own, and the controller then
  /// never touches detector state or scores.
  std::size_t threads = 1;
  /// Host shards; 0 = auto: max(1, hosts / 32). The auto value depends
  /// only on the fleet, never on the worker count — shard boundaries are
  /// part of the deterministic domain.
  std::size_t shards = 0;
  /// Per-worker task queue depth, in batches. Queues exist only with two
  /// or more workers (one runs inline). A full queue blocks the controller
  /// (backpressure); stalls are counted in ServeTiming.
  std::size_t queue_capacity = 8;
  /// true: one predict_proba_batch call per shard batch (the point of the
  /// serving layer). false: the A/B baseline — identical pipeline, but
  /// each row scored with a batch-of-one call. Verdicts are bit-identical.
  bool batched = true;
  /// Token-bucket admission: samples admitted per tick across the fleet;
  /// 0 disables admission control entirely (everything emitted is scored).
  std::uint64_t admit_per_tick = 0;
  /// Bucket (burst) capacity; 0 means admit_per_tick.
  std::uint64_t admit_burst = 0;
  /// Keep the full verdict stream in the report (hosts × ticks entries,
  /// the only allocation that grows with the run). Off, serving memory is
  /// O(hosts); the verdict hash is computed either way.
  bool record_verdicts = false;
  core::OnlineConfig online{};
  /// Concept-drift detection over the score stream (serve/drift.h).
  /// Disabled by default, which leaves the pipeline byte-identical to the
  /// pre-drift build. When enabled, every check_interval ticks the
  /// controller waits for the tick to complete (a barrier) and evaluates
  /// the detector; all of it stays in the deterministic domain.
  DriftDetectorConfig drift{};
  /// What to do when the drift trigger fires: harvest flagged windows,
  /// retrain on a background worker, hot-swap at a fixed virtual tick.
  RefreshConfig refresh{};
};

/// How one (host, tick) sample left the pipeline.
enum class SampleOutcome : std::uint8_t {
  kScored = 0,   ///< admitted and scored
  kMissing = 1,  ///< collector dropped the sample (fleet drop_rate)
  kShed = 2,     ///< admission control rejected it (token bucket empty)
};

/// One per-(host, tick) verdict. Missing/shed samples still produce a
/// verdict — the held EWMA/alarm state via OnlineState::step_missing.
struct ServeVerdict {
  std::uint32_t tick = 0;
  std::uint32_t host = 0;
  double score = 0.0;  ///< per-sample P(malware); held value when not scored
  double ewma = 0.0;
  SampleOutcome outcome = SampleOutcome::kScored;
  bool alarm = false;
  bool stale = false;
};

/// Deterministic domain: bit-identical across worker counts and batched vs
/// unbatched scoring (fixed seed). The ci.sh serve leg diffs these
/// across thread counts byte for byte.
struct ServeCounters {
  std::uint64_t hosts = 0;
  std::uint64_t ticks = 0;
  std::uint64_t shards = 0;
  std::uint64_t offered = 0;    ///< hosts × ticks
  std::uint64_t missing = 0;    ///< lost by the collector (drop_rate)
  std::uint64_t emitted = 0;    ///< offered - missing
  std::uint64_t admitted = 0;   ///< emitted samples the bucket admitted
  std::uint64_t shed = 0;       ///< emitted samples rejected by admission
  std::uint64_t batches = 0;    ///< one per (tick, shard)
  std::uint64_t scored_rows = 0;     ///< == admitted
  std::uint64_t alarms_raised = 0;   ///< false->true alarm transitions
  std::uint64_t alarmed_hosts = 0;   ///< hosts whose alarm ever raised
  std::uint64_t malware_hosts = 0;   ///< ground truth from the fleet
  std::uint64_t campaign_hosts = 0;  ///< drift-wave recruits (ground truth)
  // Drift / refresh accounting. All deterministic: the trigger is a pure
  // function of the score stream, the swap tick a pure function of the
  // trigger, and the retrain row counts a pure function of the harvest.
  std::uint64_t drift_checks = 0;    ///< barrier evaluations performed
  std::uint64_t drift_triggers = 0;  ///< checks on which the trigger held
  std::uint64_t drift_trigger_tick = 0;   ///< first trigger (0 = none)
  std::uint64_t drift_tripped_shards = 0; ///< shards tripped at 1st trigger
  std::uint64_t model_swaps = 0;          ///< hot-swaps performed (0 or 1)
  std::uint64_t model_swap_tick = 0;      ///< tick of the swap (0 = none)
  std::uint64_t retrain_base_rows = 0;    ///< base split rows in the refit
  std::uint64_t retrain_window_rows = 0;  ///< harvested rows in the refit
  std::uint64_t final_model_epoch = 0;    ///< epoch serving the last tick
  std::uint64_t verdict_hash = 0;    ///< FNV-1a over the (tick, host) stream
};

/// Measured domain: wall-clock throughput and per-stage latency. Varies
/// run to run and across thread counts by nature; never part of the
/// determinism contract.
struct ServeTiming {
  double wall_ms = 0.0;
  double intervals_per_sec = 0.0;  ///< offered / wall seconds
  LatencyStats gen;    ///< controller: emit + admission + batch assembly
  LatencyStats queue;  ///< task wait in the worker queue (~0 inline)
  LatencyStats score;  ///< batch scoring
  LatencyStats step;   ///< per-host state stepping + verdict emit
  LatencyStats e2e;    ///< batch assembly start -> verdicts emitted
  std::uint64_t backpressure_stalls = 0;  ///< controller blocked on a queue
                                          ///< (always 0 with one worker)
  double retrain_ms = 0.0;    ///< background retrain wall time
  double swap_wait_ms = 0.0;  ///< controller blocked at the swap tick
  double barrier_ms = 0.0;    ///< total tick-completion wait at drift checks
};

struct ServeReport {
  ServeCounters counters;
  ServeTiming timing;
  /// In (tick, host) order; empty unless ServeConfig::record_verdicts.
  std::vector<ServeVerdict> verdicts;
};

/// Drive the fleet through the serving pipeline. The FleetSetup is shared
/// read-only across all workers; per-host detector state lives inside the
/// call. Deterministic per the contract above.
ServeReport run_fleet(const FleetSetup& fleet, const ServeConfig& cfg);

/// FNV-1a 64 over the canonical byte serialisation of a (tick, host)-sorted
/// verdict stream — the cross-thread-count identity witness. Fed in
/// consecutive chunks (run_fleet feeds one tick row at a time), it hashes
/// the same as the whole stream fed at once.
class VerdictHasher {
 public:
  void add(std::span<const ServeVerdict> verdicts);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
};

/// VerdictHasher over a whole stream.
std::uint64_t verdict_stream_hash(const std::vector<ServeVerdict>& verdicts);

/// Fleet accuracy over the tick window [begin_tick, end_tick): the
/// fraction of verdicts whose alarm state matches ground truth
/// (host_infected) at that tick. The drift bench's pre-onset /
/// post-onset / post-refresh phase metric. Returns 0 on an empty window.
double verdict_window_accuracy(const FleetSetup& fleet,
                               const std::vector<ServeVerdict>& verdicts,
                               std::uint32_t begin_tick,
                               std::uint32_t end_tick);

}  // namespace hmd::serve
