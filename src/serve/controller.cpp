#include "serve/controller.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "serve/token_bucket.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace hmd::serve {

namespace {

constexpr std::uint64_t kHarvestSalt = 0xB3A9D17E4C08F562ULL;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic per-(host, tick) harvest-sampling decision: whether an
/// admitted window row is kept as retrain input. A pure hash, independent
/// of the drop/scale streams, so harvesting perturbs nothing.
bool harvest_keep(std::uint64_t seed, std::uint32_t host, std::uint32_t tick,
                  double keep_prob) {
  if (keep_prob >= 1.0) return true;
  const std::uint64_t v =
      mix64(mix64(seed ^ kHarvestSalt) ^
            ((static_cast<std::uint64_t>(host) << 32) | tick));
  return static_cast<double>(v >> 11) * 0x1.0p-53 < keep_prob;
}

/// One unit of work: a (tick, shard) batch.
struct Task {
  std::uint32_t tick = 0;
  std::uint32_t shard = 0;
  /// Inference engine of the model epoch current at DISPATCH time. Bound
  /// by the controller, on the virtual tick clock — a late-executing task
  /// still scores with the epoch its tick belongs to, which is what keeps
  /// verdict streams bit-identical across worker counts through a
  /// hot-swap. Points into run_fleet-owned storage that outlives workers.
  const ml::InferenceBackend* backend = nullptr;
  /// Row-major features of the *scored* hosts of the shard, in shard host
  /// order.
  std::vector<double> rows;
  /// Outcome per shard host (parallel to the shard's host list).
  std::vector<SampleOutcome> outcomes;
  double created_us = 0.0;  ///< batch assembly start (e2e anchor)
  double enqueue_us = 0.0;  ///< queue-wait anchor
};

/// A worker's tallies over the batches it completed, summed after the join.
struct WorkerSums {
  std::uint64_t batches = 0;
  std::uint64_t scored_rows = 0;
  std::uint64_t alarms = 0;  ///< false->true alarm transitions
};

}  // namespace

void VerdictHasher::add(std::span<const ServeVerdict> verdicts) {
  std::uint64_t h = h_;
  const auto mix = [&h](std::uint64_t v, unsigned bytes) {
    for (unsigned b = 0; b < bytes; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  for (const ServeVerdict& v : verdicts) {
    mix(v.tick, 4);
    mix(v.host, 4);
    mix(static_cast<std::uint64_t>(v.outcome), 1);
    mix(static_cast<std::uint64_t>(v.alarm) |
            (static_cast<std::uint64_t>(v.stale) << 1),
        1);
    mix(std::bit_cast<std::uint64_t>(v.score), 8);
    mix(std::bit_cast<std::uint64_t>(v.ewma), 8);
  }
  h_ = h;
}

std::uint64_t verdict_stream_hash(const std::vector<ServeVerdict>& verdicts) {
  VerdictHasher hasher;
  hasher.add(verdicts);
  return hasher.value();
}

ServeReport run_fleet(const FleetSetup& fleet, const ServeConfig& cfg) {
  const std::size_t hosts = fleet.hosts.size();
  const std::uint32_t ticks = fleet.cfg.ticks;
  const std::size_t nf = fleet.num_features;
  HMD_REQUIRE(hosts >= 1 && ticks >= 1 && nf >= 1);
  HMD_REQUIRE(cfg.queue_capacity >= 1);

  // Shard count is deterministic-domain: auto depends on the fleet only,
  // never on the worker count.
  std::size_t num_shards =
      cfg.shards > 0 ? cfg.shards : std::max<std::size_t>(1, hosts / 32);
  num_shards = std::min(num_shards, hosts);
  const std::size_t workers =
      std::max<std::size_t>(1,
                            std::min(support::resolve_threads(cfg.threads),
                                     num_shards));

  // Shard s owns hosts h with h mod S == s, ascending; worker w owns
  // shards s with s mod W == w. Per-shard state, the shard's verdict slots
  // and its stage-time slots are touched only by the owning worker, and
  // tasks reach it tick-ordered (inline, or through a FIFO queue) — that
  // exclusivity plus ordering is the whole thread-safety story. A tick
  // row's completed-shard counter (release by the worker, acquire by the
  // controller) publishes the row back to this thread.
  std::vector<std::vector<std::uint32_t>> shard_hosts(num_shards);
  for (std::uint32_t h = 0; h < hosts; ++h)
    shard_hosts[h % num_shards].push_back(h);
  std::vector<std::vector<core::OnlineState>> state(num_shards);
  std::vector<std::vector<std::uint8_t>> ever_alarmed(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    state[s].resize(shard_hosts[s].size());
    ever_alarmed[s].assign(shard_hosts[s].size(), 0);
  }

  // One worker runs inline on the controller thread; only two or more get
  // threads and queues.
  const bool inline_worker = workers == 1;
  std::vector<std::unique_ptr<support::BoundedQueue<Task>>> task_q;
  if (!inline_worker)
    for (std::size_t w = 0; w < workers; ++w)
      task_q.push_back(
          std::make_unique<support::BoundedQueue<Task>>(cfg.queue_capacity));

  ServeReport report;
  ServeCounters& counters = report.counters;
  ServeTiming& timing = report.timing;
  // The tick ring: tick t owns row t mod R — `hosts` verdict slots
  // (host-indexed, so a finished row is already in canonical order) and
  // `num_shards` stage-time slots (µs: queue, score, step, e2e) — plus a
  // counter of its completed shard batches. The inline worker finishes a
  // tick before the next is assembled, so one row serves. Queued workers
  // trail the controller by at most a full queue plus the batch in hand,
  // so queue_capacity + 2 rows never make it wait longer than
  // backpressure already does.
  const std::size_t ring = std::min<std::size_t>(
      inline_worker ? 1 : cfg.queue_capacity + 2, ticks);
  std::vector<ServeVerdict> tick_rows(ring * hosts);
  std::vector<std::array<float, 4>> stage_us(ring * num_shards);
  std::vector<std::atomic<std::uint32_t>> shards_done(ring);
  const auto shards_per_tick = static_cast<std::uint32_t>(num_shards);
  std::vector<WorkerSums> sums(workers);

  const double t_start = now_us();

  // Drift machinery (serve/drift.h). Windows are written by each shard's
  // owning worker and read by the controller only at drift checks, once
  // every tick up to the check is complete; the tick rows' counters are
  // the happens-before edge for those reads.
  const bool drift_on = cfg.drift.enabled;
  std::vector<ShardScoreWindow> windows;
  std::optional<DriftDetector> detector;
  if (drift_on) {
    HMD_REQUIRE(!cfg.refresh.enabled ||
                cfg.refresh.refresh_lag_ticks > cfg.refresh.harvest_ticks);
    windows.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s)
      windows.emplace_back(cfg.drift.tail_q);
    detector.emplace(cfg.drift, num_shards);
  }

  // Workers: score whole batches, step the owned shards' automata. The
  // engine comes from the task (the model epoch bound at dispatch), never
  // from shared mutable state.
  const auto score_batch = [&](const ml::InferenceBackend& backend,
                               const std::vector<double>& rows,
                               std::vector<double>& out) {
    const std::size_t n = rows.size() / nf;
    out.assign(n, 0.0);
    if (n == 0) return;
    if (cfg.batched) {
      backend.predict_proba_batch(rows, nf, out);
    } else {
      // A/B baseline: the identical engine, one batch-of-one call per row
      // — the per-interval scalar path every OnlineDetector runs today.
      const std::span<const double> x(rows);
      for (std::size_t i = 0; i < n; ++i)
        out[i] = backend.predict_proba(x.subspan(i * nf, nf));
    }
  };

  // One batch's worker-side work: score it, step the shard's automata,
  // write the verdict and stage-time slots of its tick row, tally, and
  // count the batch done on that row. `pop_us` is when the worker took the
  // batch (for the inline worker, when the controller finished assembling
  // it).
  const auto run_batch = [&](const Task& task, double pop_us,
                             std::vector<double>& scores,
                             WorkerSums& local) {
    score_batch(*task.backend, task.rows, scores);
    const double scored_us = now_us();

    std::vector<core::OnlineState>& st = state[task.shard];
    std::vector<std::uint8_t>& ever = ever_alarmed[task.shard];
    const std::size_t slot = task.tick % ring;
    ServeVerdict* const tick_verdicts = tick_rows.data() + slot * hosts;
    std::size_t k = 0;  // cursor into the batch's scored rows
    for (std::size_t i = 0; i < task.outcomes.size(); ++i) {
      const bool was = st[i].alarmed();
      core::Verdict v;
      if (task.outcomes[i] == SampleOutcome::kScored) {
        const double sc = scores[k++];
        // Shard windows fill in FIFO tick order by the single owning
        // worker — the deterministic observation sequence the drift
        // detector's purity contract rests on.
        if (drift_on) windows[task.shard].observe(sc);
        v = st[i].step_score(cfg.online, sc);
      } else {
        v = st[i].step_missing(cfg.online);
      }
      if (!was && st[i].alarmed()) {
        ++local.alarms;
        ever[i] = 1;
      }
      const std::uint32_t host = shard_hosts[task.shard][i];
      tick_verdicts[host] = {task.tick, host, v.score, v.ewma,
                             task.outcomes[i], v.alarm, v.stale};
    }
    ++local.batches;
    local.scored_rows += k;
    const double done_us = now_us();
    stage_us[slot * num_shards + task.shard] = {
        static_cast<float>(pop_us - task.enqueue_us),
        static_cast<float>(scored_us - pop_us),
        static_cast<float>(done_us - scored_us),
        static_cast<float>(done_us - task.created_us)};
    // Release: publishes this batch's verdicts, stage times and window
    // writes to the controller's acquire in await_tick.
    if (shards_done[slot].fetch_add(1, std::memory_order_release) + 1 ==
        shards_per_tick)
      shards_done[slot].notify_one();
  };

  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < task_q.size(); ++w) {
    pool.emplace_back([&, w] {
      std::vector<double> scores;
      WorkerSums local;
      while (std::optional<Task> t = task_q[w]->pop())
        run_batch(*t, now_us(), scores, local);
      sums[w] = local;
    });
  }

  // Controller (this thread): the single producer. Admission, drops and
  // batch assembly all happen here, on the virtual tick clock, in
  // (tick, shard, host) order — the deterministic domain.
  const std::uint64_t admit_cap =
      cfg.admit_burst > 0 ? cfg.admit_burst : cfg.admit_per_tick;
  std::optional<TokenBucket> bucket;
  if (cfg.admit_per_tick > 0) bucket.emplace(admit_cap, cfg.admit_per_tick);

  std::uint64_t missing = 0;
  std::uint64_t shed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t stalls = 0;
  LatencyStats gen_stats;

  // Model-epoch state. Epoch 0 serves with the fleet's backend; a single
  // drift-triggered refresh installs epoch 1 at a fixed virtual tick. The
  // current pointer is bound into every Task at dispatch, so the swap
  // needs no barrier: in-flight epoch-0 tasks keep their epoch-0 engine.
  const ml::InferenceBackend* current_backend = fleet.backend.get();
  std::shared_ptr<const ml::Classifier> swapped_model;
  std::unique_ptr<ml::InferenceBackend> swapped_backend;
  std::uint64_t current_epoch = 0;
  std::uint64_t model_swaps = 0;
  std::uint64_t model_swap_tick = 0;

  // Tick completion, the pipeline's one synchronisation point: block until
  // every shard batch of tick t is stepped. Every worker owns a batch of
  // every tick and runs its batches in tick order, so "t complete" also
  // means every earlier tick is.
  const auto await_tick = [&](std::uint32_t t) {
    std::atomic<std::uint32_t>& done = shards_done[t % ring];
    std::uint32_t d = done.load(std::memory_order_acquire);
    while (d != shards_per_tick) {
      done.wait(d, std::memory_order_acquire);
      d = done.load(std::memory_order_acquire);
    }
  };
  // Finish ticks [finished, end) in order: await each, hash its row into
  // the stream hash, record it if asked, fold its stage times into the P²
  // estimators in shard order, and free its slot for tick + R.
  VerdictHasher hasher;
  std::uint32_t finished = 0;
  if (cfg.record_verdicts)
    report.verdicts.reserve(static_cast<std::size_t>(hosts) * ticks);
  const auto finish_ticks = [&](std::uint32_t end) {
    for (; finished < end; ++finished) {
      await_tick(finished);
      const std::size_t slot = finished % ring;
      const std::span<const ServeVerdict> row(tick_rows.data() + slot * hosts,
                                              hosts);
      hasher.add(row);
      if (cfg.record_verdicts)
        report.verdicts.insert(report.verdicts.end(), row.begin(), row.end());
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::array<float, 4>& us = stage_us[slot * num_shards + s];
        timing.queue.add(us[0]);
        timing.score.add(us[1]);
        timing.step.add(us[2]);
        timing.e2e.add(us[3]);
      }
      // The next writer of this slot gets its task through a queue (or
      // inline), which orders this reset before its increments.
      shards_done[slot].store(0, std::memory_order_relaxed);
    }
  };

  // Refresh state machine: trigger -> harvest window rows (controller
  // side, at assembly) -> background retrain -> hot-swap at swap_tick.
  bool trigger_seen = false;
  bool harvesting = false;
  std::uint32_t harvest_from = 0, harvest_until = 0;
  double harvest_keep_prob = 1.0;
  std::vector<double> harvest_rows;
  std::vector<int> harvest_labels;
  bool swap_scheduled = false;
  std::uint32_t swap_tick = 0;
  struct RetrainShared {
    RetrainOutcome out;
    double ms = 0.0;
  };
  std::unique_ptr<RetrainShared> retrain_shared;
  std::thread retrain_thread;
  double barrier_us = 0.0;

  // The batch under assembly. The inline worker leaves its buffers in
  // place, so steady-state assembly reuses their capacity; a queued task
  // takes them along.
  Task task;
  std::vector<double> inline_scores;
  for (std::uint32_t tick = 0; tick < ticks; ++tick) {
    // Hot-swap at the scheduled virtual tick: every batch from this tick
    // on scores with the refreshed model. The join is the only place the
    // controller can block on the retrain — measured domain only (the
    // swap tick itself was fixed at trigger time).
    if (swap_scheduled && tick == swap_tick) {
      swap_scheduled = false;
      const double w0 = now_us();
      retrain_thread.join();
      timing.swap_wait_ms = (now_us() - w0) / 1000.0;
      swapped_model = retrain_shared->out.model;
      swapped_backend = ml::make_active_backend(*swapped_model);
      current_backend = swapped_backend.get();
      current_epoch = 1;
      model_swaps = 1;
      model_swap_tick = tick;
    }
    if (bucket && tick > 0) bucket->refill();  // the bucket starts full
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const double t0 = now_us();
      const std::vector<std::uint32_t>& members = shard_hosts[s];
      std::vector<double>& rows = task.rows;
      rows.clear();
      rows.reserve(members.size() * nf);
      std::vector<SampleOutcome>& outcomes = task.outcomes;
      outcomes.assign(members.size(), SampleOutcome::kScored);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::uint32_t h = members[i];
        if (sample_dropped(fleet, h, tick)) {
          outcomes[i] = SampleOutcome::kMissing;
          ++missing;
          continue;
        }
        if (bucket && bucket->take(1) == 0) {
          outcomes[i] = SampleOutcome::kShed;
          ++shed;
          continue;
        }
        ++admitted;
        const std::size_t at = rows.size();
        rows.resize(at + nf);
        gen_features(fleet, h, tick, std::span<double>(rows).subspan(at, nf));
        // Harvest (post-trigger): a deterministic hash-sample of admitted
        // windows becomes retrain input, labelled by ground truth — the
        // analyst-triage model (drift.h). Rows are copied here, at
        // assembly, so the harvest never touches worker-owned data.
        if (harvesting && tick >= harvest_from && tick < harvest_until &&
            harvest_labels.size() < cfg.refresh.max_window_rows &&
            harvest_keep(fleet.cfg.seed, h, tick, harvest_keep_prob)) {
          const std::span<const double> row(rows);
          harvest_rows.insert(harvest_rows.end(), row.begin() + at,
                              row.begin() + at + nf);
          harvest_labels.push_back(host_infected(fleet, h, tick) ? 1 : 0);
        }
      }

      task.tick = tick;
      task.shard = s;
      task.backend = current_backend;
      task.created_us = t0;
      gen_stats.add(now_us() - t0);
      task.enqueue_us = now_us();
      if (inline_worker) {
        run_batch(task, task.enqueue_us, inline_scores, sums[0]);
        continue;
      }
      const std::size_t w = s % workers;
      if (!task_q[w]->try_push(task)) {
        ++stalls;  // backpressure: a full queue stalls the controller
        task_q[w]->push(std::move(task));
      }
    }

    if (drift_on && (tick + 1) % cfg.drift.check_interval == 0) {
      // Drift check: wait for this tick to complete (its acquire makes
      // every worker's window writes visible), evaluate, reset windows for
      // the next interval. The barrier cost is measured-domain; the check
      // verdict is a pure function of the score stream.
      const double b0 = now_us();
      await_tick(tick);
      barrier_us += now_us() - b0;
      const bool fired =
          detector->check(std::span<const ShardScoreWindow>(windows), tick);
      for (ShardScoreWindow& w : windows) w.reset();
      if (fired && !trigger_seen) {
        trigger_seen = true;
        if (cfg.refresh.enabled) {
          // Fix the whole refresh timeline now, on the tick clock: harvest
          // the next harvest_ticks ticks, swap at trigger + lag. The keep
          // probability targets max_window_rows with 25% headroom (the
          // row-count cap above is the hard stop); it depends only on
          // fleet geometry, so it is deterministic too.
          harvesting = true;
          harvest_from = tick + 1;
          harvest_until = tick + 1 + cfg.refresh.harvest_ticks;
          const double expected =
              static_cast<double>(hosts) *
              static_cast<double>(cfg.refresh.harvest_ticks);
          harvest_keep_prob = std::min(
              1.0,
              expected > 0.0
                  ? static_cast<double>(cfg.refresh.max_window_rows) * 1.25 /
                        expected
                  : 1.0);
          swap_scheduled = true;
          swap_tick = tick + cfg.refresh.refresh_lag_ticks;
        }
      }
    }

    if (harvesting && tick + 1 == harvest_until) {
      // Harvest complete: kick the retrain off on a background worker. It
      // owns moved copies of the harvest; the controller only rejoins it
      // at the swap tick (or at end of run if the swap lands past it).
      harvesting = false;
      retrain_shared = std::make_unique<RetrainShared>();
      retrain_thread = std::thread(
          [&fleet, &refresh = cfg.refresh, shared = retrain_shared.get(),
           rows = std::move(harvest_rows),
           labels = std::move(harvest_labels)] {
            const double r0 = now_us();
            shared->out = retrain_model(fleet, rows, labels, refresh);
            shared->ms = (now_us() - r0) / 1000.0;
          });
    }

    // Free the row tick + 1 is about to take (inline: finish this tick).
    if (tick + 2 > ring)
      finish_ticks(static_cast<std::uint32_t>(tick + 2 - ring));
  }

  finish_ticks(ticks);
  for (auto& q : task_q) q->close();
  for (std::thread& t : pool) t.join();
  // A retrain whose swap tick landed past the end of the run (or was
  // launched on the final ticks) still has to be joined; its model is
  // simply never installed.
  if (retrain_thread.joinable()) retrain_thread.join();
  const double t_end = now_us();

  for (const WorkerSums& w : sums) {
    counters.batches += w.batches;
    counters.scored_rows += w.scored_rows;
    counters.alarms_raised += w.alarms;
  }
  counters.hosts = hosts;
  counters.ticks = ticks;
  counters.shards = num_shards;
  counters.offered = static_cast<std::uint64_t>(hosts) * ticks;
  counters.missing = missing;
  counters.emitted = counters.offered - missing;
  counters.admitted = admitted;
  counters.shed = shed;
  counters.malware_hosts = fleet.malware_hosts;
  counters.campaign_hosts = fleet.campaign_hosts;
  for (const auto& flags : ever_alarmed)
    for (std::uint8_t f : flags) counters.alarmed_hosts += f;
  if (drift_on) {
    counters.drift_checks = detector->checks();
    counters.drift_triggers = detector->triggers();
    counters.drift_trigger_tick = detector->trigger_tick();
    counters.drift_tripped_shards = detector->tripped_shards();
  }
  counters.model_swaps = model_swaps;
  counters.model_swap_tick = model_swap_tick;
  if (retrain_shared) {
    counters.retrain_base_rows = retrain_shared->out.base_rows;
    counters.retrain_window_rows = retrain_shared->out.window_rows;
    timing.retrain_ms = retrain_shared->ms;
  }
  counters.final_model_epoch = current_epoch;
  counters.verdict_hash = hasher.value();

  timing.gen = gen_stats;
  timing.wall_ms = (t_end - t_start) / 1000.0;
  timing.intervals_per_sec =
      timing.wall_ms > 0.0
          ? static_cast<double>(counters.offered) * 1000.0 / timing.wall_ms
          : 0.0;
  timing.backpressure_stalls = stalls;
  timing.barrier_ms = barrier_us / 1000.0;

  return report;
}

double verdict_window_accuracy(const FleetSetup& fleet,
                               const std::vector<ServeVerdict>& verdicts,
                               std::uint32_t begin_tick,
                               std::uint32_t end_tick) {
  std::uint64_t n = 0;
  std::uint64_t correct = 0;
  for (const ServeVerdict& v : verdicts) {
    if (v.tick < begin_tick || v.tick >= end_tick) continue;
    ++n;
    if (v.alarm == host_infected(fleet, v.host, v.tick)) ++correct;
  }
  return n > 0 ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

}  // namespace hmd::serve
