// Run-time detection: the deployment-side component the paper motivates.
//
// A trained detector (typically 2-4 HPC ensemble) watches an application
// while it executes: the PMU is programmed ONCE with the detector's events
// (they must fit the 4 counter registers — the whole point of the paper),
// every 10 ms sample is classified, and an exponentially-weighted moving
// average of the malware probability drives an alarm with hysteresis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hpc/capture.h"
#include "hpc/pmu.h"
#include "ml/classifier.h"
#include "ml/infer.h"
#include "sim/app_profile.h"
#include "sim/machine.h"

namespace hmd::core {

struct OnlineConfig {
  double ewma_alpha = 0.35;      ///< smoothing of the per-interval scores
  double alarm_on = 0.60;        ///< EWMA level that raises the alarm
  double alarm_off = 0.40;       ///< EWMA level that clears it (hysteresis)
  std::size_t warmup_intervals = 1;  ///< ignore cold-start intervals
  /// Staleness watchdog: after this many *consecutive* missing samples
  /// (observe_missing), verdicts are flagged stale — the held EWMA/alarm
  /// state can no longer be trusted, but the detector must not crash or
  /// silently clear an alarm just because the collector hiccuped.
  std::size_t max_stale_intervals = 8;
  /// Perturbation-aware vote gate: verdicts whose model margin (member
  /// agreement for ensembles — ml::Classifier::margin) falls below this
  /// are flagged `suspect`. An adversary must drag the score across the
  /// decision boundary, which leaves an ensemble's members split; clean
  /// traffic is normally decided near-unanimously. 0 disables the gate.
  double suspect_margin = 0.0;
};

/// Per-interval verdict from the online detector.
struct Verdict {
  std::size_t interval = 0;
  double score = 0.0;   ///< P(malware) for this sample
  double ewma = 0.0;    ///< smoothed score
  bool alarm = false;   ///< alarm state after this sample
  bool degraded = false;  ///< some model features fed held values
  bool stale = false;     ///< watchdog: EWMA older than max_stale_intervals
  /// Margin gate (OnlineConfig::suspect_margin): the model's confidence in
  /// this interval's score is low — treat the verdict as possibly shaped
  /// by an adversary. Always false while the gate is disabled.
  bool suspect = false;
};

/// The batch-steppable half of the online detector: the per-host
/// EWMA/alarm/staleness automaton, decoupled from sampling and scoring.
///
/// OnlineDetector scores one PMU stream and steps one of these per
/// interval; the fleet serving layer (src/serve) instead scores *many*
/// hosts' intervals in one predict_proba_batch call and then steps each
/// host's OnlineState with its score. Both paths run this exact code, so a
/// served host's verdict stream is bit-identical to a dedicated detector
/// fed the same samples. Plain value type: copyable, no allocation, no
/// locking — one per host, owned by whoever serializes that host's time.
class OnlineState {
 public:
  /// Advance one interval with a real sample's score. `degraded` annotates
  /// the verdict only; `suspect` is annotated AND held, so a later
  /// step_missing reports the last trustworthy suspicion level.
  Verdict step_score(const OnlineConfig& cfg, double score,
                     bool degraded = false, bool suspect = false);

  /// Advance one interval with no sample (dropped read, shed load): hold
  /// the EWMA, alarm, and suspect flag, advance the staleness watchdog.
  /// Holding `suspect` matters: a host flagged by the margin gate must not
  /// read as confidently clean just because one sample was dropped.
  Verdict step_missing(const OnlineConfig& cfg, bool degraded = false);

  void reset();

  bool alarmed() const { return alarm_; }
  std::size_t intervals() const { return interval_; }
  std::size_t missing_streak() const { return missing_streak_; }
  bool stale(const OnlineConfig& cfg) const {
    return missing_streak_ > cfg.max_stale_intervals;
  }

 private:
  std::size_t interval_ = 0;
  std::size_t missing_streak_ = 0;
  double ewma_ = 0.0;
  bool alarm_ = false;
  bool suspect_ = false;  ///< last real sample's margin-gate flag, held
  bool ewma_init_ = false;
};

/// Streams PMU samples into a trained classifier.
///
/// Graceful degradation: if some of the model's events are unavailable on
/// this PMU (PmuConfig::unavailable_events), the detector programs the
/// best available subset and feeds held values (0 until ever measured) for
/// the rest, flagging every verdict `degraded` — a weakened detector beats
/// a crashed one at run time. Missing samples (dropped perf reads) are
/// survived via observe_missing(): the EWMA and alarm hold, and a
/// staleness watchdog flags verdicts once the data is too old.
class OnlineDetector {
 public:
  /// `events` are the detector's input events, in the exact feature order
  /// the classifier was trained with; the available subset must fit the
  /// PMU width, and at least one event must be available.
  OnlineDetector(std::shared_ptr<const ml::Classifier> model,
                 std::vector<sim::Event> events, hpc::PmuConfig pmu = {},
                 OnlineConfig cfg = {});

  /// Feed one 10 ms interval of machine activity; returns the verdict.
  Verdict observe(const sim::EventCounts& counts);

  /// The collector lost this interval's sample entirely: hold the EWMA
  /// and alarm state instead of crashing or resetting, advance the
  /// staleness watchdog, and report the held state.
  Verdict observe_missing();

  /// Reset the EWMA/alarm/staleness state (e.g. a new application).
  void reset();

  /// Reprogram the PMU against a (possibly changed) availability mask —
  /// the recovery path out of degraded operation: when counters that were
  /// broken at construction come back (a collector restart, a microcode
  /// fix), the detector re-probes which of its events are countable and
  /// reprograms the registers, while the EWMA, alarm, staleness, and held
  /// feature values all carry across the transition — recovery must not
  /// silently clear an alarm or forget the last trusted state.
  void reprogram(hpc::PmuConfig pmu);

  const std::vector<sim::Event>& events() const { return events_; }
  /// The subset of events() actually programmed on this PMU.
  const std::vector<sim::Event>& active_events() const {
    return active_events_;
  }
  /// True when unavailable events forced a feature-subset fallback.
  bool degraded() const { return active_events_.size() != events_.size(); }
  bool alarmed() const { return state_.alarmed(); }
  std::size_t missing_streak() const { return state_.missing_streak(); }
  /// True once the watchdog considers the held state stale.
  bool stale() const { return state_.stale(cfg_); }

 private:
  std::shared_ptr<const ml::Classifier> model_;
  /// Inference engine for the per-interval score, built once at
  /// construction (the flat engine, bit-identical to calling
  /// model_->predict_proba directly; see ml/infer.h).
  std::unique_ptr<ml::InferenceBackend> backend_;
  std::vector<sim::Event> events_;
  hpc::Pmu pmu_;
  OnlineConfig cfg_;

  std::vector<sim::Event> active_events_;  ///< programmed subset of events_
  std::vector<std::size_t> active_pos_;    ///< feature index of each active
  std::vector<double> held_;  ///< last known value per model feature
  /// Counter readout buffer reused across intervals: the steady-state
  /// observe() path performs no heap allocation (asserted by test).
  std::vector<std::uint64_t> sample_scratch_;

  OnlineState state_;  ///< EWMA/alarm/staleness automaton
};

/// Execute `app` on a fresh machine under the online detector and return
/// the full verdict timeline (convenience driver for examples/tests).
std::vector<Verdict> monitor_application(const sim::AppProfile& app,
                                         OnlineDetector& detector,
                                         sim::MachineConfig machine_cfg = {},
                                         std::uint32_t run_index = 0);

/// Train a detector *for deployment*: re-captures `corpus` with exactly the
/// detector's `events` — which fit the PMU, so one run per application —
/// and fits the model on that data.
///
/// This step matters: the offline study merges feature columns from
/// different runs (the 11-batch protocol), but at run time all counters
/// are read from the SAME execution, so cross-feature noise is correlated
/// in a way the merged training data never shows. Training on
/// deployment-shaped data removes a systematic false-alarm source (see the
/// run-time section of EXPERIMENTS.md).
std::shared_ptr<ml::Classifier> train_deployment_model(
    const std::vector<sim::AppProfile>& corpus,
    const std::vector<sim::Event>& events, ml::ClassifierKind kind,
    ml::EnsembleKind ensemble, const hpc::CaptureConfig& capture_cfg = {},
    std::uint64_t seed = 7);

}  // namespace hmd::core
