#include "core/online.h"

#include <algorithm>
#include <utility>

#include "core/experiment.h"
#include "hpc/capture.h"
#include "support/check.h"

namespace hmd::core {

Verdict OnlineState::step_score(const OnlineConfig& cfg, double score,
                                bool degraded, bool suspect) {
  missing_streak_ = 0;  // a real sample refreshes the held state
  suspect_ = suspect;
  Verdict v;
  v.interval = interval_++;
  v.degraded = degraded;
  v.score = score;
  v.suspect = suspect;
  if (v.interval < cfg.warmup_intervals) {
    // Cold caches make the first interval(s) unrepresentative.
    v.ewma = ewma_init_ ? ewma_ : 0.0;
    v.alarm = alarm_;
    return v;
  }
  if (!ewma_init_) {
    ewma_ = score;
    ewma_init_ = true;
  } else {
    ewma_ = cfg.ewma_alpha * score + (1.0 - cfg.ewma_alpha) * ewma_;
  }
  if (!alarm_ && ewma_ >= cfg.alarm_on) alarm_ = true;
  if (alarm_ && ewma_ <= cfg.alarm_off) alarm_ = false;

  v.ewma = ewma_;
  v.alarm = alarm_;
  return v;
}

Verdict OnlineState::step_missing(const OnlineConfig& cfg, bool degraded) {
  ++missing_streak_;
  Verdict v;
  v.interval = interval_++;
  v.degraded = degraded;
  // Hold, don't reset: a dropped sample is not evidence of anything, so
  // the smoothed score, the alarm, and the margin-gate suspicion keep
  // their last trustworthy values. Dropping `suspect` here would let a
  // flagged host read as confidently clean after one lost sample.
  v.score = ewma_init_ ? ewma_ : 0.0;
  v.ewma = ewma_init_ ? ewma_ : 0.0;
  v.alarm = alarm_;
  v.suspect = suspect_;
  v.stale = stale(cfg);
  return v;
}

void OnlineState::reset() {
  interval_ = 0;
  missing_streak_ = 0;
  ewma_ = 0.0;
  alarm_ = false;
  suspect_ = false;
  ewma_init_ = false;
}

OnlineDetector::OnlineDetector(std::shared_ptr<const ml::Classifier> model,
                               std::vector<sim::Event> events,
                               hpc::PmuConfig pmu, OnlineConfig cfg)
    : model_(std::move(model)), events_(std::move(events)), cfg_(cfg) {
  HMD_REQUIRE(model_ != nullptr);
  HMD_REQUIRE(!events_.empty());
  backend_ = ml::make_backend(*model_);
  HMD_REQUIRE(cfg_.alarm_off <= cfg_.alarm_on);
  HMD_REQUIRE(cfg_.suspect_margin >= 0.0);
  held_.assign(events_.size(), 0.0);
  reprogram(std::move(pmu));
}

void OnlineDetector::reprogram(hpc::PmuConfig pmu) {
  pmu_ = hpc::Pmu(std::move(pmu));
  active_events_.clear();
  active_pos_.clear();
  // Graceful degradation: events this PMU cannot count are excluded from
  // programming and fed held values instead of failing deployment. On a
  // re-probe after recovery, events that came back rejoin the programmed
  // set; their held_ slots refresh on the next real sample. Everything
  // else — EWMA, alarm, staleness, held values — carries across.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (!pmu_.event_available(events_[i])) continue;
    active_events_.push_back(events_[i]);
    active_pos_.push_back(i);
  }
  HMD_REQUIRE_MSG(!active_events_.empty(),
                  "no detector event is available on this PMU");
  // The run-time constraint: the detector's (available) events must be
  // concurrently countable — this throws if they exceed the PMU width.
  pmu_.program(active_events_);
  // One allocation here instead of one per interval: observe() samples
  // into this buffer for the lifetime of the programming.
  sample_scratch_.reserve(pmu_.programmed().size());
}

Verdict OnlineDetector::observe(const sim::EventCounts& counts) {
  pmu_.observe(counts);
  // Reused readout buffer: the steady-state path constructs no fresh batch
  // and performs no heap allocation (the flat backend's scratch is
  // stack-local, and sample_scratch_ keeps its capacity across intervals).
  pmu_.sample_and_clear(sample_scratch_);
  for (std::size_t k = 0; k < sample_scratch_.size(); ++k)
    held_[active_pos_[k]] = static_cast<double>(sample_scratch_[k]);

  const double score = backend_->predict_proba(held_);
  // Perturbation-aware vote: a low-margin (low member-agreement) score is
  // exactly what a budget-bounded evasion leaves behind — flag it rather
  // than trusting the raw probability.
  const bool suspect = cfg_.suspect_margin > 0.0 &&
                       model_->margin(held_) < cfg_.suspect_margin;
  return state_.step_score(cfg_, score, degraded(), suspect);
}

Verdict OnlineDetector::observe_missing() {
  return state_.step_missing(cfg_, degraded());
}

void OnlineDetector::reset() {
  state_.reset();
  std::fill(held_.begin(), held_.end(), 0.0);
  pmu_.clear();
}

std::shared_ptr<ml::Classifier> train_deployment_model(
    const std::vector<sim::AppProfile>& corpus,
    const std::vector<sim::Event>& events, ml::ClassifierKind kind,
    ml::EnsembleKind ensemble, const hpc::CaptureConfig& capture_cfg,
    std::uint64_t seed) {
  HMD_REQUIRE(!events.empty());
  const hpc::Capture capture =
      hpc::capture_corpus(corpus, events, capture_cfg);
  const ml::Dataset data = to_dataset(capture);
  std::shared_ptr<ml::Classifier> model =
      ml::make_detector(kind, ensemble, seed);
  model->train(data);
  return model;
}

std::vector<Verdict> monitor_application(const sim::AppProfile& app,
                                         OnlineDetector& detector,
                                         sim::MachineConfig machine_cfg,
                                         std::uint32_t run_index) {
  sim::Machine machine(machine_cfg);
  machine.start_run(app, run_index);
  std::vector<Verdict> timeline;
  timeline.reserve(app.intervals);
  while (machine.running())
    timeline.push_back(detector.observe(machine.next_interval()));
  return timeline;
}

}  // namespace hmd::core
