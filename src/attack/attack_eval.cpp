#include "attack/attack_eval.h"

#include <algorithm>
#include <cmath>

#include "sim/machine.h"
#include "support/check.h"
#include "support/parallel.h"

namespace hmd::attack {

DatasetAttackResult attack_dataset(const ml::Classifier& model,
                                   const ml::Dataset& data,
                                   const PerturbationBudget& budget,
                                   const EvasionSearchConfig& search,
                                   std::uint64_t seed, std::size_t threads) {
  const std::size_t nf = data.num_features();
  DatasetAttackResult out;
  out.num_features = nf;

  const auto backend = ml::make_backend(model);
  out.clean_scores = backend->predict_proba_batch(data);
  out.attacked_scores = out.clean_scores;

  for (std::size_t i = 0; i < data.num_rows(); ++i)
    if (data.label(i) == 1) out.attacked_rows.push_back(i);
  out.malware_rows = out.attacked_rows.size();
  if (out.attacked_rows.empty()) return out;

  const Adversary adversary(model, budget, search, seed);
  // One independent search per malware row, streamed by row index: the
  // parallel map's output order is the input order, so the result is
  // bit-identical at any worker count.
  support::ThreadPool pool(threads);
  std::vector<EvasionResult> evasions =
      pool.parallel_map(out.attacked_rows.size(), [&](std::size_t k) {
        const std::size_t row = out.attacked_rows[k];
        return adversary.evade(data.row(row), row);
      });

  out.perturbed.resize(out.attacked_rows.size() * nf);
  for (std::size_t k = 0; k < out.attacked_rows.size(); ++k) {
    const EvasionResult& ev = evasions[k];
    std::copy(ev.x.begin(), ev.x.end(),
              out.perturbed.begin() + static_cast<std::ptrdiff_t>(k * nf));
    out.attacked_scores[out.attacked_rows[k]] = ev.score;
    if (ev.clean_score >= ml::kDecisionThreshold) {
      ++out.detected_clean;
      if (ev.evaded) ++out.evaded;
    }
  }
  return out;
}

std::vector<double> transfer_scores(const ml::Classifier& model,
                                    const ml::Dataset& data,
                                    const DatasetAttackResult& attack) {
  HMD_REQUIRE(attack.num_features == data.num_features());
  const auto backend = ml::make_backend(model);
  std::vector<double> scores = backend->predict_proba_batch(data);
  if (!attack.attacked_rows.empty()) {
    std::vector<double> perturbed_scores(attack.attacked_rows.size(), 0.0);
    backend->predict_proba_batch(attack.perturbed, attack.num_features,
                                 perturbed_scores);
    for (std::size_t k = 0; k < attack.attacked_rows.size(); ++k)
      scores[attack.attacked_rows[k]] = perturbed_scores[k];
  }
  return scores;
}

ml::DetectorMetrics metrics_of(const ml::Dataset& data,
                               std::span<const double> scores) {
  HMD_REQUIRE(scores.size() == data.num_rows());
  std::vector<int> labels;
  std::vector<double> weights;
  labels.reserve(data.num_rows());
  weights.reserve(data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    labels.push_back(data.label(i));
    weights.push_back(data.weight(i));
  }
  return ml::detector_metrics(scores, labels, weights);
}

std::vector<core::Verdict> monitor_application_under_attack(
    const sim::AppProfile& app, core::OnlineDetector& detector,
    const Adversary& adversary, sim::MachineConfig machine_cfg,
    std::uint32_t run_index) {
  const std::vector<sim::Event>& events = detector.events();
  sim::Machine machine(machine_cfg);
  machine.start_run(app, run_index);
  std::vector<core::Verdict> timeline;
  timeline.reserve(app.intervals);
  std::vector<double> x(events.size(), 0.0);
  std::uint64_t interval = 0;
  while (machine.running()) {
    sim::EventCounts counts = machine.next_interval();
    for (std::size_t k = 0; k < events.size(); ++k)
      x[k] = static_cast<double>(counts[events[k]]);
    const EvasionResult ev = adversary.evade(
        x, (static_cast<std::uint64_t>(run_index) << 32) ^ interval);
    for (std::size_t k = 0; k < events.size(); ++k) {
      HMD_INVARIANT(ev.x[k] >= 0.0);
      counts[events[k]] = static_cast<std::uint64_t>(std::llround(ev.x[k]));
    }
    timeline.push_back(detector.observe(counts));
    ++interval;
  }
  return timeline;
}

}  // namespace hmd::attack
