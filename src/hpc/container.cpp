#include "hpc/container.h"

#include "hpc/faults.h"

namespace hmd::hpc {

RunTrace Container::run(const sim::AppProfile& app, std::uint32_t run_index,
                        const std::vector<sim::Event>& events) {
  ++runs_;  // every attempt counts, even one that crashes below
  FaultInjector::RunPlan plan;
  if (faults_ != nullptr)
    plan = faults_->plan_run(app.seed, run_index, app.intervals);
  if (plan.crash)
    throw RunCrashError("injected run crash: app=" + app.name +
                        " run_index=" + std::to_string(run_index));

  // Fresh container: start_run fully resets the machine, so no state of
  // the previous run survives into this one.
  machine_.start_run(app, run_index);
  pmu_.program(events);

  RunTrace trace;
  trace.events = pmu_.programmed();
  trace.samples.reserve(app.intervals);
  while (machine_.running() && trace.samples.size() < plan.keep_intervals) {
    const sim::EventCounts counts = machine_.next_interval();
    pmu_.observe(counts);
    trace.samples.push_back(pmu_.sample_and_clear());
  }
  trace.truncated = trace.samples.size() < app.intervals;
  if (faults_ != nullptr)
    faults_->perturb(trace, app.seed, run_index, pmu_.saturation_value());
  return trace;
}

}  // namespace hmd::hpc
