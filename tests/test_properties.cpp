// Property-style parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P)
// over structural invariants of the simulator and the ML layer.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>

#include "hpc/pmu.h"
#include "ml/metrics.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "support/rng.h"

namespace hmd {
namespace {

// ---------------------------------------------------- cache geometry sweep --

struct CacheGeomCase {
  std::uint32_t sets;
  std::uint32_t ways;
  std::uint32_t line;
};

class CacheProperties : public testing::TestWithParam<CacheGeomCase> {};

TEST_P(CacheProperties, MissesNeverExceedAccesses) {
  const auto p = GetParam();
  sim::Cache cache({p.sets, p.ways, p.line});
  Rng rng(p.sets * 131 + p.ways);
  for (int i = 0; i < 20000; ++i)
    cache.access(rng.below(1 << 22));
  EXPECT_LE(cache.misses(), cache.accesses());
  EXPECT_EQ(cache.accesses(), 20000u);
}

TEST_P(CacheProperties, ResidentWorkingSetStopsMissing) {
  const auto p = GetParam();
  sim::Cache cache({p.sets, p.ways, p.line});
  // Touch exactly capacity/2 distinct lines repeatedly: after the cold
  // pass, everything fits and no further misses may occur (true LRU).
  const std::uint64_t lines = std::uint64_t{p.sets} * p.ways / 2;
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t l = 0; l < lines; ++l) cache.access(l * p.line);
  EXPECT_EQ(cache.misses(), lines);
}

TEST_P(CacheProperties, FullAssociativeSweepEvictsInOrder) {
  const auto p = GetParam();
  sim::Cache cache({p.sets, p.ways, p.line});
  // Fill every way of set 0, then one more line in set 0: the first line
  // inserted must be the victim.
  const std::uint64_t stride = std::uint64_t{p.sets} * p.line;
  for (std::uint32_t w = 0; w < p.ways; ++w) cache.access(w * stride);
  cache.access(p.ways * stride);
  EXPECT_FALSE(cache.probe(0));                 // LRU victim gone
  EXPECT_TRUE(cache.probe(stride * (p.ways)));  // newcomer resident
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperties,
    testing::Values(CacheGeomCase{16, 1, 64}, CacheGeomCase{16, 4, 64},
                    CacheGeomCase{64, 8, 64}, CacheGeomCase{512, 16, 64},
                    CacheGeomCase{16, 4, 4096}, CacheGeomCase{1, 8, 64}),
    [](const testing::TestParamInfo<CacheGeomCase>& tpi) {
      return std::to_string(tpi.param.sets) + "s" +
             std::to_string(tpi.param.ways) + "w" +
             std::to_string(tpi.param.line) + "b";
    });

// -------------------------------------------------- machine template sweep --

class MachineTemplateProperties : public testing::TestWithParam<int> {};

TEST_P(MachineTemplateProperties, EveryTemplateSatisfiesCountInvariants) {
  const int index = GetParam();
  const bool malware = index >= static_cast<int>(sim::benign_template_count());
  const std::size_t t =
      malware ? index - sim::benign_template_count() : index;
  const sim::AppProfile app = malware ? sim::make_malware(t, 0, 77, 4)
                                      : sim::make_benign(t, 0, 77, 4);
  sim::Machine m;
  m.start_run(app, 0);
  while (m.running()) {
    const auto c = m.next_interval();
    ASSERT_GT(c[sim::Event::kInstructions], 0u) << app.name;
    ASSERT_LE(c[sim::Event::kBranchMisses],
              c[sim::Event::kBranchInstructions])
        << app.name;
    ASSERT_EQ(c[sim::Event::kDtlbLoads], c[sim::Event::kL1DcacheLoads])
        << app.name;
    ASSERT_LE(c[sim::Event::kLlcLoadMisses], c[sim::Event::kLlcLoads])
        << app.name;
    ASSERT_LE(c[sim::Event::kNodeLoads], c[sim::Event::kLlcLoadMisses])
        << app.name;
    ASSERT_EQ(c[sim::Event::kPageFaults],
              c[sim::Event::kMinorFaults] + c[sim::Event::kMajorFaults])
        << app.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, MachineTemplateProperties,
    testing::Range(0, static_cast<int>(sim::benign_template_count() +
                                       sim::malware_template_count())));

// ----------------------------------------------------- AUC property sweep --

// AUC must be invariant under any strictly monotone transform of scores.
// The parameter carries a name so test ids do not depend on where the
// transform function happens to be loaded.
struct Transform {
  const char* name;
  double (*fn)(double);
};

void PrintTo(const Transform& t, std::ostream* os) { *os << t.name; }

class AucInvariance : public testing::TestWithParam<Transform> {};

TEST_P(AucInvariance, MonotoneTransformPreservesAuc) {
  Rng rng(99);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 400; ++i) {
    labels.push_back(rng.chance(0.5) ? 1 : 0);
    scores.push_back(0.3 * labels.back() + rng.uniform());
  }
  const double base = ml::auc(scores, labels);
  std::vector<double> transformed;
  for (double s : scores) transformed.push_back(GetParam().fn(s));
  EXPECT_NEAR(ml::auc(transformed, labels), base, 1e-12);
}

double t_affine(double s) { return 3.0 * s + 11.0; }
double t_cube(double s) { return s * s * s; }
double t_exp(double s) { return std::exp(s); }
double t_atan(double s) { return std::atan(s); }

INSTANTIATE_TEST_SUITE_P(Transforms, AucInvariance,
                         testing::Values(Transform{"affine", &t_affine},
                                         Transform{"cube", &t_cube},
                                         Transform{"exp", &t_exp},
                                         Transform{"atan", &t_atan}));

// --------------------------------------------- PMU width scheduling sweep --

class SchedulingWidth : public testing::TestWithParam<std::uint32_t> {};

TEST_P(SchedulingWidth, EveryEventScheduledExactlyOnce) {
  const std::uint32_t width = GetParam();
  std::vector<sim::Event> all(sim::all_events().begin(),
                              sim::all_events().end());
  const auto batches = hpc::schedule_batches(all, width);
  std::set<sim::Event> seen;
  for (const auto& batch : batches) {
    EXPECT_LE(hpc::Pmu::hardware_event_count(batch), width);
    for (sim::Event e : batch) EXPECT_TRUE(seen.insert(e).second);
  }
  EXPECT_EQ(seen.size(), sim::kEventCount);
  // Hardware events need ceil(37/width) batches.
  const std::size_t expected = (37 + width - 1) / width;
  EXPECT_EQ(batches.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Widths, SchedulingWidth,
                         testing::Values(1u, 2u, 3u, 4u, 6u, 8u, 16u, 37u,
                                         64u));

}  // namespace
}  // namespace hmd
