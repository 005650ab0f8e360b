// Unit tests for src/sim: event taxonomy, cache/TLB model, branch
// predictor, the Machine's event accounting invariants, and the workload
// catalog.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "hpc/capture.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/events.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "support/check.h"

namespace hmd::sim {
namespace {

// ---------------------------------------------------------------- events --

TEST(Events, ExactlyFortyFour) {
  EXPECT_EQ(kEventCount, 44u);
  EXPECT_EQ(all_events().size(), 44u);
}

TEST(Events, NamesAreUniqueAndRoundTrip) {
  std::set<std::string_view> names;
  for (Event e : all_events()) {
    const auto name = event_name(e);
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_EQ(event_from_name(name), e);
  }
}

TEST(Events, UnknownNameThrows) {
  EXPECT_THROW(event_from_name("not_an_event"), PreconditionError);
}

TEST(Events, SevenSoftwareEvents) {
  std::size_t software = 0;
  for (Event e : all_events())
    if (is_software_event(e)) ++software;
  EXPECT_EQ(software, 7u);
}

TEST(Events, PaperTable1EventsAllExist) {
  for (const char* name :
       {"branch_instructions", "branch_loads", "iTLB_load_misses",
        "dTLB_load_misses", "dTLB_store_misses", "L1_dcache_stores",
        "cache_misses", "node_loads", "dTLB_stores", "iTLB_loads",
        "L1_icache_load_misses", "branch_load_misses", "branch_misses",
        "LLC_store_misses", "node_stores", "L1_dcache_load_misses"}) {
    EXPECT_NO_THROW(event_from_name(name)) << name;
  }
}

// ----------------------------------------------------------------- cache --

TEST(Cache, CapacityFromGeometry) {
  Cache c({64, 8, 64});
  EXPECT_EQ(c.geometry().capacity_bytes(), 64u * 8u * 64u);
}

TEST(Cache, NonPow2SetsRejected) {
  EXPECT_THROW(Cache({3, 4, 64}), PreconditionError);
}

TEST(Cache, ColdMissThenHit) {
  Cache c({16, 2, 64});
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1001));  // same line
  EXPECT_EQ(c.accesses(), 3u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c({1, 2, 64});  // one set, two ways
  EXPECT_FALSE(c.access(0 * 64));
  EXPECT_FALSE(c.access(1 * 64));
  EXPECT_TRUE(c.access(0 * 64));   // 0 is now MRU; 1 is LRU
  EXPECT_FALSE(c.access(2 * 64));  // evicts 1
  EXPECT_TRUE(c.access(0 * 64));
  EXPECT_FALSE(c.access(1 * 64));  // 1 was evicted
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  Cache c({4, 2, 64});  // 8 lines
  // 16 distinct lines round-robin: every access must miss.
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t line = 0; line < 16; ++line)
      c.access(line * 64);
  EXPECT_EQ(c.misses(), c.accesses());
}

TEST(Cache, FlushKeepsStats) {
  Cache c({16, 2, 64});
  c.access(0x40);
  c.flush();
  EXPECT_EQ(c.accesses(), 1u);
  EXPECT_FALSE(c.access(0x40));  // flushed → miss again
}

TEST(Cache, ResetClearsStats) {
  Cache c({16, 2, 64});
  c.access(0x40);
  c.reset();
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, ProbeDoesNotAllocateOrCount) {
  Cache c({16, 2, 64});
  EXPECT_FALSE(c.probe(0x80));
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_FALSE(c.access(0x80));  // probe did not allocate
}

TEST(Cache, FillAllocatesWithoutCounting) {
  Cache c({16, 2, 64});
  c.fill(0xC0);
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_TRUE(c.access(0xC0));
}

TEST(Cache, PolluteInvalidatesRoughFraction) {
  Cache c({64, 8, 64});
  for (std::uint64_t line = 0; line < 512; ++line) c.access(line * 64);
  c.pollute(0.5, 0x1234);
  std::size_t survivors = 0;
  for (std::uint64_t line = 0; line < 512; ++line)
    if (c.probe(line * 64)) ++survivors;
  EXPECT_GT(survivors, 150u);
  EXPECT_LT(survivors, 360u);
}

/// Which lines the reference pollution walk drops, in storage order: one
/// serial LCG chain seeded with mix | 1, one step per line.
std::vector<bool> serial_pollution(std::size_t lines, double fraction,
                                   std::uint64_t mix) {
  std::vector<bool> dropped(lines, false);
  if (fraction <= 0.0) return dropped;
  const auto threshold = static_cast<std::uint64_t>(fraction * 1024.0);
  std::uint64_t h = mix | 1;
  for (std::size_t i = 0; i < lines; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    dropped[i] = (h >> 33) % 1024 < threshold;
  }
  return dropped;
}

TEST(Cache, PolluteMatchesSerialLcg) {
  // One set, so line i of storage is way i, which a cold fill of
  // addresses 0, 64, 128, ... populates in order. The line counts straddle
  // the pollution lane width.
  for (std::uint32_t ways : {1u, 7u, 9u, 8193u}) {
    Cache warm({1, ways, 64});
    for (std::uint64_t line = 0; line < ways; ++line) warm.access(line * 64);
    for (double fraction : {0.0, 0.12, 0.5, 1.0}) {
      for (std::uint64_t mix : {0x1234ULL, ~0ULL}) {
        Cache c = warm;
        c.pollute(fraction, mix);
        const auto dropped = serial_pollution(ways, fraction, mix);
        std::size_t mismatches = 0;
        for (std::uint64_t line = 0; line < ways; ++line)
          mismatches += c.probe(line * 64) == dropped[line];
        EXPECT_EQ(mismatches, 0u)
            << ways << " lines, fraction " << fraction << ", mix " << mix;
      }
    }
  }
}

TEST(Cache, PolluteRequiresFractionInUnitInterval) {
  Cache c({64, 8, 64});
  for (double bad : {std::nan(""), -0.1, 1.5,
                     std::numeric_limits<double>::infinity()})
    EXPECT_THROW(c.pollute(bad, 1), PreconditionError) << bad;
  EXPECT_NO_THROW(c.pollute(0.0, 1));
  EXPECT_NO_THROW(c.pollute(1.0, 1));
}

TEST(Cache, TreePlruRejectsMoreThan32Ways) {
  // The tree bits live in 32 bits: 64 ways would shift past them.
  CacheGeometry geo{1, 64, 64, ReplacementPolicy::kTreePlru};
  EXPECT_THROW(Cache{geo}, PreconditionError);
  geo.ways = 33;
  EXPECT_THROW(Cache{geo}, PreconditionError);
  geo.ways = 32;  // the largest tree: evicting walks 31 node bits
  Cache c(geo);
  for (std::uint64_t line = 0; line < 40; ++line) c.access(line * 64);
  EXPECT_EQ(c.misses(), 40u);
  geo.ways = 64;
  geo.policy = ReplacementPolicy::kLru;
  EXPECT_NO_THROW(Cache{geo});
}

TEST(Cache, SentinelTagIsUnreachable) {
  // With one set and one-byte lines every 64-bit address would be a tag,
  // including the all-ones invalid-way sentinel.
  EXPECT_THROW(Cache({1, 4, 1}), PreconditionError);
  EXPECT_NO_THROW(Cache({1, 4, 2}));
  EXPECT_NO_THROW(Cache({2, 4, 1}));
}

// ------------------------------------------------------- branch predictor --

TEST(BranchPredictor, LearnsStronglyBiasedBranch) {
  BranchPredictor bp;
  for (int i = 0; i < 1000; ++i) bp.execute(0x400000, true);
  // After warm-up (one 2-bit counter per reached history pattern) the
  // always-taken branch should essentially never miss.
  EXPECT_LT(bp.direction_misses(), 20u);
}

TEST(BranchPredictor, AlternatingPatternIsLearnedByHistory) {
  BranchPredictor bp;
  for (int i = 0; i < 4000; ++i) bp.execute(0x400100, i % 2 == 0);
  // gshare keys on global history: the strict alternation becomes
  // predictable once the counter tables warm up.
  EXPECT_LT(static_cast<double>(bp.direction_misses()) /
                static_cast<double>(bp.branches()),
            0.2);
}

TEST(BranchPredictor, RandomBranchMissesNearHalf) {
  BranchPredictor bp;
  Rng rng(3);
  for (int i = 0; i < 8000; ++i) bp.execute(0x400200, rng.chance(0.5));
  const double rate = static_cast<double>(bp.direction_misses()) /
                      static_cast<double>(bp.branches());
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

TEST(BranchPredictor, BtbCountsLookupsAndMisses) {
  BranchPredictor bp;
  bp.execute(0x1000, true);
  EXPECT_EQ(bp.btb_lookups(), 1u);
  EXPECT_EQ(bp.btb_misses(), 1u);
  bp.execute(0x1000, true);
  EXPECT_EQ(bp.btb_lookups(), 2u);
  EXPECT_EQ(bp.btb_misses(), 1u);
  EXPECT_TRUE(bp.last_btb_hit());
}

TEST(BranchPredictor, ResetClearsEverything) {
  BranchPredictor bp;
  bp.execute(0x1000, true);
  bp.reset();
  EXPECT_EQ(bp.branches(), 0u);
  EXPECT_EQ(bp.btb_lookups(), 0u);
}

// --------------------------------------------------------------- machine --

AppProfile tiny_app(std::uint64_t seed = 5, std::uint32_t intervals = 4) {
  AppProfile app = make_benign(0, 0, seed, intervals);
  return app;
}

TEST(Machine, RequiresStartRun) {
  Machine m;
  EXPECT_THROW(m.next_interval(), PreconditionError);
}

TEST(Machine, RunsExactlyTheConfiguredIntervals) {
  Machine m;
  const auto app = tiny_app(5, 6);
  m.start_run(app, 0);
  int n = 0;
  while (m.running()) {
    m.next_interval();
    ++n;
  }
  EXPECT_EQ(n, 6);
}

TEST(Machine, DeterministicForSameRunIndex) {
  const auto app = tiny_app();
  Machine m1, m2;
  m1.start_run(app, 3);
  m2.start_run(app, 3);
  while (m1.running()) {
    const auto a = m1.next_interval();
    const auto b = m2.next_interval();
    for (Event e : all_events()) EXPECT_EQ(a[e], b[e]);
  }
}

TEST(Machine, DifferentRunIndexGivesDifferentCounts) {
  const auto app = tiny_app();
  Machine m1, m2;
  m1.start_run(app, 0);
  m2.start_run(app, 1);
  const auto a = m1.next_interval();
  const auto b = m2.next_interval();
  EXPECT_NE(a[Event::kInstructions], b[Event::kInstructions]);
}

TEST(Machine, EventAccountingInvariants) {
  Machine m;
  const auto app = make_malware(0, 0, 77, 6);
  m.start_run(app, 0);
  while (m.running()) {
    const auto c = m.next_interval();
    EXPECT_GT(c[Event::kInstructions], 0u);
    EXPECT_GT(c[Event::kCpuCycles], 0u);
    // Misses never exceed accesses, per structure.
    EXPECT_LE(c[Event::kBranchMisses], c[Event::kBranchInstructions]);
    EXPECT_LE(c[Event::kBranchLoadMisses], c[Event::kBranchLoads]);
    EXPECT_LE(c[Event::kL1DcacheLoadMisses], c[Event::kL1DcacheLoads]);
    EXPECT_LE(c[Event::kL1DcacheStoreMisses], c[Event::kL1DcacheStores]);
    EXPECT_LE(c[Event::kL1IcacheLoadMisses], c[Event::kL1IcacheLoads]);
    EXPECT_LE(c[Event::kItlbLoadMisses], c[Event::kItlbLoads]);
    EXPECT_LE(c[Event::kDtlbLoadMisses], c[Event::kDtlbLoads]);
    EXPECT_LE(c[Event::kDtlbStoreMisses], c[Event::kDtlbStores]);
    EXPECT_LE(c[Event::kLlcLoadMisses], c[Event::kLlcLoads]);
    EXPECT_LE(c[Event::kLlcStoreMisses], c[Event::kLlcStores]);
    // dTLB sees exactly the L1D traffic.
    EXPECT_EQ(c[Event::kDtlbLoads], c[Event::kL1DcacheLoads]);
    EXPECT_EQ(c[Event::kDtlbStores], c[Event::kL1DcacheStores]);
    // Demand LLC traffic comes from L1 misses.
    EXPECT_LE(c[Event::kLlcLoads], c[Event::kL1DcacheLoadMisses]);
    // BTB is looked up once per branch.
    EXPECT_EQ(c[Event::kBranchLoads], c[Event::kBranchInstructions]);
    // NUMA traffic comes from LLC demand misses.
    EXPECT_LE(c[Event::kNodeLoads], c[Event::kLlcLoadMisses]);
    EXPECT_LE(c[Event::kNodeLoadMisses], c[Event::kNodeLoads]);
    // Software composition.
    EXPECT_EQ(c[Event::kPageFaults],
              c[Event::kMinorFaults] + c[Event::kMajorFaults]);
    // Cycle accounting.
    EXPECT_GE(c[Event::kCpuCycles], c[Event::kStalledCyclesFrontend]);
    EXPECT_EQ(c[Event::kRefCycles], c[Event::kCpuCycles]);
    EXPECT_EQ(c[Event::kBusCycles], c[Event::kCpuCycles] / 4);
  }
}

TEST(Machine, ContextSwitchesIncreaseTlbMisses) {
  // Same template, one variant with a huge context-switch rate.
  AppProfile calm = tiny_app(5, 8);
  AppProfile noisy = calm;
  for (auto& ph : calm.phases) ph.context_switch_rate = 0.0;
  for (auto& ph : noisy.phases) ph.context_switch_rate = 30.0;

  auto total = [](Machine& m, const AppProfile& app, Event e) {
    m.start_run(app, 0);
    std::uint64_t acc = 0;
    while (m.running()) acc += m.next_interval()[e];
    return acc;
  };
  Machine m;
  const auto calm_misses = total(m, calm, Event::kDtlbLoadMisses);
  const auto noisy_misses = total(m, noisy, Event::kDtlbLoadMisses);
  EXPECT_GT(noisy_misses, calm_misses * 2);
}

TEST(Machine, SyscallRateDrivesKernelInstructionVolume) {
  AppProfile quiet = tiny_app(5, 4);
  AppProfile chatty = quiet;
  for (auto& ph : quiet.phases) ph.syscalls_per_kilo_instr = 0.0;
  for (auto& ph : chatty.phases) ph.syscalls_per_kilo_instr = 10.0;
  Machine m;
  m.start_run(quiet, 0);
  std::uint64_t quiet_instr = 0;
  while (m.running()) quiet_instr += m.next_interval()[Event::kInstructions];
  m.start_run(chatty, 0);
  std::uint64_t chatty_instr = 0;
  while (m.running())
    chatty_instr += m.next_interval()[Event::kInstructions];
  EXPECT_GT(chatty_instr, quiet_instr * 3 / 2);
}

TEST(Machine, MultiPhaseAppsChangeBehaviourOverTime) {
  // The ransomware template has a scan phase then an encrypt phase with
  // far more stores; the store rate must rise across the run.
  AppProfile app = make_malware(4, 0, 123, 16);
  ASSERT_GE(app.phases.size(), 2u);
  Machine m;
  m.start_run(app, 0);
  std::vector<double> store_rate;
  while (m.running()) {
    const auto c = m.next_interval();
    store_rate.push_back(static_cast<double>(c[Event::kL1DcacheStores]) /
                         static_cast<double>(c[Event::kInstructions]));
  }
  const double early = (store_rate[0] + store_rate[1] + store_rate[2]) / 3;
  const auto n = store_rate.size();
  const double late =
      (store_rate[n - 1] + store_rate[n - 2] + store_rate[n - 3]) / 3;
  EXPECT_GT(late, early * 1.5);
}

// ------------------------------------------------------- bit identity --

/// FNV-1a 64 over the little-endian bytes of each word.
void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

/// Digest of all 44 counts of every interval of a small fixed corpus: a
/// mix of calm and syscall/context-switch-heavy templates, so kernel
/// bursts, TLB flushes and cache pollution all contribute.
std::uint64_t event_count_digest(const MachineConfig& cfg) {
  const std::vector<AppProfile> apps = {
      make_benign(0, 0, 2018, 4), make_benign(9, 1, 2018, 4),
      make_malware(2, 0, 2018, 4), make_malware(7, 1, 2018, 4),
      make_malware(11, 0, 2018, 4)};
  Machine m(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint32_t a = 0; a < apps.size(); ++a) {
    m.start_run(apps[a], /*run_index=*/a);
    while (m.running()) {
      const EventCounts c = m.next_interval();
      for (Event e : all_events()) fnv_mix(h, c[e]);
    }
  }
  return h;
}

MachineConfig with_variant(ReplacementPolicy policy, BranchPredictorKind kind) {
  MachineConfig cfg;
  for (CacheGeometry* g : {&cfg.l1i, &cfg.l1d, &cfg.llc, &cfg.dtlb, &cfg.itlb,
                           &cfg.branch.btb})
    g->policy = policy;
  cfg.branch.kind = kind;
  return cfg;
}

// The simulator's output is a contract: every captured row downstream
// (fig3 tables, checkpoints, verdict hashes) is a function of these
// counts. A change here must be deliberate and re-baselined on purpose.
TEST(Sim, EventCountDigestsArePinned) {
  EXPECT_EQ(event_count_digest(MachineConfig{}), 0x15fac2b7b22c8198ULL);

  constexpr std::uint64_t kPinned[4][4] = {
      // gshare, bimodal, local, tournament
      {0x15fac2b7b22c8198ULL, 0x39a1203834338caaULL, 0xa49540529b488284ULL,
       0x656b1cdd1513939eULL},  // LRU
      {0xaa1d0511ae24d139ULL, 0xf8f9714f502c86a9ULL, 0xdcdc837cc2952186ULL,
       0x4ca27137f45c8dc5ULL},  // FIFO
      {0x57c89ff034376ef7ULL, 0x3881d939702723a0ULL, 0x55f3400bb521ab46ULL,
       0xf8d325c6121ab063ULL},  // random
      {0xb8c781ccaaedf6c9ULL, 0x3c8471fbd51b7252ULL, 0xa66c4bac9b63386aULL,
       0x503d7f1a6c375495ULL},  // tree-PLRU
  };
  for (int p = 0; p < 4; ++p)
    for (int k = 0; k < 4; ++k) {
      const auto policy = static_cast<ReplacementPolicy>(p);
      const auto kind = static_cast<BranchPredictorKind>(k);
      EXPECT_EQ(event_count_digest(with_variant(policy, kind)), kPinned[p][k])
          << replacement_policy_name(policy) << " x "
          << branch_predictor_kind_name(kind);
    }

  // Tree-PLRU over non-power-of-two associativity runs as true LRU.
  MachineConfig odd = with_variant(ReplacementPolicy::kTreePlru,
                                   BranchPredictorKind::kGshare);
  odd.l1d.ways = 6;
  odd.llc.ways = 12;
  odd.dtlb.ways = 3;
  EXPECT_EQ(event_count_digest(odd), 0x9ee5b123c7506cafULL);

  // The multi-run capture protocol end to end: 10 PMU batches per app,
  // each a fresh container run, assembled into labelled rows.
  const auto cap = hpc::capture_all_events(
      {make_benign(3, 0, 7, 5), make_malware(5, 0, 7, 5)},
      hpc::CaptureConfig{.threads = 2});
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < cap.num_rows(); ++i) {
    fnv_mix(h, static_cast<std::uint64_t>(cap.labels[i]));
    for (double v : cap.rows[i]) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      fnv_mix(h, bits);
    }
  }
  fnv_mix(h, cap.total_runs);
  EXPECT_EQ(h, 0xce571c50215b5ba9ULL);
}

// -------------------------------------------------------------- workloads --

TEST(Workloads, CorpusSizeMatchesConfig) {
  CorpusConfig cfg;
  cfg.benign_per_template = 2;
  cfg.malware_per_template = 3;
  const auto corpus = build_corpus(cfg);
  EXPECT_EQ(corpus.size(), benign_template_count() * 2 +
                               malware_template_count() * 3);
}

TEST(Workloads, PaperScaleCorpusExceeds100Applications) {
  const auto corpus = build_corpus(CorpusConfig{});
  EXPECT_GE(corpus.size(), 100u);
}

TEST(Workloads, LabelsAndNamesAreConsistent) {
  const auto corpus = build_corpus(
      CorpusConfig{.benign_per_template = 1, .malware_per_template = 1});
  std::set<std::string> names;
  for (const auto& app : corpus) {
    EXPECT_TRUE(names.insert(app.name).second) << app.name;
    if (app.is_malware) {
      EXPECT_EQ(app.name.rfind("mal.", 0), 0u) << app.name;
    }
    EXPECT_FALSE(app.phases.empty());
  }
}

TEST(Workloads, VariantsOfSameTemplateDiffer) {
  const auto a = make_benign(0, 0, 2018, 20);
  const auto b = make_benign(0, 1, 2018, 20);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.phases[0].instructions_mean, b.phases[0].instructions_mean);
}

TEST(Workloads, DeterministicForSameSeed) {
  const auto a = make_malware(2, 1, 99, 20);
  const auto b = make_malware(2, 1, 99, 20);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_DOUBLE_EQ(a.phases[0].frac_branch, b.phases[0].frac_branch);
}

TEST(Workloads, InstructionScaleApplies) {
  CorpusConfig small{.benign_per_template = 1, .malware_per_template = 1};
  small.instruction_scale = 0.5;
  CorpusConfig big = small;
  big.instruction_scale = 1.0;
  const auto s = build_corpus(small);
  const auto b = build_corpus(big);
  EXPECT_NEAR(b[0].phases[0].instructions_mean,
              2.0 * s[0].phases[0].instructions_mean, 1e-9);
}

TEST(Workloads, OutOfRangeTemplateThrows) {
  EXPECT_THROW(make_benign(benign_template_count(), 0, 1, 4),
               PreconditionError);
  EXPECT_THROW(make_malware(malware_template_count(), 0, 1, 4),
               PreconditionError);
}

}  // namespace
}  // namespace hmd::sim
