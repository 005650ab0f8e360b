// Reproduces paper Table 1: "Hardware performance counters in order of
// importance" — the 16 most important of the 44 captured events, ranked by
// Correlation Attribute Evaluation on the training applications.
//
// The paper's published order is printed next to our measured order so the
// overlap is auditable. Absolute order depends on the (simulated) workload
// population; what must hold is the *composition*: branch, TLB, and cache
// events dominating, and the one counter OneR picks being at/near the top.
#include <array>
#include <iostream>

#include "bench_util.h"
#include "ml/oner.h"
#include "support/table.h"

namespace {

constexpr std::array<const char*, 16> kPaperTable1 = {
    "branch_instructions", "branch_loads",          "iTLB_load_misses",
    "dTLB_load_misses",    "dTLB_store_misses",     "L1_dcache_stores",
    "cache_misses",        "node_loads",            "dTLB_stores",
    "iTLB_loads",          "L1_icache_load_misses", "branch_load_misses",
    "branch_misses",       "LLC_store_misses",      "node_stores",
    "L1_dcache_load_misses",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hmd;
  benchutil::check_args(argc, argv);
  const auto cfg = benchutil::config_from_args(argc, argv);
  const auto ctx = benchutil::prepare(cfg, "table1");

  TextTable table(
      "Table 1 — HPCs in order of importance (CorrelationAttributeEval)");
  table.set_header({"Rank", "Measured event", "|r|", "Paper Table 1 event",
                    "In paper's 16?"});

  auto in_paper16 = [&](const std::string& name) {
    for (const char* p : kPaperTable1)
      if (name == p) return true;
    return false;
  };

  std::size_t overlap = 0;
  for (std::size_t i = 0; i < 16 && i < ctx.ranking.size(); ++i) {
    const auto& fs = ctx.ranking[i];
    const std::string name = ctx.full.feature_name(fs.feature);
    const bool hit = in_paper16(name);
    overlap += hit ? 1 : 0;
    table.add_row({std::to_string(i + 1), name, TextTable::num(fs.score, 3),
                   kPaperTable1[i], hit ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nOverlap with the paper's 16: " << overlap
            << "/16 events.\n";

  // The paper notes OneR always selects branch_instructions; report which
  // counter our OneR selects from the full 44-event training set.
  ml::OneR oner;
  oner.train(ctx.split.train);
  std::cout << "OneR's single chosen counter: "
            << ctx.full.feature_name(oner.chosen_feature()) << "\n";
  return 0;
}
