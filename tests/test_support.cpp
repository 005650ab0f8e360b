// Unit tests for src/support: RNG determinism & distributions, statistics,
// ranking helpers, table rendering, and the check macros.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace hmd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  Rng child1 = parent.fork(3);
  (void)parent();  // consuming the parent must not change fork(3)
  Rng parent2(7);
  Rng child2 = parent2.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(10);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(12);
  std::array<int, 5> hits{};
  for (int i = 0; i < 5000; ++i) ++hits[rng.below(5)];
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, BelowMatchesReferenceRejection) {
  // below() skips computing the rejection threshold 2^64 mod n for draws
  // >= n; the stream must equal the textbook formula's draw for draw,
  // including the rejection-heavy n just above 2^63.
  const auto reference_below = [](Rng& raw, std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = raw();
      if (r >= threshold) return r % n;
    }
  };
  for (std::uint64_t n :
       {1ULL, 2ULL, 3ULL, 7ULL, 64ULL, (1ULL << 32) - 1, 1ULL << 32,
        (1ULL << 32) + 1, (1ULL << 63) + 1, ~0ULL}) {
    for (std::uint64_t seed : {1ULL, 42ULL, 2018ULL, 0xDEADBEEFULL}) {
      Rng fast(seed), raw(seed);
      for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(fast.below(n), reference_below(raw, n))
            << "n=" << n << " seed=" << seed << " draw " << i;
      EXPECT_EQ(fast(), raw()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), PreconditionError);
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(14);
  RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(15);
  for (double lambda : {0.5, 4.0, 100.0}) {
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
      acc += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(acc / n, lambda, lambda * 0.08 + 0.05) << lambda;
  }
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(16);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{7.0}), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs{1, 1, 1, 1};
  const std::vector<double> ys{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, WeightedPearsonMatchesUnweightedWithUnitWeights) {
  const std::vector<double> xs{1, 3, 2, 5, 4};
  const std::vector<double> ys{2, 1, 4, 3, 5};
  const std::vector<double> ws(5, 1.0);
  EXPECT_NEAR(weighted_pearson(xs, ys, ws), pearson(xs, ys), 1e-12);
}

TEST(Stats, WeightedPearsonZeroWeightIgnoresPoint) {
  // The outlier (100, -100) has zero weight; correlation stays ~1.
  const std::vector<double> xs{1, 2, 3, 100};
  const std::vector<double> ys{1, 2, 3, -100};
  const std::vector<double> ws{1, 1, 1, 0};
  EXPECT_NEAR(weighted_pearson(xs, ys, ws), 1.0, 1e-9);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(20);
  std::vector<double> xs;
  RunningStats st;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(rng.uniform(0.0, 10.0));
    st.add(xs.back());
  }
  EXPECT_NEAR(st.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(st.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(st.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(st.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Stats, RankDescending) {
  const std::vector<double> v{0.3, 0.9, 0.1, 0.9};
  const auto idx = rank_descending(v);
  EXPECT_EQ(idx[0], 1u);  // stable: first 0.9 wins the tie
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 0u);
  EXPECT_EQ(idx[3], 2u);
}

TEST(Stats, PercentileSorted) {
  const std::vector<double> v{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 25), 1.0);
}

TEST(Table, RendersHeaderAndRows) {
  TextTable t("Title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Table, CsvEscapesQuotesAndCommas) {
  std::ostringstream os;
  write_csv(os, {"x"}, {{R"(a,"b")"}});
  EXPECT_EQ(os.str(), "x\n\"a,\"\"b\"\"\"\n");
}

TEST(Check, RequireThrowsWithLocation) {
  try {
    HMD_REQUIRE_MSG(false, "context");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
  }
}

TEST(Check, InvariantThrowsLogicError) {
  EXPECT_THROW(HMD_INVARIANT(1 == 2), InvariantError);
}

}  // namespace
}  // namespace hmd
