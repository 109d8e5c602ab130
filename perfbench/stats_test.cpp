// Tests for the benchmark's own arithmetic (stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace {

using perfbench::kNoParent;
using perfbench::Span;

std::vector<int> one_to(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Percentile, NearestRankPicksTheCeilingRank) {
  const std::vector<int> v = one_to(1000);
  EXPECT_EQ(perfbench::percentile_sorted<int>(v, 0.5), 500);
  EXPECT_EQ(perfbench::percentile_sorted<int>(v, 0.99), 990);
  EXPECT_EQ(perfbench::percentile_sorted<int>(v, 0.999), 999);
  EXPECT_EQ(perfbench::percentile_sorted<int>(v, 1.0), 1000);
  const std::vector<int> odd = one_to(7);
  EXPECT_EQ(perfbench::percentile_sorted<int>(odd, 0.5), 4);
  EXPECT_EQ(perfbench::percentile_sorted<int>(std::vector<int>{}, 0.5), 0.0);
}

TEST(Percentile, ExactProductsDoNotRoundUpARank) {
  // 0.999 * 10000 is 9990 in exact arithmetic but 9990.000000000002 in
  // doubles; the rank must stay 9990.
  EXPECT_EQ(perfbench::nearest_rank(10000, 0.999), 9990u);
  EXPECT_EQ(perfbench::nearest_rank(100, 0.99), 99u);
  EXPECT_EQ(perfbench::nearest_rank(1, 0.001), 1u);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 over 1000 samples leaves exactly 10 beyond it: reportable.
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(perfbench::percentile_supported(1000, 0.99));
  // p99 over 999 samples leaves 9: not reportable.
  EXPECT_FALSE(perfbench::percentile_supported(999, 0.99));
  // p99.9 needs 10000 samples; p50 over 20 queries leaves 10.
  EXPECT_TRUE(perfbench::percentile_supported(10000, 0.999));
  EXPECT_FALSE(perfbench::percentile_supported(9999, 0.999));
  EXPECT_TRUE(perfbench::percentile_supported(20, 0.5));
  EXPECT_FALSE(perfbench::percentile_supported(19, 0.5));
  EXPECT_FALSE(perfbench::percentile_supported(0, 0.5));
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(Ledger, CountsEveryFailureKindAgainstAttempts) {
  perfbench::Ledger ledger;
  ledger.samples_offered = 1000;
  ledger.queries = 20;
  EXPECT_EQ(ledger.attempted(), 1020u);
  EXPECT_EQ(ledger.failed(), 0u);
  EXPECT_EQ(ledger.failed_fraction(), 0.0);

  ledger.samples_dropped_late = 3;
  ledger.units_dropped = 2;
  ledger.rows_per_unit = 96;  // each dropped unit counts as a full chunk
  ledger.store_samples_lost = 100;
  ledger.queries_failed = 5;
  ledger.queries_lost_to_store = 4;
  EXPECT_EQ(ledger.failed(), 3u + 192u + 100u + 5u + 4u);
  EXPECT_DOUBLE_EQ(ledger.failed_fraction(), 304.0 / 1020.0);
  // The store writer's drop is kept out of what the program failed.
  EXPECT_EQ(ledger.program_failed(), 3u + 192u + 5u);
}

TEST(Ledger, SampleFailuresNeverExceedSamplesOffered) {
  perfbench::Ledger ledger;
  ledger.samples_offered = 50;
  ledger.units_dropped = 1;
  ledger.rows_per_unit = 96;
  ledger.queries = 10;
  ledger.queries_failed = 10;
  EXPECT_EQ(ledger.failed(), 60u);
  EXPECT_EQ(ledger.program_failed(), 60u);
  EXPECT_DOUBLE_EQ(ledger.failed_fraction(), 1.0);
  EXPECT_EQ(perfbench::Ledger{}.failed_fraction(), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // pass [0, 100) holds ingest [10, 30) and ingest [40, 45) and a finalize
  // [60, 100); the pass itself did 35 ns of its own work.
  const std::vector<Span> spans = {
      {0, kNoParent, 0, 100},
      {1, 0, 10, 30},
      {1, 0, 40, 45},
      {2, 0, 60, 100},
  };
  const std::vector<double> self = perfbench::self_seconds(spans, 3);
  EXPECT_NEAR(self[0], 35e-9, 1e-15);
  EXPECT_NEAR(self[1], 25e-9, 1e-15);
  EXPECT_NEAR(self[2], 40e-9, 1e-15);
  EXPECT_NEAR(perfbench::coverage_fraction(spans, 0), 0.65, 1e-12);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      {0, kNoParent, 100, 200},
      {1, 0, 90, 130},   // starts before the parent: clipped to [100, 130)
      {1, 0, 120, 150},  // overlaps the first child
      {1, 0, 190, 260},  // runs past the parent: clipped to [190, 200)
  };
  const std::vector<std::int64_t> covered =
      perfbench::covered_by_children(spans);
  EXPECT_EQ(covered[0], 60);
  EXPECT_NEAR(perfbench::self_seconds(spans, 2)[0], 40e-9, 1e-15);
}

TEST(Spans, NestedSelfTimeAndMultipleRoots) {
  // setup [0, 50) > fit [5, 45) > stage [10, 20); two pass roots.
  const std::vector<Span> spans = {
      {0, kNoParent, 0, 50},  {1, 0, 5, 45},  {2, 1, 10, 20},
      {3, kNoParent, 100, 200}, {4, 3, 100, 150},
      {3, kNoParent, 300, 400}, {4, 5, 300, 400},
  };
  const std::vector<double> self = perfbench::self_seconds(spans, 5);
  EXPECT_NEAR(self[0], 10e-9, 1e-15);
  EXPECT_NEAR(self[1], 30e-9, 1e-15);
  EXPECT_NEAR(self[2], 10e-9, 1e-15);
  EXPECT_NEAR(self[3], 50e-9, 1e-15);
  EXPECT_NEAR(perfbench::coverage_fraction(spans, 3), 0.75, 1e-12);
  EXPECT_EQ(perfbench::coverage_fraction(spans, 7), 0.0);
}

}  // namespace
