// Unit tests for src/common: ids, time comparison, units, RNG, statistics,
// table rendering, and the shared ThreadPool behind run_sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace echelon {
namespace {

TEST(Ids, DefaultIsInvalid) {
  FlowId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, FlowId::invalid());
}

TEST(Ids, AllocatorIsMonotonic) {
  IdAllocator<NodeId> alloc;
  const NodeId a = alloc.next();
  const NodeId b = alloc.next();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<FlowId, NodeId>);
  static_assert(!std::is_same_v<JobId, EchelonFlowId>);
}

TEST(Ids, Hashable) {
  std::unordered_set<FlowId> set;
  set.insert(FlowId{1});
  set.insert(FlowId{1});
  set.insert(FlowId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Time, EqualityTolerance) {
  EXPECT_TRUE(time_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(time_eq(1.0, 1.0 + 1e-6));
  EXPECT_TRUE(time_eq(kTimeInfinity, kTimeInfinity));
  EXPECT_FALSE(time_eq(1.0, kTimeInfinity));
}

TEST(Time, Ordering) {
  EXPECT_TRUE(time_lt(1.0, 2.0));
  EXPECT_FALSE(time_lt(1.0, 1.0 + 1e-12));  // within tolerance
  EXPECT_TRUE(time_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_le(1.0, 2.0));
  EXPECT_FALSE(time_le(2.0, 1.0));
}

TEST(Units, BandwidthConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(gbps(100), 100e9 / 8.0);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(100)), 100.0);
  EXPECT_DOUBLE_EQ(mbps(8), 1e6);
}

TEST(Units, SizeHelpers) {
  EXPECT_DOUBLE_EQ(kib(1), 1024.0);
  EXPECT_DOUBLE_EQ(mib(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(to_mib(mib(3)), 3.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatesInverseRate) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, BoundedParetoStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.bounded_pareto(1.0, 100.0, 1.2);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
  RunningStats s;
  const double xs[] = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  // Sample variance: ((9+4+1+0+36)*... ) mean=4: (9+4+1+0+36)/4 = 12.5
  EXPECT_DOUBLE_EQ(s.variance(), 12.5);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 1)});
  t.add_row({"b", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(out.find("|-------|"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(ThreadPoolTest, SharedPoolHasAtLeastEightParticipants) {
  // Sized max(8, hardware_concurrency): width-8 dispatches in these tests
  // reach distinct workers even on small hosts.
  EXPECT_GE(ThreadPool::shared().concurrency(), 8u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnceAtAnyWidth) {
  ThreadPool& pool = ThreadPool::shared();
  for (const unsigned width : {1u, 2u, 3u, 8u, 0u}) {
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, width, [&](unsigned, std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "width " << width << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsSerialAndParallel) {
  ThreadPool& pool = ThreadPool::shared();
  for (const unsigned width : {1u, 8u}) {
    std::atomic<std::size_t> attempted{0};
    bool caught = false;
    try {
      pool.run(64, width, [&](unsigned, std::size_t i) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (i == 7 || i == 3 || i == 40) {
          throw std::runtime_error("fail@" + std::to_string(i));
        }
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "fail@3") << "width " << width;
    }
    EXPECT_TRUE(caught);
    // Exceptions do not abort the dispatch: every index is still attempted
    // (matching the sweep runner's historical contract).
    EXPECT_EQ(attempted.load(), 64u) << "width " << width;
  }
}

TEST(ThreadPoolTest, NestedDispatchRunsInlineSerially) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  std::atomic<std::size_t> inner_total{0};
  std::atomic<bool> saw_region_flag{true};
  pool.run(8, 8, [&](unsigned, std::size_t) {
    if (!ThreadPool::in_parallel_region()) saw_region_flag = false;
    // A nested run must not wait on pool workers (they are busy running
    // *this* lambda) -- it degrades to an inline serial loop on the
    // calling worker. Deadlock here would hang the test.
    std::atomic<std::size_t> local{0};
    pool.run(16, 8, [&](unsigned w, std::size_t) {
      EXPECT_EQ(w, 0u);  // inline execution reports worker 0
      local.fetch_add(1, std::memory_order_relaxed);
    });
    inner_total.fetch_add(local.load(), std::memory_order_relaxed);
  });
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_EQ(inner_total.load(), 8u * 16u);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPoolTest, WidthOneRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::shared().run(4, 1, [&](unsigned w, std::size_t) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

}  // namespace
}  // namespace echelon
