// Unit and property tests for the demand-limited weighted max-min allocator.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "netsim/allocator.hpp"
#include "topology/builders.hpp"

namespace echelon::netsim {
namespace {

// Builds a flow on the given fabric with routing resolved.
Flow make_flow(const topology::BuiltFabric& f, std::size_t src,
               std::size_t dst, Bytes size, std::uint64_t id = 0) {
  Flow flow;
  flow.id = FlowId{id};
  flow.spec.src = f.hosts[src];
  flow.spec.dst = f.hosts[dst];
  flow.spec.size = size;
  flow.remaining = size;
  flow.path = *f.topo.route(f.hosts[src], f.hosts[dst], id);
  return flow;
}

std::vector<Flow*> ptrs(std::vector<Flow>& flows) {
  std::vector<Flow*> out;
  for (Flow& f : flows) out.push_back(&f);
  return out;
}

TEST(Allocator, SingleFlowGetsFullBandwidth) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 10.0);
}

TEST(Allocator, TwoFlowsSameLinkSplitEvenly) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, WeightsBiasShares) {
  auto f = topology::make_big_switch(2, 9.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].weight = 2.0;
  flows[1].weight = 1.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 6.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 3.0);
}

TEST(Allocator, CapIsHonoredAndLeftoverRedistributed) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 2.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 8.0);  // work conserving for uncapped flows
}

TEST(Allocator, AllCappedLeavesCapacityUnused) {
  // Non-work-conserving by design when every flow is capped: MADD needs
  // exact pacing.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 2.0;
  flows[1].rate_cap = 3.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 3.0);
}

TEST(Allocator, InfeasibleCapsDegradeGracefully) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].rate_cap = 8.0;
  flows[1].rate_cap = 8.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  // Equal weights: both throttle to the fair share; capacity never exceeded.
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, DifferentDestinationsDontContend) {
  auto f = topology::make_big_switch(4, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 2, 3, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
}

TEST(Allocator, IngressBottleneckShared) {
  // Two sources into one destination port.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 2, 100.0, 0),
                          make_flow(f, 1, 2, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate + flows[1].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
}

TEST(Allocator, MaxMinUnevenDemands) {
  // Three flows from distinct sources into one port; one is capped low, the
  // other two split the rest (classic water-filling).
  auto f = topology::make_big_switch(4, 9.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 3, 100.0, 0),
                          make_flow(f, 1, 3, 100.0, 1),
                          make_flow(f, 2, 3, 100.0, 2)};
  flows[0].rate_cap = 1.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 4.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 4.0);
}

TEST(Allocator, FinishedFlowsGetZero) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].state = FlowState::kFinished;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
}

TEST(Allocator, EmptyPathGetsInfiniteRate) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  Flow loop = make_flow(f, 0, 1, 100.0);
  loop.path.clear();  // loopback
  std::vector<Flow> flows{std::move(loop)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_TRUE(std::isinf(flows[0].rate));
}

// ---------------------------------------------------------------------------
// Edge cases: degenerate weights, infeasible caps, loopback flows mixed with
// contended ones, and incremental-cache component isolation.
// ---------------------------------------------------------------------------

// Regression: a zero- or negative-weight flow used to divide by zero in the
// water level (and trip the unfrozen_weight assert in Debug builds). Such
// weights are now clamped to kMinFlowWeight: the degenerate flow receives an
// arbitrarily small share and its neighbors keep (essentially) everything.
TEST(Allocator, ZeroWeightFlowDoesNotDivideByZero) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].weight = 0.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_GE(flows[0].rate, 0.0);
  EXPECT_LE(flows[0].rate, 1e-6);  // epsilon share only
  EXPECT_NEAR(flows[1].rate, 10.0, 1e-6);
  EXPECT_LE(flows[0].rate + flows[1].rate, 10.0 + 1e-6);
}

TEST(Allocator, NegativeWeightFlowIsClampedNotCrashing) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].weight = -3.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_GE(flows[0].rate, 0.0);
  EXPECT_NEAR(flows[1].rate, 10.0, 1e-6);
}

TEST(Allocator, AllZeroWeightFlowsStillSplitCapacity) {
  // Clamped equal (epsilon) weights degenerate to plain even max-min.
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  flows[0].weight = 0.0;
  flows[1].weight = 0.0;
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, CapAboveAnyFeasibleShareActsUncapped) {
  // A cap the fabric can never satisfy must not distort the fair share.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 2, 100.0, 0),
                          make_flow(f, 1, 2, 100.0, 1)};
  flows[0].rate_cap = 1e12;  // far above the 10.0 port
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(Allocator, LoopbackFlowsMixedWithContendedOnes) {
  // Empty-path (src == dst) flows are never network-limited and must not
  // perturb the water-fill of contended flows sharing the pass.
  auto f = topology::make_big_switch(3, 10.0);
  RateAllocator alloc(&f.topo);
  Flow loop_uncapped = make_flow(f, 0, 1, 100.0, 0);
  loop_uncapped.path.clear();
  Flow loop_capped = make_flow(f, 0, 1, 100.0, 1);
  loop_capped.path.clear();
  loop_capped.rate_cap = 7.5;
  std::vector<Flow> flows;
  flows.push_back(std::move(loop_uncapped));
  flows.push_back(std::move(loop_capped));
  flows.push_back(make_flow(f, 0, 2, 100.0, 2));
  flows.push_back(make_flow(f, 1, 2, 100.0, 3));
  auto p = ptrs(flows);
  alloc.allocate(p);
  EXPECT_TRUE(std::isinf(flows[0].rate));
  EXPECT_DOUBLE_EQ(flows[1].rate, 7.5);
  EXPECT_DOUBLE_EQ(flows[2].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[3].rate, 5.0);
}

// Two disjoint contention components on one fabric: churn (cap rewrites) in
// one component must not perturb the other's rates -- exact double
// equality, because each component is water-filled on its own.
TEST(Allocator, ComponentChurnDoesNotPerturbCleanComponent) {
  auto f = topology::make_big_switch(4, 10.0);
  RateAllocator alloc(&f.topo);
  // Component A: hosts {0 -> 1} x2; component B: hosts {2 -> 3} x3.
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1),
                          make_flow(f, 2, 3, 100.0, 2),
                          make_flow(f, 2, 3, 100.0, 3),
                          make_flow(f, 2, 3, 100.0, 4)};
  flows[2].weight = 1.5;  // make B's shares non-trivial doubles
  auto p = ptrs(flows);
  alloc.allocate(p);
  const double b0 = flows[2].rate;
  const double b1 = flows[3].rate;
  const double b2 = flows[4].rate;
  // Churn A across several passes: toggle caps and weights through the
  // control setters.
  for (int pass = 0; pass < 4; ++pass) {
    flows[0].set_rate_cap(1.0 + pass);
    flows[1].set_weight(1.0 + 0.5 * pass);
    alloc.allocate(p);
    EXPECT_EQ(flows[2].rate, b0);  // exact: bit-identical rates
    EXPECT_EQ(flows[3].rate, b1);
    EXPECT_EQ(flows[4].rate, b2);
    // Flow 0 gets its cap, unless the shared port saturates first at the
    // weighted fair share (unit weight vs flow 1's 1.0 + 0.5 * pass).
    const double fair0 = 10.0 / (1.0 + (1.0 + 0.5 * pass));
    EXPECT_DOUBLE_EQ(flows[0].rate, std::min(1.0 + pass, fair0));
  }
}

// A runtime link-capacity change is reflected on the next pass even when no
// flow-side input changed.
TEST(Allocator, RuntimeCapacityChangeReflectedOnNextPass) {
  auto f = topology::make_big_switch(2, 10.0);
  RateAllocator alloc(&f.topo);
  std::vector<Flow> flows{make_flow(f, 0, 1, 100.0, 0),
                          make_flow(f, 0, 1, 100.0, 1)};
  auto p = ptrs(flows);
  alloc.allocate(p);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  // Degrade the uplink; no flow input changed, but rates must follow.
  f.topo.set_link_capacity(flows[0].path.front(), 4.0);
  alloc.allocate(p);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 2.0);
}

// ---------------------------------------------------------------------------
// Property sweep: on random instances, the allocation must (a) never exceed
// any link capacity, (b) never exceed a flow's cap, and (c) be maximal for
// uncapped flows (no uncapped flow can be raised without violating (a)).
// ---------------------------------------------------------------------------

class AllocatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorProperty, FeasibleAndMaximal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int hosts = 2 + static_cast<int>(rng.uniform_int(6));
  const double cap = rng.uniform(1.0, 100.0);
  auto f = topology::make_big_switch(hosts, cap);
  RateAllocator alloc(&f.topo);

  const int n = 1 + static_cast<int>(rng.uniform_int(20));
  std::vector<Flow> flows;
  for (int i = 0; i < n; ++i) {
    std::size_t src = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    std::size_t dst = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    if (dst == src) dst = (dst + 1) % static_cast<std::size_t>(hosts);
    Flow fl = make_flow(f, src, dst, 100.0, static_cast<std::uint64_t>(i));
    fl.weight = rng.uniform(0.1, 4.0);
    if (rng.bernoulli(0.5)) fl.rate_cap = rng.uniform(0.0, cap * 1.5);
    flows.push_back(std::move(fl));
  }
  auto p = ptrs(flows);
  alloc.allocate(p);

  // (a) capacity feasibility.
  std::vector<double> load(f.topo.link_count(), 0.0);
  for (const Flow& fl : flows) {
    for (LinkId lid : fl.path) load[lid.value()] += fl.rate;
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], f.topo.link(LinkId{l}).capacity + 1e-6);
  }
  // (b) caps respected.
  for (const Flow& fl : flows) {
    EXPECT_GE(fl.rate, -1e-12);
    if (fl.rate_cap) EXPECT_LE(fl.rate, *fl.rate_cap + 1e-9);
  }
  // (c) maximality: every uncapped flow is bottlenecked on some link.
  for (const Flow& fl : flows) {
    if (fl.rate_cap) continue;
    bool bottlenecked = false;
    for (LinkId lid : fl.path) {
      if (load[lid.value()] >= f.topo.link(lid).capacity - 1e-6) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "uncapped flow not at a saturated link";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AllocatorProperty,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace echelon::netsim
