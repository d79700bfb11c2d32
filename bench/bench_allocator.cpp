// Microbenchmarks of the RateAllocator hot path (see DESIGN.md, "Hot-path
// data layout").
//
// The allocator runs after every scheduler control() pass -- once per flow
// arrival and departure under per-event coordination -- so its per-pass cost
// bounds control-plane throughput together with the scheduler itself. Two
// regimes:
//
//   * FairShare: every flow uncapped with weight 1. Progressive filling
//     iterates until every flow is frozen by a saturated link, exercising
//     the multi-round water-fill worst case.
//   * Capped: every flow carries a MADD-style explicit rate cap (as the
//     Echelon/Coflow schedulers emit), so most flows freeze at their cap in
//     the first rounds.
//
// Flow counts match BM_EchelonMaddControlPass (64..4096) so the two
// benchmarks compose into an end-to-end control-plane latency estimate.
// Emit JSON for trajectory tracking with:
//   bench_allocator --benchmark_format=json

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "netsim/allocator.hpp"
#include "netsim/flow.hpp"
#include "topology/builders.hpp"

namespace {

using namespace echelon;

struct Population {
  topology::BuiltFabric fabric;
  std::vector<netsim::Flow> flows;
  std::vector<netsim::Flow*> active;
};

Population make_population(int n_flows, bool capped) {
  const int hosts = 32;
  Population p{topology::make_big_switch(hosts, gbps(100)), {}, {}};
  Rng rng(11);
  p.flows.reserve(static_cast<std::size_t>(n_flows));
  for (int i = 0; i < n_flows; ++i) {
    const auto src = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    auto dst = rng.uniform_int(static_cast<std::uint64_t>(hosts));
    if (dst == src) dst = (dst + 1) % static_cast<std::uint64_t>(hosts);
    netsim::Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    f.spec.size = rng.uniform(1e6, 1e8);
    f.remaining = f.spec.size;
    f.weight = 1.0 + static_cast<double>(i % 3);
    if (capped) f.rate_cap = rng.uniform(0.1, 1.0) * gbps(10);
    f.path = *p.fabric.topo.route(p.fabric.hosts[src], p.fabric.hosts[dst],
                                  static_cast<std::uint64_t>(i));
    p.flows.push_back(std::move(f));
  }
  for (auto& f : p.flows) p.active.push_back(&f);
  return p;
}

void BM_RateAllocatorFairShare(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)), false);
  netsim::RateAllocator alloc(&p.fabric.topo);
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RateAllocatorFairShare)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RateAllocatorCapped(benchmark::State& state) {
  Population p = make_population(static_cast<int>(state.range(0)), true);
  netsim::RateAllocator alloc(&p.fabric.topo);
  for (auto _ : state) {
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RateAllocatorCapped)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// --- per-pass cap churn ------------------------------------------------------
//
// A multi-tenant fabric where each control pass touches *one* job's caps
// (MADD repacing after an iteration boundary). `range(0)` link-disjoint
// "jobs" (one src->dst host pair each) with 32 capped flows per job; every
// benchmark iteration rewrites one cap in job (iter % jobs) to a genuinely
// new value, then reallocates, water-filling every component.
//
// Overlap puts every flow on the single bottleneck pair, so the whole
// population is one component.

struct JobbedPopulation {
  topology::BuiltFabric fabric;
  std::vector<netsim::Flow> flows;
  std::vector<netsim::Flow*> active;
  int n_jobs = 0;
  int flows_per_job = 0;
};

JobbedPopulation make_jobbed(int n_jobs, int flows_per_job) {
  JobbedPopulation p{topology::make_big_switch(2 * n_jobs, gbps(100)),
                     {},
                     {},
                     n_jobs,
                     flows_per_job};
  std::uint64_t id = 0;
  p.flows.reserve(static_cast<std::size_t>(n_jobs) * flows_per_job);
  for (int j = 0; j < n_jobs; ++j) {
    for (int k = 0; k < flows_per_job; ++k) {
      netsim::Flow f;
      f.id = FlowId{id};
      f.spec.size = 1e9;
      f.remaining = 1e9;
      f.weight = 1.0;
      // Staggered caps, every one binding (sum of caps < port capacity):
      // exactly what MADD pacing emits -- deliberate slowdown to the
      // bottleneck echelon. Each fill freezes one flow per round, the
      // progressive-filling worst case.
      f.rate_cap = gbps(0.1 * (k + 1));
      f.path = *p.fabric.topo.route(p.fabric.hosts[2 * j],
                                    p.fabric.hosts[2 * j + 1], id);
      ++id;
      p.flows.push_back(std::move(f));
    }
  }
  for (auto& f : p.flows) p.active.push_back(&f);
  return p;
}

// Rewrites one cap in job (iter % n_jobs) through the control setter.
// The value cycle (0.26/0.52/0.78 Gbps) never collides with the staggered
// initial caps and never repeats between consecutive visits to the same job
// (n_jobs % 3 == 1 for all benchmarked sizes), so every pass has exactly
// one genuinely dirty component.
void churn_one_job(JobbedPopulation& p, std::uint64_t iter) {
  const auto job = static_cast<std::size_t>(
      iter % static_cast<std::uint64_t>(p.n_jobs));
  p.flows[job * static_cast<std::size_t>(p.flows_per_job)].set_rate_cap(
      gbps(0.26 * (1.0 + static_cast<double>(iter % 3))));
}

void BM_RateAllocatorOneDirtyFull(benchmark::State& state) {
  JobbedPopulation p =
      make_jobbed(static_cast<int>(state.range(0)), /*flows_per_job=*/32);
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.allocate(p.active);  // warm the arenas
  std::uint64_t iter = 0;
  for (auto _ : state) {
    churn_one_job(p, iter++);
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * p.flows.size());
}
BENCHMARK(BM_RateAllocatorOneDirtyFull)->Arg(4)->Arg(16)->Arg(64);

void BM_RateAllocatorOverlapFull(benchmark::State& state) {
  // One job spanning a single host pair: every flow in one component.
  JobbedPopulation p =
      make_jobbed(/*n_jobs=*/1, static_cast<int>(state.range(0)));
  netsim::RateAllocator alloc(&p.fabric.topo);
  alloc.allocate(p.active);
  std::uint64_t iter = 0;
  for (auto _ : state) {
    churn_one_job(p, iter++);
    alloc.allocate(p.active);
    benchmark::DoNotOptimize(p.active);
  }
  state.SetItemsProcessed(state.iterations() * p.flows.size());
}
BENCHMARK(BM_RateAllocatorOverlapFull)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  const bool not_release = echelon::benchutil::warn_if_not_release();
  benchmark::AddCustomContext("echelon_build_type",
                              echelon::benchutil::kBuildType);
  if (not_release) benchmark::AddCustomContext("echelon_unoptimized", "true");
  // Build provenance: which commit produced these numbers, and whether the
  // tree was dirty (bench_util.hpp).
  benchmark::AddCustomContext("echelon_git_commit",
                              echelon::benchutil::kGitCommit);
  benchmark::AddCustomContext("echelon_git_dirty",
                              echelon::benchutil::kGitDirty);
  // Machine shape: baselines are only comparable between identically-shaped
  // hosts, so every run records the one it came from.
  benchmark::AddCustomContext(
      "echelon_hardware_concurrency",
      echelon::benchutil::hardware_concurrency_context());
  benchmark::AddCustomContext("echelon_pool_participants",
                              echelon::benchutil::pool_participants_context());
  // Behavioural fingerprint of the hot path (allocator work counts,
  // reallocation counts, ...) so BENCH_hotpath.json timing shifts can be
  // cross-read against scheduler behaviour (bench_util.hpp).
  benchmark::AddCustomContext("echelon_metrics",
                              echelon::benchutil::hotpath_metrics_context());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
