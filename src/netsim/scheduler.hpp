// Network control-plane interface.
//
// A NetworkScheduler observes flow arrivals/departures and, whenever the
// active set changes, assigns per-flow weights and rate caps that the
// RateAllocator then turns into feasible rates. Concrete policies:
//   * FairSharingScheduler (here)    -- TCP-like max-min fairness baseline
//   * CoflowMaddScheduler (echelon/) -- Varys-style SEBF + MADD
//   * EchelonMaddScheduler (echelon/)-- the paper's tardiness-minimizing
//                                       adaptation (Property 4)
//
// Every control() pass recomputes every decision from the active span, as
// the paper's heuristic does at each arrival and departure (DESIGN.md §12
// records why there is no second, incremental pass).

#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "netsim/flow.hpp"

namespace echelon::netsim {

class Simulator;

// Control-plane telemetry, kept by the NetworkScheduler base and surfaced
// through run metrics as the sched.passes counter. Never feeds back into
// decisions.
struct SchedStats {
  std::uint64_t passes = 0;  // control() invocations
  // Always 0: the former incremental tiers' counters, kept only because
  // perfbench still reads them (DESIGN.md §12).
  std::uint64_t scoped_passes = 0;
  std::uint64_t pass_skips = 0;
  std::uint64_t groups_seen = 0;
  std::uint64_t groups_reused = 0;
};

class NetworkScheduler {
 public:
  virtual ~NetworkScheduler() = default;

  // Notification hooks. The simulator calls `control` after any arrival or
  // departure, before recomputing rates.
  virtual void on_flow_arrival(Simulator& sim, const Flow& flow) {
    (void)sim;
    (void)flow;
  }
  virtual void on_flow_departure(Simulator& sim, const Flow& flow) {
    (void)sim;
    (void)flow;
  }
  // Fired by Simulator::notify_topology_change after link capacities or
  // up/down state changed at runtime (fault injection, operator action).
  // Schedulers holding decisions derived from path capacities -- e.g. the
  // coordinator's signature-keyed rate cache -- must drop them here; the
  // default is a no-op because most policies recompute from scratch every
  // control pass.
  virtual void on_topology_change(Simulator& sim) { (void)sim; }

  // Never called. The former per-job dirty-mark hooks stay declared only
  // because perfbench's TimedScheduler still overrides them (DESIGN.md §12).
  virtual void mark_job_dirty(JobId job) { (void)job; }
  virtual void mark_all_jobs_dirty() {}

  // Assign `weight` / `rate_cap` on the active flows. The allocator enforces
  // feasibility afterwards, so over-subscription degrades gracefully rather
  // than violating capacity.
  virtual void control(Simulator& sim, std::span<Flow*> active) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const SchedStats& sched_stats() const noexcept {
    return stats_;
  }

 protected:
  SchedStats stats_;
};

// Plain weighted max-min fairness: every flow uncapped with weight 1. This is
// the "naive bandwidth fair sharing" baseline of Fig. 2.
class FairSharingScheduler final : public NetworkScheduler {
 public:
  void control(Simulator&, std::span<Flow*> active) override {
    ++stats_.passes;
    for (Flow* f : active) {
      f->set_weight(1.0);
      f->clear_rate_cap();
    }
  }
  [[nodiscard]] std::string name() const override { return "fair"; }
};

}  // namespace echelon::netsim
