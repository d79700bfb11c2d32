// Coflow scheduling baseline: Varys-style SEBF + MADD (Chowdhury et al.,
// SIGCOMM'14), the algorithm the paper adapts in Property 4.
//
// * Inter-coflow: Smallest Effective Bottleneck First -- coflows are served
//   in ascending order of their standalone completion bound
//       Gamma = max_links (sum of remaining bytes crossing the link / cap).
// * Intra-coflow: Minimum Allocation for Desired Duration -- every flow of
//   the coflow is paced at remaining_j / Gamma so all flows finish together
//   exactly at the bottleneck's completion time (no bandwidth wasted on
//   flows that would otherwise finish early).
// * Optional work conservation: leftover capacity is granted to coflows in
//   SEBF order, scaled proportionally to remaining bytes so simultaneous
//   finishing is preserved.
//
// Flows are grouped by FlowSpec::group; ungrouped flows form singleton
// coflows. Applied to an EchelonFlow-compliant workload this treats every
// EchelonFlow as if it were a Coflow -- which is precisely the strawman the
// paper's Fig. 2 shows losing to fair sharing on pipeline parallelism.
//
// Hot-path data layout: grouping uses a two-pass counting scheme over an
// epoch-stamped key map plus a flat member arena (no std::map nodes, no
// per-pass allocations after warm-up); per-link load and residual capacity
// live in dense LinkId-indexed scratch (see DESIGN.md, "Hot-path data
// layout").

#pragma once

#include <cstdint>
#include <vector>

#include "common/scratch.hpp"
#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"
#include "topology/dense.hpp"

namespace echelon::ef {

struct CoflowMaddConfig {
  bool work_conserving = true;
};

class CoflowMaddScheduler final : public netsim::NetworkScheduler {
 public:
  explicit CoflowMaddScheduler(CoflowMaddConfig config = {})
      : config_(config) {}

  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "coflow-madd"; }

 private:
  // A coflow as a [begin, end) range into the flat members_ arena.
  struct Grp {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    double gamma_standalone = 0.0;
  };

  [[nodiscard]] double standalone_gamma(const topology::Topology& topo,
                                        const Grp& g);
  [[nodiscard]] double residual_gamma(const Grp& g);

  CoflowMaddConfig config_;

  // --- reusable per-pass arenas (allocation-free after warm-up) ---
  KeySlotMap key_slots_;
  std::vector<Grp> groups_;
  std::vector<netsim::Flow*> members_;  // flat, grouped by coflow
  std::vector<std::uint32_t> order_;    // SEBF rank order over groups_
  topology::LinkScratch<double> load_;
  detail::ResidualCaps caps_;
};

}  // namespace echelon::ef
