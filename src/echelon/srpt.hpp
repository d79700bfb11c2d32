// Shortest-Remaining-Processing-Time baseline (pFabric-style).
//
// The classic information-rich per-flow policy from the individual-flow
// scheduling literature the paper cites (§1: pFabric, PIAS): strict
// preemptive priority to the flow with the fewest remaining bytes,
// work-conserving water-fill below it. Application-agnostic -- it ignores
// groups and arrangements entirely -- so it is the natural "per-flow
// optimal, application-blind" baseline against the EchelonFlow family.

#pragma once

#include <vector>

#include "echelon/linkcaps.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/simulator.hpp"

namespace echelon::ef {

class SrptScheduler final : public netsim::NetworkScheduler {
 public:
  void control(netsim::Simulator& sim,
               std::span<netsim::Flow*> active) override;

  [[nodiscard]] std::string name() const override { return "srpt"; }

 private:
  // Reusable per-pass arenas (allocation-free after warm-up).
  std::vector<netsim::Flow*> order_;
  detail::ResidualCaps caps_;
};

}  // namespace echelon::ef
