#include "echelon/registry.hpp"

namespace echelon::ef {

EchelonFlowId Registry::create(JobId job, Arrangement arrangement,
                               std::string label, double weight) {
  const EchelonFlowId id{echelonflows_.size()};
  echelonflows_.push_back(std::make_unique<EchelonFlow>(
      id, job, std::move(arrangement), std::move(label), weight));
  return id;
}

void Registry::note_arrival(const netsim::Flow& flow, SimTime now) {
  const EchelonFlowId gid = flow.spec.group;
  if (!contains(gid)) return;
  get(gid).note_start(flow.spec.index_in_group, flow.id, flow.spec.size, now);
}

void Registry::note_departure(const netsim::Flow& flow, SimTime now) {
  const EchelonFlowId gid = flow.spec.group;
  if (!contains(gid)) return;
  get(gid).note_finish(flow.spec.index_in_group, now);
}

void Registry::attach(netsim::Simulator& sim) {
  sim.add_flow_arrival_listener(
      [this](netsim::Simulator& s, const netsim::Flow& f) {
        note_arrival(f, s.now());
      });
  sim.add_flow_listener([this](netsim::Simulator& s, const netsim::Flow& f) {
    note_departure(f, s.now());
  });
}

Duration Registry::total_tardiness() const {
  Duration sum = 0.0;
  for (const auto& ef : echelonflows_) {
    if (ef->complete()) sum += ef->tardiness();
  }
  return sum;
}

Duration Registry::weighted_total_tardiness() const {
  Duration sum = 0.0;
  for (const auto& ef : echelonflows_) {
    if (ef->complete()) sum += ef->weight() * ef->tardiness();
  }
  return sum;
}

std::vector<const EchelonFlow*> Registry::all() const {
  std::vector<const EchelonFlow*> out;
  out.reserve(echelonflows_.size());
  for (const auto& ef : echelonflows_) out.push_back(ef.get());
  return out;
}

}  // namespace echelon::ef
