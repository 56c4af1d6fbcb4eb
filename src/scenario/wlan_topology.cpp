#include "scenario/wlan_topology.hpp"

namespace fhmip {

TopologySpec wlan_spec(const WlanTopologyConfig& cfg) {
  TopologySpec spec;
  spec.seed = cfg.seed;
  spec.gw_name = "r";
  spec.ars = {{"ar", nets::kPar, TopologySpec::kNoMap}};
  // Both APs under the same AR; the MH sits where both cover it so the
  // handoffs are purely protocol-driven (force_handoff).
  spec.aps = {{0, Vec2{0, 0}, 120}, {0, Vec2{60, 0}, 120}};
  spec.cn_gw = {cfg.cn_r_mbps, cfg.cn_r_delay};
  spec.map_ar = {cfg.r_ar_mbps, cfg.r_ar_delay};
  spec.queue_limit = cfg.queue_limit;
  spec.wlan = cfg.wlan;
  spec.mh.scheme = cfg.scheme;
  spec.mh.use_fast_handover = cfg.use_fast_handover;
  spec.mh.request_buffers = cfg.request_buffers;
  spec.mh.rtx = cfg.rtx;

  TopologySpec::Mobile m;
  m.name = "mh";
  m.mobility = std::make_unique<StaticPosition>(Vec2{10, 0});
  m.map = TopologySpec::kNoMap;
  spec.mobiles.push_back(std::move(m));
  return spec;
}

void WlanTopology::schedule_handoff(SimTime at) {
  // The anticipation trigger (L2-ST fires at start because both APs cover
  // the MH) has already primed the RtSolPr+BI exchange; force the switch.
  // The target AP is resolved at fire time so repeated calls alternate.
  // The simulation is a member of *this: pending events die (unrun) with
  // the topology, so the this-capture cannot dangle. LIFE-01 only sees that
  // for a Simulation field of the class itself, not one reached through
  // the base's simulation() accessor.
  simulation().at(at, [this] {  // NOLINT-FHMIP(LIFE-01)
    const NodeId cur = wlan().attached_ap(mh().id());
    const NodeId target = cur == ap1().id() ? ap2().id() : ap1().id();
    wlan().force_handoff(mh().id(), target, simulation().now());
  });
}

}  // namespace fhmip
