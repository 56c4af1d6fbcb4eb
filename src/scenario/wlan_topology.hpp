#pragma once

#include "scenario/topology.hpp"

namespace fhmip {

/// Figure 4.11 — the simple WLAN network for the pure link-layer handoff
/// experiments: CN --- router --- AR with two access points under it; the
/// MH switches APs without changing subnet (§3.2.2.4).
struct WlanTopologyConfig {
  std::uint64_t seed = 1;
  double cn_r_mbps = 100, r_ar_mbps = 10;
  SimTime cn_r_delay = SimTime::millis(5);
  SimTime r_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;
  WlanConfig wlan;
  BufferSchemeConfig scheme;
  bool use_fast_handover = true;
  bool request_buffers = true;
  /// Control-plane retransmission/backoff for the MH and the AR.
  RetransmitPolicy rtx;
};

TopologySpec wlan_spec(const WlanTopologyConfig& cfg);

class WlanTopology : public Topology {
 public:
  explicit WlanTopology(const WlanTopologyConfig& cfg)
      : Topology(wlan_spec(cfg)) {}

  /// Schedules a link-layer handoff to the other AP at `at` (AP1→AP2
  /// first; repeated calls alternate).
  void schedule_handoff(SimTime at);

  Node& ar() { return Topology::ar(0); }
  ArAgent& ar_agent() { return Topology::ar_agent(0); }
  Node& mh() { return *mobile(0).node; }
  MhAgent& mh_agent() { return *mobile(0).agent; }
  Address mh_coa() { return mobile(0).regional; }
  AccessPoint& ap1() { return ap(0); }
  AccessPoint& ap2() { return ap(1); }
};

}  // namespace fhmip
