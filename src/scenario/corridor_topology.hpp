#pragma once

#include "scenario/topology.hpp"

namespace fhmip {

/// A corridor of N access routers under one MAP — the generalization of
/// Figure 4.1 to a whole roaming path:
///
///   CN --- GW --- MAP --+--- AR1 ((AP))   ((AP)) AR2 ... ((AP)) ARn
///                       |     |             |
///                       +-----+-- ... ------+      (star to the MAP,
///   AR_i --- AR_{i+1} direct links for the tunnels)
///
/// A mobile host walking the corridor hands over N-1 times, with every
/// interior router acting first as NAR, then as PAR.
struct CorridorConfig {
  std::uint64_t seed = 1;
  int num_ars = 4;
  double ap_spacing_m = 212;
  double ap_radius_m = 112;
  double speed_mps = 10;
  SimTime mobility_start = SimTime::millis(100);
  double cn_gw_mbps = 100, gw_map_mbps = 100, map_ar_mbps = 10,
         ar_ar_mbps = 10;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime ar_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;
  WlanConfig wlan;
  BufferSchemeConfig scheme;
  bool use_fast_handover = true;
  bool request_buffers = true;
  /// Control-plane retransmission/backoff for the MH and every AR.
  RetransmitPolicy rtx;
};

TopologySpec corridor_spec(const CorridorConfig& cfg);

class CorridorTopology : public Topology {
 public:
  explicit CorridorTopology(const CorridorConfig& cfg)
      : Topology(corridor_spec(cfg)), cfg_(cfg) {}

  /// Time to walk the full corridor.
  SimTime walk_duration() const {
    return SimTime::from_seconds(cfg_.ap_spacing_m * (cfg_.num_ars - 1) /
                                 cfg_.speed_mps);
  }

  Node& mh() { return *mobile(0).node; }
  MhAgent& mh_agent() { return *mobile(0).agent; }
  MobileIpClient& mip() { return *mobile(0).mip; }
  Address mh_regional() { return mobile(0).regional; }

 private:
  CorridorConfig cfg_;
};

}  // namespace fhmip
