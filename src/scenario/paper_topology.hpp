#pragma once

#include "scenario/topology.hpp"

namespace fhmip {

/// Figure 4.1 — the hierarchical MIPv6 reference network:
///
///   CN --- GW --- MAP --+--- PAR ((AP))      MH -> moves PAR-side to
///                        \--- NAR ((AP))            NAR-side (212 m apart)
///                  PAR --- NAR (direct link, delay varied in Figs 4.9/4.10)
struct PaperTopologyConfig {
  std::uint64_t seed = 1;

  // Wired links (bandwidth Mb/s and delay as drawn beside Fig 4.1's links;
  // the scanned figure is unreadable, values chosen to be conventional).
  double cn_gw_mbps = 100, gw_map_mbps = 100, map_ar_mbps = 10,
         par_nar_mbps = 10;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime par_nar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;

  // Geometry and motion (§4.1): ARs 212 m apart, ~112 m coverage
  // (12 m overlap), 10 m/s.
  double ar_distance_m = 212;
  double ap_radius_m = 112;
  double speed_mps = 10;
  bool bounce = false;  // false: one PAR→NAR pass; true: back-and-forth
  SimTime mobility_start = SimTime::millis(100);

  WlanConfig wlan;  // 200 ms L2 handoff, 1 s router advertisements
  BufferSchemeConfig scheme;
  int num_mhs = 1;
  /// MH-side knobs (BI piggybacking, start-time safety valve, the
  /// non-anticipated path, the §3.1.1 bicast baseline).
  bool use_fast_handover = true;
  bool request_buffers = true;
  bool anticipate = true;
  bool simultaneous_binding = false;
  SimTime start_time_offset;
  /// Per-attempt handover liveness deadline for every MH agent (zero =
  /// disabled; see MhAgent::Config::watchdog).
  SimTime watchdog;
  /// Control-plane retransmission/backoff, shared by the MH agents and both
  /// ARs (rtx.enabled = false restores fire-and-forget signaling).
  RetransmitPolicy rtx;
};

TopologySpec paper_spec(const PaperTopologyConfig& cfg);

class PaperTopology : public Topology {
 public:
  explicit PaperTopology(const PaperTopologyConfig& cfg)
      : Topology(paper_spec(cfg)), cfg_(cfg) {}

  /// Duration of one PAR→NAR leg for the configured geometry.
  SimTime leg_duration() const {
    return SimTime::from_seconds(cfg_.ar_distance_m / cfg_.speed_mps);
  }

  Node& par() { return ar(0); }
  Node& nar() { return ar(1); }
  ArAgent& par_agent() { return ar_agent(0); }
  ArAgent& nar_agent() { return ar_agent(1); }
  /// The direct inter-AR link carrying the handover tunnel.
  DuplexLink& par_nar_link() { return *ar_ar_links().front(); }
  AccessPoint& ap_par() { return ap(0); }
  AccessPoint& ap_nar() { return ap(1); }

 private:
  PaperTopologyConfig cfg_;
};

}  // namespace fhmip
