#pragma once

#include "scenario/topology.hpp"

namespace fhmip {

/// City-scale generalization of the Figure 4.1 hierarchy: a grid or hex
/// field of access routers (one AP each) under one or more MAPs, with a
/// whole population of mobile hosts roaming it at once.
///
///   CN --- GW --+--- MAP0 --+-- AR(0,0) ((AP))   ((AP)) AR(0,1) ...
///               |           +-- AR(1,0) ((AP))   ...
///               +--- MAP1 --+-- ...        (column bands of ARs per MAP;
///   adjacent ARs also get direct links carrying the handover tunnels)
///
/// Geometry, link rates and the population model are all parameterized so
/// one configuration drives anything from a paper-scale sanity run to
/// thousands of concurrent handovers across hundreds of ARs.
struct CityConfig {
  std::uint64_t seed = 1;

  /// AP field layout: square grid, or hexagonal packing (odd rows shifted
  /// by spacing/2, row pitch spacing*sqrt(3)/2 — denser vertical cover).
  enum class Layout { kGrid, kHex };
  Layout layout = Layout::kGrid;
  int ar_rows = 4;
  int ar_cols = 4;
  /// MAPs partition the AR field into contiguous column bands; each MH
  /// anchors (RCoA) at the MAP owning its spawn area and keeps that anchor
  /// while roaming the whole city.
  int num_maps = 1;

  double ap_spacing_m = 212;
  double ap_radius_m = 112;

  // Wired link rates. City backhaul defaults are a notch above the paper's
  // single-cell numbers so hundreds of concurrent flows don't serialize on
  // one 10 Mb/s spoke.
  double cn_gw_mbps = 1000, gw_map_mbps = 1000, map_ar_mbps = 100,
         ar_ar_mbps = 100;
  SimTime cn_gw_delay = SimTime::millis(5);
  SimTime gw_map_delay = SimTime::millis(2);
  SimTime map_ar_delay = SimTime::millis(2);
  SimTime ar_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 500;

  /// City default turns handoff hysteresis on: a population freezing at
  /// the walk horizon otherwise strands hosts in overlapping exit margins,
  /// where they flap between two APs (and re-run the buffer handshake)
  /// forever.
  CityConfig() { wlan.handoff_hysteresis_m = 4.0; }

  WlanConfig wlan;
  BufferSchemeConfig scheme;
  RetransmitPolicy rtx;
  /// Per-attempt liveness deadline for every MH (zero = disabled); city
  /// runs should set it so a wedged host becomes a typed failure, not a
  /// hang (see MhAgent::Config::watchdog).
  SimTime watchdog;

  PopulationConfig population;
};

TopologySpec city_spec(const CityConfig& cfg);

class CityTopology : public Topology {
 public:
  explicit CityTopology(const CityConfig& cfg) : Topology(city_spec(cfg)) {}
};

}  // namespace fhmip
