#pragma once

#include <memory>

#include "buffer/traffic_class.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "wireless/mobility.hpp"

namespace fhmip {

/// Axis-aligned rectangle the population roams inside (the city footprint,
/// derived from the AP layout by city_spec).
struct RoamBox {
  Vec2 lo;
  Vec2 hi;
};

/// Population model for city-scale scenarios: per-MH random-waypoint walks
/// plus a traffic mix drawn from the three service classes of Table 3.1.
/// Everything is derived deterministically from one seed — two populations
/// built with the same config and seed are identical host by host.
struct PopulationConfig {
  int num_mhs = 100;
  /// Per-MH walk speed, uniform in [speed_min_mps, speed_max_mps].
  double speed_min_mps = 2;
  double speed_max_mps = 15;
  /// Hosts stand still until this sim time (lets initial association and
  /// binding updates settle before the first handovers).
  SimTime mobility_start = SimTime::millis(100);
  /// Walks are pre-generated to cover exactly this much sim time (the
  /// final leg is clipped); at the horizon every host freezes in place, so
  /// scenarios quiesce a bounded slack later.
  SimTime horizon = SimTime::seconds(60);
  /// Traffic mix: relative weights of the three service classes for the
  /// per-MH downstream flow (normalized internally).
  double mix_realtime = 0.25;
  double mix_highprio = 0.25;
  double mix_besteffort = 0.5;
  /// Fraction of hosts that carry a flow at all; the rest only roam.
  double active_fraction = 1.0;
  /// Per-flow downstream rate and packet size (interval is derived).
  double flow_kbps = 16;
  std::uint32_t packet_bytes = 160;
  SimTime traffic_start = SimTime::seconds(1);
  /// Zero = horizon.
  SimTime traffic_stop;
};

/// Traffic role one population member was dealt.
struct PopulationDraw {
  Vec2 spawn;
  double speed_mps = 0;
  bool active = false;
  TrafficClass tclass = TrafficClass::kBestEffort;
};

/// Per-MH deterministic draws for spawn point, speed, activity and service
/// class. Draw order is fixed (spawn, speed, active, class), so adding
/// fields later keeps existing streams stable per position.
PopulationDraw draw_member(Rng& rng, const PopulationConfig& cfg,
                           const RoamBox& box);

/// A random-waypoint walk inside `box`: waypoints uniform in the box, one
/// constant speed per host, segments generated until `cfg.horizon` is
/// covered. Implemented on WaypointMobility so position sampling is shared
/// with the scripted scenarios.
std::unique_ptr<MobilityModel> make_random_waypoint_walk(
    Rng& rng, const PopulationConfig& cfg, const RoamBox& box, Vec2 spawn,
    double speed_mps);

/// Derived CBR packet interval for the configured flow rate.
SimTime population_packet_interval(const PopulationConfig& cfg);

}  // namespace fhmip
