#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace fhmip {

struct Vec2 {
  double x = 0;
  double y = 0;
  friend constexpr bool operator==(Vec2, Vec2) = default;
};

double distance(Vec2 a, Vec2 b);

/// A leg ending at `kForever` never ends.
inline constexpr SimTime kForever =
    SimTime::nanos(std::numeric_limits<std::int64_t>::max());

/// A stretch of straight-line motion: `vel` (m/s) holds exactly over
/// [t, until) for the `t` the leg was queried at, so
/// position(t + dt) == position(t) + vel * dt there. The WLAN layer solves
/// its coverage crossings on it instead of polling position().
struct Leg {
  Vec2 vel;
  SimTime until = kForever;
};

/// Deterministic position-over-time model sampled by the WLAN layer.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vec2 position(SimTime t) const = 0;
  /// The leg in force at `t`.
  virtual Leg leg(SimTime t) const = 0;
};

class StaticPosition final : public MobilityModel {
 public:
  explicit StaticPosition(Vec2 p) : p_(p) {}
  Vec2 position(SimTime) const override { return p_; }
  Leg leg(SimTime) const override { return {}; }

 private:
  Vec2 p_;
};

/// Constant-velocity motion from `start` beginning at `t0` (positions before
/// t0 stay at `start`).
class LinearMobility final : public MobilityModel {
 public:
  LinearMobility(Vec2 start, Vec2 velocity_mps, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  Leg leg(SimTime t) const override;

 private:
  Vec2 start_;
  Vec2 vel_;
  SimTime t0_;
};

/// Ping-pong motion between endpoints `a` and `b` at constant speed — the
/// "moving back and forth between the two access routers" workload of §4.2.2.
class BounceMobility final : public MobilityModel {
 public:
  BounceMobility(Vec2 a, Vec2 b, double speed_mps, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  /// The current half-leg, up to the next turnaround.
  Leg leg(SimTime t) const override;

  /// Time for one full leg (a→b).
  SimTime leg_duration() const;

 private:
  Vec2 a_;
  Vec2 b_;
  double speed_;
  SimTime t0_;
};

/// Piecewise-linear motion through waypoints at per-leg speeds; the host
/// stops at the final waypoint.
class WaypointMobility final : public MobilityModel {
 public:
  struct Leg {
    Vec2 to;
    double speed_mps;
  };
  WaypointMobility(Vec2 start, std::vector<Leg> legs, SimTime t0 = SimTime{});
  Vec2 position(SimTime t) const override;
  /// The current segment, up to its end (this class's `Leg` names a
  /// waypoint, hence the qualified return type).
  fhmip::Leg leg(SimTime t) const override;

 private:
  struct Segment {
    Vec2 from;
    Vec2 to;
    SimTime begin;
    SimTime end;
  };
  std::vector<Segment> segments_;
  Vec2 final_;
  SimTime t0_;
};

}  // namespace fhmip
