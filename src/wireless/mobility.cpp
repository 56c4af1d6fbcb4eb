#include "wireless/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace fhmip {
namespace {

// `t` plus `seconds`, floored to the nanosecond so a leg never runs past
// the instant its motion changes; kForever when that is out of range.
SimTime after(SimTime t, double seconds) {
  const double ns = std::floor(seconds * 1e9);
  if (!(ns < static_cast<double>(kForever.ns() - t.ns()))) return kForever;
  return t + SimTime::nanos(static_cast<std::int64_t>(ns));
}

}  // namespace

double distance(Vec2 a, Vec2 b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

LinearMobility::LinearMobility(Vec2 start, Vec2 velocity_mps, SimTime t0)
    : start_(start), vel_(velocity_mps), t0_(t0) {}

Vec2 LinearMobility::position(SimTime t) const {
  if (t <= t0_) return start_;
  const double dt = (t - t0_).sec();
  return Vec2{start_.x + vel_.x * dt, start_.y + vel_.y * dt};
}

Leg LinearMobility::leg(SimTime t) const {
  if (t < t0_) return {Vec2{}, t0_};
  return {vel_, kForever};
}

BounceMobility::BounceMobility(Vec2 a, Vec2 b, double speed_mps, SimTime t0)
    : a_(a), b_(b), speed_(speed_mps), t0_(t0) {}

SimTime BounceMobility::leg_duration() const {
  return SimTime::from_seconds(distance(a_, b_) / speed_);
}

Vec2 BounceMobility::position(SimTime t) const {
  if (t <= t0_) return a_;
  const double leg = distance(a_, b_) / speed_;
  if (leg <= 0) return a_;
  double phase = std::fmod((t - t0_).sec(), 2 * leg);
  bool toward_b = true;
  if (phase > leg) {
    phase -= leg;
    toward_b = false;
  }
  const double f = phase / leg;
  const Vec2 from = toward_b ? a_ : b_;
  const Vec2 to = toward_b ? b_ : a_;
  return Vec2{from.x + (to.x - from.x) * f, from.y + (to.y - from.y) * f};
}

Leg BounceMobility::leg(SimTime t) const {
  const double leg = distance(a_, b_) / speed_;
  if (!(leg > 0) || !std::isfinite(leg)) return {};  // parked at a_
  if (t < t0_) return {Vec2{}, t0_};
  // position() still reports b_ at phase == leg; the motion from there on
  // is the way back.
  const double phase = std::fmod((t - t0_).sec(), 2 * leg);
  const bool toward_b = phase < leg;
  const Vec2 from = toward_b ? a_ : b_;
  const Vec2 to = toward_b ? b_ : a_;
  return {Vec2{(to.x - from.x) / leg, (to.y - from.y) / leg},
          after(t, (toward_b ? leg : 2 * leg) - phase)};
}

WaypointMobility::WaypointMobility(Vec2 start, std::vector<Leg> legs,
                                   SimTime t0)
    : final_(start), t0_(t0) {
  Vec2 cur = start;
  SimTime at = t0;
  for (const Leg& l : legs) {
    const double d = distance(cur, l.to);
    const SimTime dur =
        l.speed_mps > 0 ? SimTime::from_seconds(d / l.speed_mps) : SimTime{};
    segments_.push_back({cur, l.to, at, at + dur});
    at += dur;
    cur = l.to;
  }
  final_ = cur;
}

Vec2 WaypointMobility::position(SimTime t) const {
  if (segments_.empty() || t <= t0_) {
    return segments_.empty() ? final_ : segments_.front().from;
  }
  // Segment ends are non-decreasing, so the active segment — the first one
  // with t < end — binary-searches in O(log segments). Random-waypoint
  // walks carry hundreds of segments and this runs on every WLAN
  // evaluation of a host.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](SimTime v, const Segment& s) { return v < s.end; });
  if (it == segments_.end()) return final_;
  const Segment& s = *it;
  const double total = (s.end - s.begin).sec();
  if (total <= 0) return s.to;
  const double f = (t - s.begin).sec() / total;
  return Vec2{s.from.x + (s.to.x - s.from.x) * f,
              s.from.y + (s.to.y - s.from.y) * f};
}

fhmip::Leg WaypointMobility::leg(SimTime t) const {
  if (segments_.empty()) return {};
  if (t < t0_) return {Vec2{}, t0_};
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](SimTime v, const Segment& s) { return v < s.end; });
  if (it == segments_.end()) return {};  // parked at the final waypoint
  // position() holds the start through t0 itself, then jumps past any
  // zero-length opening segments.
  if (t == t0_ && it != segments_.begin()) {
    return {Vec2{}, t0_ + SimTime::nanos(1)};
  }
  const Segment& s = *it;
  const double total = (s.end - s.begin).sec();
  return {Vec2{(s.to.x - s.from.x) / total, (s.to.y - s.from.y) / total},
          s.end};
}

}  // namespace fhmip
