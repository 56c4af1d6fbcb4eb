#include "wireless/mobility.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace fhmip {
namespace {

using namespace timeliterals;

// Checks the leg() contract at `t`: position(t + dt) == position(t) +
// vel * dt for dt across [0, until - t), sampled at both ends and inside
// (a leg that never ends is sampled over its first 1000 s).
void ExpectLegHolds(const MobilityModel& m, SimTime t) {
  const Leg leg = m.leg(t);
  ASSERT_GE(leg.until, t);
  const Vec2 p = m.position(t);
  const std::int64_t span =
      std::min<std::int64_t>((leg.until - t).ns(), SimTime::seconds(1000).ns());
  for (const std::int64_t dt_ns :
       {std::int64_t{0}, std::int64_t{1}, span / 3, span / 2, span - 1}) {
    if (dt_ns < 0 || dt_ns >= span) continue;
    const SimTime dt = SimTime::nanos(dt_ns);
    const Vec2 q = m.position(t + dt);
    EXPECT_NEAR(q.x, p.x + leg.vel.x * dt.sec(), 1e-9)
        << "t=" << t.to_string() << " dt=" << dt.to_string();
    EXPECT_NEAR(q.y, p.y + leg.vel.y * dt.sec(), 1e-9)
        << "t=" << t.to_string() << " dt=" << dt.to_string();
  }
}

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(StaticPosition, NeverMoves) {
  StaticPosition m({5, 6});
  EXPECT_EQ(m.position(0_s), (Vec2{5, 6}));
  EXPECT_EQ(m.position(100_s), (Vec2{5, 6}));
}

TEST(LinearMobility, MovesAtConstantVelocity) {
  LinearMobility m({0, 0}, {10, 0});
  EXPECT_EQ(m.position(0_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(1_s), (Vec2{10, 0}));
  EXPECT_EQ(m.position(2500_ms), (Vec2{25, 0}));
}

TEST(LinearMobility, HoldsBeforeStartTime) {
  LinearMobility m({0, 0}, {10, 0}, 5_s);
  EXPECT_EQ(m.position(0_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(5_s), (Vec2{0, 0}));
  EXPECT_EQ(m.position(6_s), (Vec2{10, 0}));
}

TEST(LinearMobility, DiagonalMotion) {
  LinearMobility m({0, 0}, {3, 4});
  const Vec2 p = m.position(2_s);
  EXPECT_DOUBLE_EQ(p.x, 6);
  EXPECT_DOUBLE_EQ(p.y, 8);
}

TEST(BounceMobility, ReachesFarEndAtLegDuration) {
  BounceMobility m({0, 0}, {212, 0}, 10.0);
  EXPECT_EQ(m.leg_duration(), SimTime::from_seconds(21.2));
  const Vec2 far = m.position(SimTime::from_seconds(21.2));
  EXPECT_NEAR(far.x, 212, 1e-6);
}

TEST(BounceMobility, ReturnsToStart) {
  BounceMobility m({0, 0}, {212, 0}, 10.0);
  const Vec2 back = m.position(SimTime::from_seconds(42.4));
  EXPECT_NEAR(back.x, 0, 1e-6);
}

TEST(BounceMobility, MidLegPositions) {
  BounceMobility m({0, 0}, {100, 0}, 10.0);
  EXPECT_NEAR(m.position(5_s).x, 50, 1e-9);
  // 15 s = 10 s out (at 100) + 5 s back -> 50.
  EXPECT_NEAR(m.position(15_s).x, 50, 1e-9);
  // Second cycle repeats.
  EXPECT_NEAR(m.position(25_s).x, 50, 1e-9);
}

TEST(BounceMobility, HoldsBeforeStart) {
  BounceMobility m({7, 0}, {100, 0}, 10.0, 2_s);
  EXPECT_EQ(m.position(1_s), (Vec2{7, 0}));
}

TEST(BounceMobility, DegenerateEndpointsStayPut) {
  BounceMobility m({5, 5}, {5, 5}, 10.0);
  EXPECT_EQ(m.position(99_s), (Vec2{5, 5}));
}

TEST(WaypointMobility, FollowsLegsAndStops) {
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}, {{10, 20}, 5.0}});
  EXPECT_NEAR(m.position(500_ms).x, 5, 1e-9);   // halfway leg 1 (1 s total)
  EXPECT_NEAR(m.position(1_s).x, 10, 1e-9);
  EXPECT_NEAR(m.position(3_s).y, 10, 1e-9);     // halfway leg 2 (4 s total)
  EXPECT_EQ(m.position(100_s), (Vec2{10, 20}));  // parked at the end
}

TEST(WaypointMobility, EmptyLegsStayAtStart) {
  WaypointMobility m({3, 4}, {});
  EXPECT_EQ(m.position(10_s), (Vec2{3, 4}));
}

TEST(WaypointMobility, ManyLegsSampleExactlyAtSegmentBoundaries) {
  // A long walk exercises the binary search over segments: samples on,
  // just before, and just after every boundary must land on the same
  // positions the linear scan produced (a segment owns [start, end)).
  std::vector<WaypointMobility::Leg> legs;
  for (int i = 1; i <= 64; ++i) {
    legs.push_back({{static_cast<double>(10 * i), 0}, 10.0});  // 1 s per leg
  }
  WaypointMobility m({0, 0}, legs);
  for (int i = 1; i <= 64; ++i) {
    const SimTime boundary = SimTime::seconds(i);
    EXPECT_NEAR(m.position(boundary).x, 10.0 * i, 1e-9) << "leg " << i;
    EXPECT_NEAR(m.position(boundary - 1_ms).x, 10.0 * i - 0.01, 1e-9);
    if (i < 64) {
      EXPECT_NEAR(m.position(boundary + 1_ms).x, 10.0 * i + 0.01, 1e-9);
    }
  }
  EXPECT_EQ(m.position(1000_s), (Vec2{640, 0}));  // parked past the end
}

TEST(WaypointMobility, StartOffsetShiftsSchedule) {
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}}, 2_s);
  EXPECT_EQ(m.position(1_s), (Vec2{0, 0}));
  EXPECT_NEAR(m.position(2500_ms).x, 5, 1e-9);
}

TEST(MobilityLeg, StaticIsStillForever) {
  StaticPosition m({5, 6});
  const Leg leg = m.leg(3_s);
  EXPECT_EQ(leg.vel, (Vec2{0, 0}));
  EXPECT_EQ(leg.until, kForever);
  ExpectLegHolds(m, 3_s);
}

TEST(MobilityLeg, LinearHoldsUntilStartThenMovesForever) {
  LinearMobility m({1, 2}, {3, -4}, 5_s);
  const Leg before = m.leg(1_s);
  EXPECT_EQ(before.vel, (Vec2{0, 0}));
  EXPECT_EQ(before.until, 5_s);
  const Leg after = m.leg(5_s);
  EXPECT_EQ(after.vel, (Vec2{3, -4}));
  EXPECT_EQ(after.until, kForever);
  for (const SimTime t : {0_s, 1_s, 4999_ms, 5_s, 7_s}) ExpectLegHolds(m, t);
}

TEST(MobilityLeg, BounceLegsEndAtTurnarounds) {
  BounceMobility m({0, 0}, {100, 0}, 10.0, 2_s);  // 10 s per half-leg
  const Leg before = m.leg(1_s);
  EXPECT_EQ(before.vel, (Vec2{0, 0}));
  EXPECT_EQ(before.until, 2_s);
  const Leg out = m.leg(5_s);
  EXPECT_NEAR(out.vel.x, 10, 1e-12);
  EXPECT_LE(out.until, 12_s);
  EXPECT_GE(out.until, 12_s - 1_ns);
  // At the far end the motion from there on is the way back.
  const Leg back = m.leg(12_s);
  EXPECT_NEAR(back.vel.x, -10, 1e-12);
  EXPECT_LE(back.until, 22_s);
  EXPECT_GE(back.until, 22_s - 1_ns);
  const Leg again = m.leg(22_s);
  EXPECT_NEAR(again.vel.x, 10, 1e-12);
  for (std::int64_t ms = 0; ms <= 45'000; ms += 250) {
    ExpectLegHolds(m, SimTime::millis(ms));
  }
  for (const SimTime t : {12_s - 1_ns, 12_s, 12_s + 1_ns, 22_s - 1_ns,
                          22_s + 1_ns}) {
    ExpectLegHolds(m, t);
  }
}

TEST(MobilityLeg, BounceWithOddSpeedStaysOnEachHalfLeg) {
  BounceMobility m({3, -7}, {215, 41}, 9.7);
  for (std::int64_t ms = 0; ms <= 120'000; ms += 370) {
    ExpectLegHolds(m, SimTime::millis(ms));
  }
}

TEST(MobilityLeg, BounceDegenerateEndpointsAreStill) {
  BounceMobility m({5, 5}, {5, 5}, 10.0);
  const Leg leg = m.leg(99_s);
  EXPECT_EQ(leg.vel, (Vec2{0, 0}));
  EXPECT_EQ(leg.until, kForever);
  BounceMobility parked({0, 0}, {10, 0}, 0.0);
  EXPECT_EQ(parked.leg(1_s).until, kForever);
  ExpectLegHolds(parked, 1_s);
}

TEST(MobilityLeg, WaypointSegmentsBoundariesAndEnd) {
  // 1 s east, 4 s north, then parked at (10, 20).
  WaypointMobility m({0, 0}, {{{10, 0}, 10.0}, {{10, 20}, 5.0}}, 2_s);
  const Leg before = m.leg(1_s);
  EXPECT_EQ(before.vel, (Vec2{0, 0}));
  EXPECT_EQ(before.until, 2_s);
  const Leg first = m.leg(2_s);
  EXPECT_NEAR(first.vel.x, 10, 1e-12);
  EXPECT_EQ(first.until, 3_s);
  // A segment owns [begin, end): its end is the next segment's start.
  const Leg second = m.leg(3_s);
  EXPECT_NEAR(second.vel.y, 5, 1e-12);
  EXPECT_EQ(second.until, 7_s);
  const Leg parked = m.leg(7_s);
  EXPECT_EQ(parked.vel, (Vec2{0, 0}));
  EXPECT_EQ(parked.until, kForever);
  for (const SimTime t : {0_s, 1999_ms, 2_s, 2500_ms, 3_s - 1_ns, 3_s,
                          6999_ms, 7_s, 100_s}) {
    ExpectLegHolds(m, t);
  }
}

TEST(MobilityLeg, WaypointZeroLengthSegmentsJump) {
  // A zero-speed leg is a jump; an opening one makes position() leave the
  // start just after t0.
  WaypointMobility m({0, 0},
                     {{{50, 0}, 0.0}, {{60, 0}, 10.0}, {{0, 0}, 0.0},
                      {{0, 10}, 5.0}},
                     1_s);
  const Leg at_t0 = m.leg(1_s);
  EXPECT_EQ(at_t0.vel, (Vec2{0, 0}));
  EXPECT_EQ(at_t0.until, 1_s + 1_ns);
  const Leg moving = m.leg(1_s + 1_ns);
  EXPECT_NEAR(moving.vel.x, 10, 1e-12);
  EXPECT_EQ(moving.until, 2_s);
  EXPECT_EQ(m.position(2_s), (Vec2{0, 0}));  // jumped back at 2 s
  const Leg north = m.leg(2_s);
  EXPECT_NEAR(north.vel.y, 5, 1e-12);
  EXPECT_EQ(north.until, 4_s);
  for (const SimTime t : {0_s, 1_s, 1_s + 1_ns, 1500_ms, 2_s - 1_ns, 2_s,
                          3_s, 4_s, 9_s}) {
    ExpectLegHolds(m, t);
  }
}

TEST(MobilityLeg, WaypointWithoutLegsIsStill) {
  WaypointMobility m({3, 4}, {});
  EXPECT_EQ(m.leg(10_s).until, kForever);
  ExpectLegHolds(m, 10_s);
}

}  // namespace
}  // namespace fhmip
