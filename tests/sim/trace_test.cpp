#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(PacketTrace, DisabledByDefault) {
  PacketTrace t;
  EXPECT_FALSE(t.enabled());
  t.emit(TraceEvent{});  // harmless no-op
}

TEST(PacketTrace, SinkReceivesEmittedEvents) {
  PacketTrace t;
  int count = 0;
  const auto id = t.add_sink([&](const TraceEvent&) { ++count; });
  EXPECT_TRUE(t.enabled());
  t.emit(TraceEvent{});
  t.emit(TraceEvent{});
  t.remove_sink(id);
  t.emit(TraceEvent{});
  EXPECT_EQ(count, 2);
}

TEST(PacketTrace, FormatLineContainsFields) {
  TraceEvent e;
  e.at = SimTime::from_seconds(11.312);
  e.kind = TraceKind::kDrop;
  e.where = "par";
  e.uid = 42;
  e.flow = 1;
  e.seq = 917;
  e.bytes = 160;
  e.msg = "data";
  e.reason = DropReason::kUnattached;
  const std::string line = format_trace_line(e);
  EXPECT_NE(line.find("d 11.312000"), std::string::npos);
  EXPECT_NE(line.find("par"), std::string::npos);
  EXPECT_NE(line.find("uid 42"), std::string::npos);
  EXPECT_NE(line.find("seq 917"), std::string::npos);
  EXPECT_NE(line.find("(unattached)"), std::string::npos);
}

TEST(PacketTrace, NonDropFormatOmitsReason) {
  TraceEvent e;
  e.kind = TraceKind::kDeliver;
  e.where = "cn-gw>";
  e.msg = "data";
  const std::string line = format_trace_line(e);
  EXPECT_EQ(line.find('('), std::string::npos);
  EXPECT_EQ(line.substr(0, 1), "r");
}

/// End-to-end: a two-node network emits transmit/deliver/forward events.
TEST(PacketTrace, PipelineEmitsLifecycleEvents) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.add_address({1, 1});
  b.add_address({2, 1});
  net.connect(a, b, 1e6, 1_ms);
  net.compute_routes();
  b.register_port(7, [](PacketPtr) {});

  std::vector<TraceEvent> events;
  sim.trace().add_sink([&](const TraceEvent& e) { events.push_back(e); });

  auto p = make_packet(sim, {1, 1}, {2, 1}, 100);
  p->dst_port = 7;
  p->flow = 3;
  a.send(std::move(p));
  sim.run();

  auto count = [&](TraceKind k) {
    int n = 0;
    for (const auto& e : events) {
      if (e.kind == k) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(TraceKind::kForward), 1);       // routed at a
  EXPECT_EQ(count(TraceKind::kTransmit), 1);      // onto the a->b link
  EXPECT_EQ(count(TraceKind::kDeliver), 1);       // off the link at b
  EXPECT_EQ(count(TraceKind::kLocalDeliver), 1);  // consumed at b
  for (const auto& e : events) {
    EXPECT_EQ(e.flow, 3);
    EXPECT_EQ(e.bytes, 100u);
  }
  // Chronological.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
}

TEST(PacketTrace, DropEventsCarryReason) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node("a");
  a.add_address({1, 1});
  std::vector<TraceEvent> events;
  sim.trace().add_sink([&](const TraceEvent& e) { events.push_back(e); });
  auto p = make_packet(sim, {1, 1}, {9, 9}, 100);  // no route
  p->flow = 1;
  a.send(std::move(p));
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceKind::kDrop);
  EXPECT_EQ(events[0].reason, DropReason::kNoRoute);
}

}  // namespace
}  // namespace fhmip
