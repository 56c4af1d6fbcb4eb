#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/trace_file.hpp"
#include "sim/check.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace fhmip {
namespace {

TraceEvent make_event(TraceKind kind, std::uint64_t uid,
                      std::optional<DropReason> reason = {}) {
  TraceEvent e;
  e.at = SimTime::millis(1500);
  e.kind = kind;
  e.where = "par";
  e.uid = uid;
  e.flow = 1;
  e.seq = 9;
  e.bytes = 160;
  e.msg = "data";
  e.reason = reason;
  return e;
}

// ---------------------------------------------------------------------------
// format_trace_line robustness (the TraceEvent::reason redesign).
// ---------------------------------------------------------------------------

TEST(FormatTraceLine, DropCarriesItsReason) {
  const TraceEvent e = make_event(TraceKind::kDrop, 42,
                                  DropReason::kWirelessDown);
  EXPECT_EQ(format_trace_line(e),
            "d 1.500000 par data uid 42 flow 1 seq 9 160B (wireless-down)");
}

TEST(FormatTraceLine, NonDropEventsCarryNoStaleReason) {
  // TraceEvent::reason is optional: non-drop events must not render a
  // reason suffix at all (the old design leaked a default-constructed one).
  const TraceEvent e = make_event(TraceKind::kDeliver, 7);
  EXPECT_FALSE(e.reason.has_value());
  EXPECT_EQ(format_trace_line(e),
            "r 1.500000 par data uid 7 flow 1 seq 9 160B");
}

TEST(FormatTraceLine, RobustToHandBuiltEvents) {
  TraceEvent e;  // everything defaulted
  e.at = SimTime{};
  e.where = nullptr;  // hand-built events may point nowhere
  e.msg = nullptr;
  e.kind = static_cast<TraceKind>(250);  // out-of-range enum
  e.reason = static_cast<DropReason>(199);
  const std::string line = format_trace_line(e);
  EXPECT_EQ(line.substr(0, 1), "?");
  EXPECT_NE(line.find(" ? ? "), std::string::npos);  // where/msg placeholders
  EXPECT_NE(line.find("(?)"), std::string::npos);    // unknown reason
}

// ---------------------------------------------------------------------------
// Multi-sink fan-out on the trace hub.
// ---------------------------------------------------------------------------

TEST(PacketTrace, FansOutToEverySinkInAttachmentOrder) {
  PacketTrace trace;
  EXPECT_FALSE(trace.enabled());
  std::vector<int> order;
  const auto a = trace.add_sink([&](const TraceEvent&) { order.push_back(1); });
  trace.add_sink([&](const TraceEvent&) { order.push_back(2); });
  EXPECT_TRUE(trace.enabled());
  EXPECT_EQ(trace.sink_count(), 2u);
  trace.emit(make_event(TraceKind::kCreate, 1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  trace.remove_sink(a);
  order.clear();
  trace.emit(make_event(TraceKind::kCreate, 2));
  EXPECT_EQ(order, (std::vector<int>{2}));
  trace.remove_sink(12345);  // unknown ids are ignored
  EXPECT_EQ(trace.sink_count(), 1u);
}

TEST(PacketTrace, SinkMayDetachItselfWhileHandlingAnEvent) {
  PacketTrace trace;
  int calls = 0;
  PacketTrace::SinkId self = PacketTrace::kNoSink;
  self = trace.add_sink([&](const TraceEvent&) {
    ++calls;
    trace.remove_sink(self);
  });
  trace.emit(make_event(TraceKind::kCreate, 1));
  trace.emit(make_event(TraceKind::kCreate, 2));
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(trace.enabled());
}

// ---------------------------------------------------------------------------
// TraceFileWriter: the ns-2 "trace file" affordance.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TraceFileWriter, WritesFilteredLinesAndDetachesOnDestruction) {
  Simulation sim;
  const std::string path = testing::TempDir() + "fhmip_trace_test.tr";
  {
    obs::TraceFileWriter writer(sim, path, [](const TraceEvent& e) {
      return e.kind == TraceKind::kDrop;
    });
    EXPECT_EQ(sim.trace().sink_count(), 1u);
    sim.trace().emit(make_event(TraceKind::kCreate, 1));  // filtered out
    sim.trace().emit(
        make_event(TraceKind::kDrop, 1, DropReason::kQueueOverflow));
    EXPECT_EQ(writer.lines_written(), 1u);
    EXPECT_EQ(writer.path(), path);
  }
  EXPECT_EQ(sim.trace().sink_count(), 0u);  // detached
  EXPECT_EQ(slurp(path),
            "d 1.500000 par data uid 1 flow 1 seq 9 160B (queue-overflow)\n");
  std::remove(path.c_str());
}

TEST(TraceFileWriter, EmptyFilterAcceptsEverything) {
  Simulation sim;
  const std::string path = testing::TempDir() + "fhmip_trace_all.tr";
  {
    obs::TraceFileWriter writer(sim, path);
    sim.trace().emit(make_event(TraceKind::kCreate, 1));
    sim.trace().emit(make_event(TraceKind::kLocalDeliver, 1));
    EXPECT_EQ(writer.lines_written(), 2u);
  }
  std::remove(path.c_str());
}

TEST(TraceFileWriter, UnopenablePathThrows) {
  Simulation sim;
  EXPECT_THROW(
      obs::TraceFileWriter(sim, "/nonexistent-dir-xyzzy/trace.tr"),
      std::runtime_error);
  EXPECT_EQ(sim.trace().sink_count(), 0u);  // nothing left attached
}

// ---------------------------------------------------------------------------
// PacketLedger unit behaviour on hand-emitted events.
// ---------------------------------------------------------------------------

TEST(PacketLedger, ConservationIdentityOnAHandRolledLifecycle) {
  Simulation sim;
  obs::PacketLedger ledger(sim);
  auto emit = [&](TraceKind k, std::uint64_t uid,
                  std::optional<DropReason> r = {}) {
    sim.trace().emit(make_event(k, uid, r));
  };
  emit(TraceKind::kCreate, 1);
  emit(TraceKind::kCreate, 2);
  emit(TraceKind::kCreate, 3);
  emit(TraceKind::kTransmit, 1);  // movement: no ledger transition
  emit(TraceKind::kBufferEnter, 2);
  EXPECT_EQ(ledger.in_buffer(), 1u);
  EXPECT_EQ(ledger.in_flight(), 2);
  EXPECT_TRUE(ledger.balanced());

  emit(TraceKind::kLocalDeliver, 1);
  emit(TraceKind::kBufferExit, 2);
  emit(TraceKind::kLocalDeliver, 2);
  emit(TraceKind::kDrop, 3, DropReason::kWirelessDown);
  EXPECT_EQ(ledger.created(), 3u);
  EXPECT_EQ(ledger.consumed(), 2u);
  EXPECT_EQ(ledger.dropped(DropReason::kWirelessDown), 1u);
  EXPECT_EQ(ledger.dropped_total(), 1u);
  EXPECT_EQ(ledger.in_buffer(), 0u);
  EXPECT_EQ(ledger.in_flight(), 0);
  EXPECT_EQ(ledger.violations(), 0u);
  EXPECT_TRUE(ledger.balanced());
  ledger.audit("unit");        // must not fire
  ledger.audit_final("unit");  // fully drained
  const std::string fmt = ledger.format();
  EXPECT_NE(fmt.find("created"), std::string::npos);
  EXPECT_NE(fmt.find("drop/wireless-down"), std::string::npos);
}

// Expects the ledger's audits to fire, so it needs audits compiled in.
#if FHMIP_AUDIT_LEVEL >= 1
TEST(PacketLedger, PerUidStateMachineCatchesDoubleCreateAndBadPairs) {
  Simulation sim;
  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  obs::PacketLedger ledger(sim);
  auto emit = [&](TraceKind k, std::uint64_t uid,
                  std::optional<DropReason> r = {}) {
    sim.trace().emit(make_event(k, uid, r));
  };
  emit(TraceKind::kCreate, 1);
  emit(TraceKind::kCreate, 1);      // uid created twice
  emit(TraceKind::kBufferExit, 1);  // exit without enter
  emit(TraceKind::kBufferEnter, 1);
  emit(TraceKind::kDrop, 1, DropReason::kFaultInjected);  // terminal while
                                                          // buffered
  emit(TraceKind::kDrop, 2);  // drop without a reason
  EXPECT_EQ(ledger.violations(), 4u);
  EXPECT_FALSE(ledger.balanced());
  EXPECT_EQ(seen.size(), 4u);  // each violation routed through the audit hub
}
#endif

TEST(PacketLedger, UntrackedModeOnlyAggregates) {
  Simulation sim;
  obs::PacketLedger ledger(sim, /*track_uids=*/false);
  sim.trace().emit(make_event(TraceKind::kCreate, 1));
  sim.trace().emit(make_event(TraceKind::kCreate, 1));  // no uid machine
  sim.trace().emit(make_event(TraceKind::kLocalDeliver, 1));
  EXPECT_EQ(ledger.violations(), 0u);
  EXPECT_EQ(ledger.created(), 2u);
  EXPECT_EQ(ledger.consumed(), 1u);
  EXPECT_EQ(ledger.in_flight(), 1);
}

TEST(PacketLedger, DetachesFromTheTraceOnDestruction) {
  Simulation sim;
  {
    obs::PacketLedger ledger(sim);
    EXPECT_TRUE(sim.trace().enabled());
  }
  EXPECT_FALSE(sim.trace().enabled());
}

}  // namespace
}  // namespace fhmip
