#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// Packet-level trace events, the equivalent of ns-2's trace file. Disabled
/// (and free) unless a sink is attached.
enum class TraceKind {
  kCreate,        // packet stamped with a uid (make_packet / clone)
  kTransmit,      // serialization onto a link began
  kDeliver,       // handed to the receiving node
  kForward,       // routed through a node
  kLocalDeliver,  // consumed at its destination node
  kBufferEnter,   // parked in a handoff buffer
  kBufferExit,    // released from a handoff buffer (drain/evict/flush)
  kDiscard,       // destroyed without flow accounting (unclaimed control)
  kDrop,          // died, with a DropReason
};

const char* to_string(TraceKind kind);

struct TraceEvent {
  SimTime at;
  TraceKind kind = TraceKind::kTransmit;
  /// Name of the link or node where the event happened. Points at storage
  /// owned by that component; copy if retained past its lifetime.
  const char* where = "";
  std::uint64_t uid = 0;
  FlowId flow = kNoFlow;
  std::uint32_t seq = 0;
  std::uint32_t bytes = 0;
  const char* msg = "";  // message-type name ("data", "FBU", ...)
  /// Set for kDrop (and optionally kBufferExit when the exit is itself a
  /// drop); empty for every other kind, so sinks cannot misread a stale
  /// reason on non-drop events.
  std::optional<DropReason> reason;
};

/// ns-2-flavoured one-line rendering:
///   "d 11.312000 par data uid 42 flow 1 seq 917 160B (unattached)".
/// Robust to out-of-range enum values (renders "?").
std::string format_trace_line(const TraceEvent& e);

/// Trace hub owned by the Simulation. `emit` is called from the packet
/// pipeline; with no sink attached it is a branch and a return. Several
/// sinks can be attached at once (file writer + ledger + test collector);
/// each emitted event fans out to all of them in attachment order.
class PacketTrace {
 public:
  using Sink = std::function<void(const TraceEvent&)>;
  using SinkId = std::uint32_t;
  static constexpr SinkId kNoSink = 0;

  /// Attaches a sink and returns its id for later removal.
  SinkId add_sink(Sink sink) {
    sinks_.emplace_back(next_id_, std::move(sink));
    return next_id_++;
  }

  /// Detaches one sink; unknown ids are ignored.
  void remove_sink(SinkId id) {
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (sinks_[i].first == id) {
        sinks_.erase(sinks_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  bool enabled() const { return !sinks_.empty(); }
  std::size_t sink_count() const { return sinks_.size(); }

  void emit(const TraceEvent& e) {
    // Index loop: a sink may add/remove sinks while handling an event.
    for (std::size_t i = 0; i < sinks_.size(); ++i) sinks_[i].second(e);
  }

 private:
  std::vector<std::pair<SinkId, Sink>> sinks_;
  SinkId next_id_ = 1;
};

}  // namespace fhmip
