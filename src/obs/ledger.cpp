#include "obs/ledger.hpp"

#include <cstdio>

#include "sim/check.hpp"
#include "sim/simulation.hpp"

namespace fhmip::obs {

std::uint64_t LedgerSnapshot::dropped_total() const {
  std::uint64_t n = 0;
  for (int i = 0; i < kNumDropReasons; ++i) n += drops[i];
  return n;
}

std::int64_t LedgerSnapshot::in_flight() const {
  return static_cast<std::int64_t>(created) -
         static_cast<std::int64_t>(consumed) -
         static_cast<std::int64_t>(discarded) -
         static_cast<std::int64_t>(dropped_total()) -
         static_cast<std::int64_t>(in_buffer());
}

PacketLedger::PacketLedger(Simulation& sim, bool track_uids)
    : sim_(sim), track_uids_(track_uids) {
  sink_id_ =
      sim_.trace().add_sink([this](const TraceEvent& e) { on_event(e); });
}

PacketLedger::~PacketLedger() { sim_.trace().remove_sink(sink_id_); }

void PacketLedger::violation([[maybe_unused]] const TraceEvent& e,
                             [[maybe_unused]] const char* what) {
  ++violations_;
  [[maybe_unused]] constexpr bool packet_ledger_state_ok = false;
  FHMIP_AUDIT_MSG("obs", packet_ledger_state_ok,
                  std::string(what) + ": " + format_trace_line(e));
}

void PacketLedger::on_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceKind::kCreate: {
      ++agg_.created;
      if (!track_uids_) break;
      auto [it, inserted] = live_.emplace(e.uid, UidState::kLive);
      if (!inserted) violation(e, "uid created twice");
      break;
    }
    case TraceKind::kBufferEnter: {
      ++agg_.buffer_enters;
      if (!track_uids_) break;
      auto it = live_.find(e.uid);
      if (it == live_.end()) break;  // pre-attachment packet, untracked
      if (it->second != UidState::kLive)
        violation(e, "buffer enter while already buffered");
      it->second = UidState::kBuffered;
      break;
    }
    case TraceKind::kBufferExit: {
      ++agg_.buffer_exits;
      if (!track_uids_) break;
      auto it = live_.find(e.uid);
      if (it == live_.end()) break;
      if (it->second != UidState::kBuffered)
        violation(e, "buffer exit without matching enter");
      it->second = UidState::kLive;
      break;
    }
    case TraceKind::kLocalDeliver:
    case TraceKind::kDiscard:
    case TraceKind::kDrop: {
      if (e.kind == TraceKind::kLocalDeliver) {
        ++agg_.consumed;
      } else if (e.kind == TraceKind::kDiscard) {
        ++agg_.discarded;
      } else {
        if (!e.reason.has_value()) {
          violation(e, "drop without a reason");
          break;
        }
        int r = static_cast<int>(*e.reason);
        if (r < 0 || r >= kNumDropReasons) {
          violation(e, "drop with out-of-range reason");
          break;
        }
        ++agg_.drops[r];
      }
      if (!track_uids_) break;
      auto it = live_.find(e.uid);
      if (it == live_.end()) break;
      if (it->second == UidState::kBuffered)
        violation(e, "terminal event while buffered (missing buffer exit)");
      live_.erase(it);
      break;
    }
    case TraceKind::kTransmit:
    case TraceKind::kDeliver:
    case TraceKind::kForward:
      break;  // movement, not a ledger transition
  }
}

bool PacketLedger::balanced() const {
  return violations_ == 0 && agg_.buffer_exits <= agg_.buffer_enters &&
         agg_.in_flight() >= 0;
}

void PacketLedger::audit([[maybe_unused]] const char* where) const {
  FHMIP_AUDIT_MSG("obs", balanced(),
                  std::string("packet ledger unbalanced at ") + where + "\n" +
                      format());
}

void PacketLedger::audit_final([[maybe_unused]] const char* where) const {
  FHMIP_AUDIT_MSG(
      "obs", balanced() && in_flight() == 0 && in_buffer() == 0,
      std::string("packet ledger not fully drained at ") + where + "\n" +
          format());
}

std::string PacketLedger::format() const {
  char line[96];
  std::string out;
  auto add = [&](const char* name, long long v) {
    std::snprintf(line, sizeof(line), "  %-22s %lld\n", name, v);
    out += line;
  };
  add("created", static_cast<long long>(agg_.created));
  add("consumed", static_cast<long long>(agg_.consumed));
  add("discarded", static_cast<long long>(agg_.discarded));
  add("dropped", static_cast<long long>(agg_.dropped_total()));
  for (int i = 0; i < kNumDropReasons; ++i) {
    if (agg_.drops[i] == 0) continue;
    std::string name = std::string("  drop/") +
                       to_string(static_cast<DropReason>(i));
    add(name.c_str(), static_cast<long long>(agg_.drops[i]));
  }
  add("in_buffer", static_cast<long long>(agg_.in_buffer()));
  add("in_flight", static_cast<long long>(agg_.in_flight()));
  add("violations", static_cast<long long>(violations_));
  return out;
}

}  // namespace fhmip::obs
