#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/messages.hpp"
#include "sim/time.hpp"

namespace fhmip {

/// How an inter-AR handover attempt ended.
enum class HandoverOutcome : std::uint8_t {
  /// The full anticipated choreography ran: RtSolPr+BI answered, FBU sent
  /// on the old link before the blackout.
  kPredictive = 0,
  /// The anticipated path broke down (or was disabled) and the FBU went
  /// via the new link after attachment (§2.3.2), acknowledged by an FBack.
  kReactive = 1,
  /// Even the reactive FBU retries exhausted without an FBack: the host
  /// reattached but no redirection was established by the fast-handover
  /// machinery (traffic resumes only via the binding update).
  kFailed = 2,
};

/// Why a non-predictive outcome happened (kNone for clean predictive runs).
enum class HandoverCause : std::uint8_t {
  kNone = 0,
  /// Anticipation disabled by configuration (cfg.anticipate = false).
  kNotAnticipated = 1,
  /// RtSolPr retries exhausted without a PrRtAdv.
  kNoPrRtAdv = 2,
  /// Anticipated, but the predisconnect window was missed (trigger arrived
  /// for a different target than the one the radio switched to).
  kTargetChanged = 3,
  /// Reactive FBU retries exhausted without an FBack (kFailed attempts).
  kNoFback = 4,
  /// The per-attempt liveness watchdog expired with the choreography wedged
  /// (no retransmission timer left to make progress) and tore it down.
  kWatchdog = 5,
};

const char* to_string(HandoverOutcome o);
const char* to_string(HandoverCause c);
inline constexpr int kNumHandoverOutcomes = 3;
inline constexpr int kNumHandoverCauses = 6;

/// Per-attempt latency decomposition, produced by the handover timeline
/// (src/obs/timeline.hpp). A span is only meaningful when its `has_` flag is
/// set: e.g. a reactive attempt has no anticipation span, a predictive one
/// whose radio never dropped has no blackout.
struct PhaseBreakdown {
  SimTime anticipation;  // L2 trigger -> PrRtAdv received
  SimTime fbu_fback;     // first FBU sent -> FBack received
  SimTime blackout;      // L2 detach -> L2 attach
  SimTime total;         // attempt start -> resolution
  bool has_anticipation = false;
  bool has_fbu_fback = false;
  bool has_blackout = false;
  bool has_total = false;  // false when no timeline observed the attempt
};

namespace obs {
class HandoverTimeline;
struct HoAttempt;
}  // namespace obs

/// Per-attempt handover outcomes for scenarios and benches to report
/// success rates under fault sweeps: a read-only view over the attempts the
/// simulation's handover timeline resolved (src/obs/timeline.hpp), which is
/// the one per-attempt record. Agents resolve attempts there, never here.
class HandoverOutcomeRecorder {
 public:
  explicit HandoverOutcomeRecorder(const obs::HandoverTimeline& timeline)
      : timeline_(&timeline) {}

  std::uint64_t attempts() const;
  std::uint64_t count(HandoverOutcome o) const;
  std::uint64_t count(HandoverCause c) const;
  /// Predictive + reactive attempts (the host recovered redirection).
  std::uint64_t completed() const {
    return count(HandoverOutcome::kPredictive) +
           count(HandoverOutcome::kReactive);
  }
  /// completed / attempts in [0, 1]; 1 when no attempts were made.
  double success_rate() const;

  const std::vector<obs::HoAttempt>& history() const;

  /// Aligned text table with one row per outcome and per cause — the
  /// "outcome stats table" benches print alongside the paper figures.
  std::string format_table(const std::string& title) const;

 private:
  const obs::HandoverTimeline* timeline_;
};

}  // namespace fhmip
