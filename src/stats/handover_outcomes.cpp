#include "stats/handover_outcomes.hpp"

#include <cstdio>

#include "obs/timeline.hpp"

namespace fhmip {

const char* to_string(HandoverOutcome o) {
  switch (o) {
    case HandoverOutcome::kPredictive:
      return "predictive";
    case HandoverOutcome::kReactive:
      return "reactive";
    case HandoverOutcome::kFailed:
      return "failed";
  }
  return "?";
}

const char* to_string(HandoverCause c) {
  switch (c) {
    case HandoverCause::kNone:
      return "none";
    case HandoverCause::kNotAnticipated:
      return "not-anticipated";
    case HandoverCause::kNoPrRtAdv:
      return "no-prrtadv";
    case HandoverCause::kTargetChanged:
      return "target-changed";
    case HandoverCause::kNoFback:
      return "no-fback";
    case HandoverCause::kWatchdog:
      return "watchdog";
  }
  return "?";
}

std::uint64_t HandoverOutcomeRecorder::attempts() const {
  return timeline_->attempts().size();
}

std::uint64_t HandoverOutcomeRecorder::count(HandoverOutcome o) const {
  std::uint64_t n = 0;
  for (const obs::HoAttempt& a : timeline_->attempts())
    if (a.outcome == o) ++n;
  return n;
}

std::uint64_t HandoverOutcomeRecorder::count(HandoverCause c) const {
  std::uint64_t n = 0;
  for (const obs::HoAttempt& a : timeline_->attempts())
    if (a.cause == c) ++n;
  return n;
}

double HandoverOutcomeRecorder::success_rate() const {
  if (attempts() == 0) return 1.0;
  return static_cast<double>(completed()) /
         static_cast<double>(attempts());
}

const std::vector<obs::HoAttempt>& HandoverOutcomeRecorder::history() const {
  return timeline_->attempts();
}

std::string HandoverOutcomeRecorder::format_table(
    const std::string& title) const {
  char line[128];
  std::string out = title + "\n";
  std::snprintf(line, sizeof(line), "  %-18s %8llu\n", "attempts",
                static_cast<unsigned long long>(attempts()));
  out += line;
  for (int i = 0; i < kNumHandoverOutcomes; ++i) {
    std::snprintf(line, sizeof(line), "  %-18s %8llu\n",
                  to_string(static_cast<HandoverOutcome>(i)),
                  static_cast<unsigned long long>(
                      count(static_cast<HandoverOutcome>(i))));
    out += line;
  }
  for (int i = 0; i < kNumHandoverCauses; ++i) {
    std::snprintf(line, sizeof(line), "  cause/%-12s %8llu\n",
                  to_string(static_cast<HandoverCause>(i)),
                  static_cast<unsigned long long>(
                      count(static_cast<HandoverCause>(i))));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-18s %7.2f%%\n", "success rate",
                100.0 * success_rate());
  out += line;
  // Mean per-phase latencies over the attempts that exhibited the phase.
  struct Span {
    const char* name;
    double sum_ms = 0;
    std::uint64_t n = 0;
  } spans[4] = {{"anticipation"}, {"fbu-fback"}, {"blackout"}, {"total"}};
  for (const obs::HoAttempt& a : history()) {
    if (a.phases.has_anticipation) {
      spans[0].sum_ms += a.phases.anticipation.millis_f();
      ++spans[0].n;
    }
    if (a.phases.has_fbu_fback) {
      spans[1].sum_ms += a.phases.fbu_fback.millis_f();
      ++spans[1].n;
    }
    if (a.phases.has_blackout) {
      spans[2].sum_ms += a.phases.blackout.millis_f();
      ++spans[2].n;
    }
    if (a.phases.has_total) {
      spans[3].sum_ms += a.phases.total.millis_f();
      ++spans[3].n;
    }
  }
  for (const auto& s : spans) {
    if (s.n == 0) continue;
    std::snprintf(line, sizeof(line), "  phase/%-12s %7.2fms (n=%llu)\n",
                  s.name, s.sum_ms / static_cast<double>(s.n),
                  static_cast<unsigned long long>(s.n));
    out += line;
  }
  return out;
}

}  // namespace fhmip
