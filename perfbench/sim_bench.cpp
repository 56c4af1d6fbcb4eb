// Benchmark binary: one CityTopology simulation per process.
//
//   fhmip_perfbench --workload <name> --seed <n>
//                   --mode <untraced|traced|setup> [--tiny]
//
// Builds the named workload from the seed, runs it to quiesce and prints one
// JSON object on stdout: host timings, the simulated handover and packet
// outcomes, the correctness gate and an outcome fingerprint. `--mode setup`
// stops after set-up and prints only its time. `--mode traced`
// drives the same simulation one Scheduler::step() at a time, times every
// step, and gives each step to one layer by what it did as seen through
// public hooks (packet-trace sink, handover timeline, WLAN handoff counter,
// outcome recorder, and marker events bracketing the WLAN tick). Tracing
// only observes: both modes must print the same fingerprint. run.py
// aggregates repetitions and derives the reported metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/city_topology.hpp"
#include "sim/check.hpp"

using namespace fhmip;
using namespace fhmip::timeliterals;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  CityConfig cfg;
  SimTime end;  // quiesce horizon
};

void common_config(CityConfig& cfg, std::uint64_t seed) {
  cfg.seed = seed;
  cfg.layout = CityConfig::Layout::kGrid;
  cfg.wlan.tick = 20_ms;
  cfg.watchdog = 2_s;
  cfg.scheme.classify = true;
  cfg.scheme.allow_partial_grant = true;
  cfg.population.packet_bytes = 160;
  cfg.population.traffic_start = 1_s;
}

// Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                   Workload& w) {
  CityConfig& cfg = w.cfg;
  common_config(cfg, seed);
  SimTime horizon = 20_s;
  if (name == "city_roam") {
    // scale_population_sweep at N=5000, unchanged.
    cfg.ar_rows = cfg.ar_cols = 16;
    cfg.num_maps = 4;
    cfg.population.num_mhs = 5000;
    cfg.population.speed_min_mps = 5;
    cfg.population.speed_max_mps = 20;
    cfg.population.active_fraction = 0.25;
    cfg.population.flow_kbps = 16;
    cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;
  } else if (name == "city_stream") {
    cfg.ar_rows = cfg.ar_cols = 8;
    cfg.num_maps = 2;
    cfg.population.num_mhs = 600;
    cfg.population.speed_min_mps = 1;
    cfg.population.speed_max_mps = 3;
    cfg.population.active_fraction = 1.0;
    cfg.population.flow_kbps = 128;  // 160 B every 10 ms
    cfg.scheme.pool_pkts = 4000;
    cfg.scheme.request_pkts = 40;
    cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;
  } else if (name == "handover_storm") {
    cfg.ar_rows = cfg.ar_cols = 2;
    cfg.num_maps = 1;
    cfg.population.num_mhs = 300;
    cfg.population.speed_min_mps = 15;
    cfg.population.speed_max_mps = 30;
    cfg.population.active_fraction = 1.0;
    cfg.population.flow_kbps = 64;
    cfg.scheme.pool_pkts = 2000;
    cfg.scheme.request_pkts = 40;
    cfg.scheme.quota_pkts = 2 * cfg.scheme.request_pkts;
    horizon = 60_s;
  } else {
    return false;
  }
  if (tiny) {
    cfg.ar_rows = cfg.ar_cols = std::max(2, cfg.ar_cols / 4);
    cfg.num_maps = std::max(1, cfg.num_maps / 4);
    cfg.population.num_mhs = std::max(20, cfg.population.num_mhs / 25);
    horizon = 4_s;
  }
  cfg.population.horizon = horizon;
  cfg.population.traffic_stop = horizon;
  // Past the last possible lease deadline plus slack beyond the watchdog,
  // as scale_population_sweep quiesces.
  w.end = horizon + cfg.scheme.lifetime + cfg.scheme.lease_grace + 3_s;
  return true;
}

// ---------------------------------------------------------------------------
// Outcomes, gate and fingerprint (identical for both modes)

struct ClassCounts {
  std::uint64_t sent = 0, delivered = 0, dropped = 0;
};

struct Outcome {
  std::uint64_t events = 0;  // scheduler events, benchmark probes excluded
  std::uint64_t handoffs = 0;
  std::uint64_t attempts = 0, predictive = 0, reactive = 0, failed = 0;
  std::uint64_t open_at_quiesce = 0;  // timeline attempts never resolved
  std::array<ClassCounts, 4> by_class{};  // indexed by TrafficClass
  std::vector<double> totals_ms;  // start -> resolution, completed attempts
  std::int64_t totals_ns = 0;     // their exact sum, for the fingerprint
  std::vector<std::string> gate_failures;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

Outcome collect(CityTopology& topo, std::uint64_t events,
                std::uint64_t audits_before) {
  Outcome o;
  Simulation& sim = topo.simulation();
  o.events = events;
  o.handoffs = topo.wlan().handoffs_started();
  const HandoverOutcomeRecorder& rec = topo.outcomes();
  o.attempts = rec.attempts();
  o.predictive = rec.count(HandoverOutcome::kPredictive);
  o.reactive = rec.count(HandoverOutcome::kReactive);
  o.failed = rec.count(HandoverOutcome::kFailed);
  if (o.predictive + o.reactive + o.failed != o.attempts)
    o.gate_failures.push_back("attempt outcomes do not sum to attempts");

  // Resolution is counted per attempt the recorder saw, as
  // scale_population_sweep gates it; the timeline must agree. Timeline
  // attempts still open at quiesce are reported, not gated: a host that
  // drops out of coverage and re-attaches to the same AR opens one that no
  // agent ever resolves.
  const obs::HandoverTimeline& tl = sim.timeline();
  std::map<MhId, std::uint32_t> resolved, latest;
  for (const obs::HoAttempt& a : tl.attempts()) {
    resolved[a.mh] = std::max(resolved[a.mh], a.ordinal);
    if (a.phases.has_total && a.outcome != HandoverOutcome::kFailed) {
      o.totals_ms.push_back(a.phases.total.millis_f());
      o.totals_ns += a.phases.total.ns();
    }
  }
  if (tl.attempts().size() != o.attempts)
    o.gate_failures.push_back("timeline and recorder attempt counts differ");
  for (const obs::HoEventRecord& r : tl.records())
    latest[r.mh] = std::max(latest[r.mh], r.attempt);
  for (const auto& [mh, ordinal] : latest)
    if (ordinal > resolved[mh]) ++o.open_at_quiesce;

  std::uint64_t unbalanced = 0;
  for (std::size_t i = 0; i < topo.num_mobiles(); ++i) {
    const CityTopology::Mobile& m = topo.mobile(i);
    if (m.flow == 0) continue;
    const FlowCounters& fc = sim.stats().flow(m.flow);
    ClassCounts& c = o.by_class.at(static_cast<std::size_t>(m.draw.tclass));
    c.sent += fc.sent;
    c.delivered += fc.delivered;
    c.dropped += fc.dropped;
    if (fc.sent != fc.delivered + fc.dropped) ++unbalanced;
  }
  if (unbalanced != 0)
    o.gate_failures.push_back("per-flow sent != delivered + dropped");
  if (topo.leased_total() != 0)
    o.gate_failures.push_back("buffer lease survived quiesce");
  if (AuditHub::instance().violations() != audits_before)
    o.gate_failures.push_back("audit violation");
  return o;
}

std::string fingerprint(const Outcome& o) {
  std::ostringstream s;
  s << "events=" << o.events << ";handoffs=" << o.handoffs
    << ";attempts=" << o.attempts << ";predictive=" << o.predictive
    << ";reactive=" << o.reactive << ";failed=" << o.failed
    << ";open=" << o.open_at_quiesce << ";completed_ns=" << o.totals_ns;
  static const char* kClass[] = {"unspec", "rt", "hp", "be"};
  for (std::size_t k = 0; k < o.by_class.size(); ++k) {
    const ClassCounts& c = o.by_class[k];
    s << ";" << kClass[k] << "=" << c.sent << "/" << c.delivered << "/"
      << c.dropped;
  }
  return s.str();
}

// ---------------------------------------------------------------------------
// Flat JSON object writer (numbers and plain strings only)

class JsonLine {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void count(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void nums(const char* key, const std::vector<double>& v) {
    std::string raw = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", v[i]);
      raw += buf;
    }
    field(key, raw + "]");
  }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    field(key, q + "\"");
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void field(const char* key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += raw;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Traced mode: per-step attribution

enum Layer { kSim, kWireless, kNet, kTransport, kFastho, kBuffer, kOther,
             kNumLayers };
const char* const kLayerNames[kNumLayers] = {
    "sim", "wireless", "net", "transport", "fastho", "buffer", "other"};

// What one step emitted on the packet trace.
struct StepTrace {
  std::uint32_t data_create = 0;  // CBR source output
  std::uint32_t ctrl_create = 0;  // FMIPv6 / MIP signalling
  std::uint32_t ra_create = 0;    // WLAN router advertisements
  std::uint32_t net = 0;          // transmit/deliver/forward/drop/discard
  std::uint32_t radio = 0;        // of those, on an AP<->MH radio link
  std::uint32_t buffer = 0;       // handoff buffer enter/exit
};

bool is_link(const char* where) { return std::strchr(where, '>') != nullptr; }
bool is_radio_link(const char* where) {
  return std::strncmp(where, "mh", 2) == 0 || std::strstr(where, ">mh");
}

// Timeline record kinds by owning layer, as bit masks.
constexpr std::uint32_t bit(obs::HoEventKind k) {
  return 1u << static_cast<unsigned>(k);
}
constexpr std::uint32_t kBufferKinds =
    bit(obs::HoEventKind::kBufferGrant) | bit(obs::HoEventKind::kBufferShrink) |
    bit(obs::HoEventKind::kBufferDeny) | bit(obs::HoEventKind::kBufferFill) |
    bit(obs::HoEventKind::kDrainStart) | bit(obs::HoEventKind::kDrainEnd);
constexpr std::uint32_t kWirelessKinds =
    bit(obs::HoEventKind::kL2Trigger) | bit(obs::HoEventKind::kBlackoutStart) |
    bit(obs::HoEventKind::kBlackoutEnd);

struct TraceTotals {
  std::uint64_t transmits = 0, radio_transmits = 0, pkts_created = 0,
                control_pkts = 0, link_drops = 0;
};

struct Attribution {
  std::array<std::int64_t, kNumLayers> busy_ns{};
  std::int64_t total_ns = 0;
  std::int64_t radio_busy_ns = 0;
  std::int64_t tick_ns = 0;
  std::uint64_t tick_steps = 0;
  std::uint64_t silent_steps = 0;
  std::int64_t silent_ns = 0;
  std::uint64_t probe_steps = 0;
  std::uint64_t brackets = 0;
  std::uint64_t empty_brackets = 0;
  std::vector<double> pop_ns;       // step time of no-op probes
  std::vector<double> queue_depth;  // live events when each probe ran
};

struct Classified {
  Layer layer = kOther;
  std::int64_t ns = 0;
  bool radio = false;
  bool silent = false;
};

Classified classify(const StepTrace& t, std::uint32_t kinds,
                    bool handoff_started, bool attempt_resolved,
                    bool on_tick_grid, std::int64_t ns) {
  Classified c;
  c.ns = ns;
  if ((kinds & kBufferKinds) != 0 || t.buffer != 0) {
    c.layer = kBuffer;
  } else if ((kinds & ~kWirelessKinds) != 0 || t.ctrl_create != 0 ||
             attempt_resolved) {
    c.layer = kFastho;
  } else if (kinds != 0 || handoff_started || t.ra_create != 0) {
    c.layer = kWireless;
  } else if (t.data_create != 0) {
    c.layer = kTransport;
  } else if (t.net != 0) {
    c.layer = kNet;
    c.radio = t.radio != 0;
  } else if (!on_tick_grid) {
    // Emits nothing: a link serialisation completion.
    c.layer = kNet;
    c.silent = true;
  } else {
    c.layer = kOther;  // silent on the tick grid: not attributable
  }
  return c;
}

void account(Attribution& a, const Classified& c) {
  a.busy_ns[c.layer] += c.ns;
  if (c.radio) a.radio_busy_ns += c.ns;
  if (c.silent) {
    ++a.silent_steps;
    a.silent_ns += c.ns;
  }
}

// Marker events the traced run schedules. A (before) and B (after) bracket
// the WLAN tick in FIFO order at every tick time: A for t+tick is scheduled
// when A for t runs, which precedes the tick re-arming itself, and B for
// t+tick when B for t runs, which follows it. The tick is therefore the last
// non-probe step between A and B. P is a no-op heap probe; S ends the run
// once no events remain at the quiesce time.
enum class Probe { kNone, kBefore, kAfter, kPop, kSentinel };

struct TracedRun {
  Attribution attr;
  TraceTotals totals;
  std::uint64_t events = 0;  // non-probe steps
};

TracedRun run_traced(CityTopology& topo, SimTime end, SimTime tick,
                     double* start_s) {
  Simulation& sim = topo.simulation();
  Scheduler& sched = sim.scheduler();
  TracedRun run;
  Attribution& attr = run.attr;
  TraceTotals& totals = run.totals;

  StepTrace st;
  auto observe = [&st, &totals](const TraceEvent& e) {
    switch (e.kind) {
      case TraceKind::kCreate:
        if (std::strcmp(e.msg, "data") == 0) {
          ++st.data_create;
          ++totals.pkts_created;
        } else if (std::strcmp(e.msg, "RtAdv") == 0) {
          ++st.ra_create;
        } else {
          ++st.ctrl_create;
          ++totals.control_pkts;
        }
        break;
      case TraceKind::kBufferEnter:
      case TraceKind::kBufferExit:
        ++st.buffer;
        break;
      case TraceKind::kTransmit:
        ++totals.transmits;
        if (is_radio_link(e.where)) {
          ++totals.radio_transmits;
          ++st.radio;
        }
        ++st.net;
        break;
      case TraceKind::kDrop:
        if (is_link(e.where)) ++totals.link_drops;
        ++st.net;
        break;
      default:  // deliver, forward, local deliver, discard
        if (e.kind == TraceKind::kDeliver && is_radio_link(e.where))
          ++st.radio;
        ++st.net;
        break;
    }
  };
  const PacketTrace::SinkId sink = sim.trace().add_sink(observe);

  Probe fired = Probe::kNone;
  std::function<void(SimTime)> arm_before, arm_after;
  arm_before = [&](SimTime t) {
    if (t > end) return;
    sim.at(t, [&, t] {
      fired = Probe::kBefore;
      arm_before(t + tick);
      const SimTime pop_at = t + SimTime::nanos(tick.ns() / 2 + 1);
      if (pop_at <= end) sim.at(pop_at, [&] { fired = Probe::kPop; });
    });
  };
  arm_after = [&](SimTime t) {
    if (t > end) return;
    sim.at(t, [&, t] {
      fired = Probe::kAfter;
      arm_after(t + tick);
    });
  };
  std::uint64_t since_sentinel = 0;
  bool done = false;
  std::function<void()> sentinel = [&] {
    fired = Probe::kSentinel;
    if (since_sentinel == 0) {
      done = true;
      return;
    }
    since_sentinel = 0;
    sim.at(end, sentinel);
  };

  // The first tick is armed inside start(); bracket it the same way.
  sim.at(end, sentinel);
  arm_before(tick);
  const Clock::time_point s0 = Clock::now();
  topo.start();
  const Clock::time_point s1 = Clock::now();
  *start_s = seconds_between(s0, s1);
  arm_after(tick);

  obs::HandoverTimeline& tl = sim.timeline();
  auto record_total = [&tl] {
    return tl.records().size() + tl.dropped_records();
  };
  WlanManager& wlan = topo.wlan();
  HandoverOutcomeRecorder& outcomes = topo.outcomes();
  const std::int64_t tick_ns = tick.ns();

  bool in_bracket = false;
  std::vector<Classified> bracket;
  while (!done) {
    st = StepTrace{};
    fired = Probe::kNone;
    const std::uint64_t rec_before = record_total();
    const std::size_t ho_before = wlan.handoffs_started();
    const std::uint64_t att_before = outcomes.attempts();
    const std::size_t depth = sched.queue_size();

    const Clock::time_point t0 = Clock::now();
    const bool ran = sched.step();
    const Clock::time_point t1 = Clock::now();
    if (!ran) break;
    const std::int64_t ns = ns_between(t0, t1);
    attr.total_ns += ns;
    if (fired != Probe::kSentinel) ++since_sentinel;

    if (fired != Probe::kNone) {
      ++attr.probe_steps;
      attr.busy_ns[kSim] += ns;
      if (fired == Probe::kBefore) {
        in_bracket = true;
        bracket.clear();
      } else if (fired == Probe::kAfter) {
        ++attr.brackets;
        in_bracket = false;
        if (bracket.empty()) {
          ++attr.empty_brackets;
        } else {
          Classified& t = bracket.back();
          t.layer = kWireless;
          t.radio = t.silent = false;
          ++attr.tick_steps;
          attr.tick_ns += t.ns;
        }
        for (const Classified& c : bracket) account(attr, c);
        bracket.clear();
      } else if (fired == Probe::kPop) {
        attr.pop_ns.push_back(static_cast<double>(ns));
        attr.queue_depth.push_back(static_cast<double>(depth));
      }
      continue;
    }

    ++run.events;
    std::uint32_t kinds = 0;
    const std::uint64_t rec_after = record_total();
    if (rec_after != rec_before) {
      const auto& recs = tl.records();
      const std::size_t n = static_cast<std::size_t>(rec_after - rec_before);
      for (std::size_t i = recs.size() - std::min(n, recs.size());
           i < recs.size(); ++i)
        kinds |= bit(recs[i].kind);
    }
    const Classified c = classify(
        st, kinds, wlan.handoffs_started() != ho_before,
        outcomes.attempts() != att_before, sched.now().ns() % tick_ns == 0,
        ns);
    if (in_bracket) {
      bracket.push_back(c);
    } else {
      account(attr, c);
    }
  }
  for (const Classified& c : bracket) account(attr, c);
  sim.trace().remove_sink(sink);
  return run;
}

// ---------------------------------------------------------------------------
// Registry sums (parsed once from the text rendering at the end of a run)

struct RegistrySums {
  std::uint64_t grants = 0, rejections = 0, partial_grants = 0,
                leases_reaped = 0, buffered = 0, drained = 0;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

RegistrySums sum_registry(const obs::MetricsRegistry& m) {
  RegistrySums r;
  std::istringstream in(m.format_text());
  std::string kind, name;
  double value = 0;
  while (in >> kind >> name) {
    if (kind != "counter") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    in >> value;
    const auto v = static_cast<std::uint64_t>(value);
    const bool buf = name.rfind("buffer/", 0) == 0;
    const bool fho = name.rfind("fastho/", 0) == 0;
    if (buf && ends_with(name, "/grants")) r.grants += v;
    if (buf && ends_with(name, "/rejections")) r.rejections += v;
    if (buf && ends_with(name, "/partial_grants")) r.partial_grants += v;
    if (buf && ends_with(name, "/leases_reaped")) r.leases_reaped += v;
    if (fho && ends_with(name, "/buffered_pkts")) r.buffered += v;
    if (fho && ends_with(name, "/drained_pkts")) r.drained += v;
  }
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int usage() {
  std::fprintf(stderr,
               "usage: fhmip_perfbench --workload <city_roam|city_stream|"
               "handover_storm> --seed <n> --mode <untraced|traced|setup> "
               "[--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "untraced";
  std::uint64_t seed = 0;
  bool have_seed = false, tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      tiny = true;
    } else if (i + 1 < argc && a == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && a == "--mode") {
      mode = argv[++i];
    } else if (i + 1 < argc && a == "--seed") {
      char* endp = nullptr;
      seed = std::strtoull(argv[++i], &endp, 10);
      have_seed = endp != nullptr && *endp == '\0';
    } else {
      return usage();
    }
  }
  Workload w;
  if (!have_seed ||
      (mode != "untraced" && mode != "traced" && mode != "setup") ||
      !make_workload(workload, seed, tiny, w))
    return usage();

  const std::uint64_t audits_before = AuditHub::instance().violations();
  const bool traced = mode == "traced";

  const Clock::time_point c0 = Clock::now();
  CityTopology topo(w.cfg);
  Simulation& sim = topo.simulation();
  // As in scale_population_sweep: raw records are only inspected on
  // failure, so cap them to keep timeline memory flat.
  sim.timeline().set_record_cap(65536);
  const Clock::time_point c1 = Clock::now();
  const double build_s = seconds_between(c0, c1);

  JsonLine out;
  double start_s = 0, wall_s = 0;
  std::uint64_t events = 0;
  TracedRun tr;
  if (traced) {
    const Clock::time_point r0 = Clock::now();
    tr = run_traced(topo, w.end, w.cfg.wlan.tick, &start_s);
    wall_s = seconds_between(r0, Clock::now());
    events = tr.events;
  } else {
    topo.start();
    const Clock::time_point c2 = Clock::now();
    start_s = seconds_between(c1, c2);
    if (mode == "setup") {
      out.num("setup_s", build_s + start_s);
      out.print();
      return 0;
    }
    sim.run_until(w.end);
    wall_s = seconds_between(c1, Clock::now());
    events = sim.scheduler().events_executed();
  }

  const Outcome o = collect(topo, events, audits_before);
  std::string gate;
  for (const std::string& f : o.gate_failures)
    gate += (gate.empty() ? "" : "; ") + f;

  out.num("wall_s", wall_s);
  out.num("setup_s", build_s + start_s);
  out.num("build_s", build_s);
  out.num("start_s", start_s);
  out.num("peak_rss_mb", peak_rss_mb());
  out.str("gate", gate);
  out.str("fingerprint", fingerprint(o));
  out.count("mhs", topo.num_mobiles());
  out.count("events", o.events);
  out.count("handoffs", o.handoffs);
  out.count("attempts", o.attempts);
  out.count("predictive", o.predictive);
  out.count("failed", o.failed);
  out.nums("completed_total_ms", o.totals_ms);
  std::uint64_t sent = 0, dropped = 0;
  for (const ClassCounts& c : o.by_class) {
    sent += c.sent;
    dropped += c.dropped;
  }
  const ClassCounts& rt =
      o.by_class[static_cast<std::size_t>(TrafficClass::kRealTime)];
  out.count("sent", sent);
  out.count("dropped", dropped);
  out.count("rt_sent", rt.sent);
  out.count("rt_dropped", rt.dropped);

  if (traced) {
    const Attribution& a = tr.attr;
    for (int l = 0; l < kNumLayers; ++l) {
      const std::string key = std::string(kLayerNames[l]) + "_busy_ns";
      out.count(key.c_str(), static_cast<std::uint64_t>(a.busy_ns[l]));
    }
    out.count("step_total_ns", static_cast<std::uint64_t>(a.total_ns));
    out.count("radio_busy_ns", static_cast<std::uint64_t>(a.radio_busy_ns));
    out.count("tick_busy_ns", static_cast<std::uint64_t>(a.tick_ns));
    out.count("tick_steps", a.tick_steps);
    out.count("brackets", a.brackets);
    out.count("empty_brackets", a.empty_brackets);
    out.count("silent_steps", a.silent_steps);
    out.count("silent_busy_ns", static_cast<std::uint64_t>(a.silent_ns));
    out.count("probe_steps", a.probe_steps);
    out.num("pop_ns_p50", percentile(a.pop_ns, 0.5));
    out.num("queue_depth_p50", percentile(a.queue_depth, 0.5));
    out.count("transmits", tr.totals.transmits);
    out.count("radio_transmits", tr.totals.radio_transmits);
    out.count("pkts_created", tr.totals.pkts_created);
    out.count("control_pkts", tr.totals.control_pkts);
    out.count("link_drops", tr.totals.link_drops);

    std::uint64_t triggers = 0, watchdog = 0;
    for (std::size_t i = 0; i < topo.num_mobiles(); ++i) {
      const MhAgent::Counters& c = topo.mobile(i).agent->counters();
      triggers += c.l2_triggers;
      watchdog += c.watchdog_fired;
    }
    out.count("triggers", triggers);
    out.count("watchdog_fired", watchdog);
    const RegistrySums r = sum_registry(sim.metrics());
    out.count("grants", r.grants);
    out.count("rejections", r.rejections);
    out.count("partial_grants", r.partial_grants);
    out.count("leases_reaped", r.leases_reaped);
    out.count("pkts_buffered", r.buffered);
    out.count("pkts_drained", r.drained);
    out.count("metric_cells", sim.metrics().size());
    out.count("timeline_records",
              sim.timeline().records().size() +
                  sim.timeline().dropped_records());
  }
  out.print();
  return o.gate_failures.empty() ? 0 : 1;
}
