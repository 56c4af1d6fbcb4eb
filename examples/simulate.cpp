// simulate — a small CLI around the paper scenario, for poking at the
// scheme without writing code. Prints per-flow results; optionally dumps an
// ns-2-style packet trace of the handover window.
//
// usage: ./build/examples/simulate [key=value ...]
//   mode=dual|nar|par|none   buffering mechanism        (default dual)
//   classify=0|1             per-class policy           (default 1)
//   pool=N                   buffer pool per AR, pkts   (default 20)
//   request=N                per-MH request, pkts       (default 20)
//   mhs=N                    mobile hosts               (default 1)
//   kbps=X                   per-flow rate              (default 128)
//   blackout_ms=N            L2 handoff delay           (default 200)
//   bounce=0|1               back-and-forth motion      (default 0)
//   speed=X                  m/s                        (default 10)
//   seconds=N                simulated time             (default 20)
//   seed=N                   RNG seed                   (default 1)
//   trace=0|1                dump handover packet trace (default 0)

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "scenario/paper_topology.hpp"
#include "stats/flow_table.hpp"
#include "stats/recorder.hpp"
#include "stats/table.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

using namespace fhmip;
using namespace fhmip::timeliterals;

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr) {
      std::fprintf(stderr, "ignoring argument without '=': %s\n", argv[i]);
      continue;
    }
    kv[std::string(argv[i], static_cast<std::size_t>(eq - argv[i]))] =
        std::string(eq + 1);
  }
  return kv;
}

double num(const std::map<std::string, std::string>& kv, const char* key,
           double fallback) {
  auto it = kv.find(key);
  return it == kv.end() ? fallback : std::atof(it->second.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto kv = parse_args(argc, argv);

  PaperTopologyConfig cfg;
  const std::string mode = kv.count("mode") ? kv.at("mode") : "dual";
  if (mode == "nar") {
    cfg.scheme.mode = BufferMode::kNarOnly;
  } else if (mode == "par") {
    cfg.scheme.mode = BufferMode::kParOnly;
  } else if (mode == "none") {
    cfg.scheme.mode = BufferMode::kNone;
  } else {
    cfg.scheme.mode = BufferMode::kDual;
  }
  cfg.scheme.classify = num(kv, "classify", 1) != 0;
  cfg.scheme.pool_pkts = static_cast<std::uint32_t>(num(kv, "pool", 20));
  cfg.scheme.request_pkts =
      static_cast<std::uint32_t>(num(kv, "request", 20));
  cfg.num_mhs = static_cast<int>(num(kv, "mhs", 1));
  cfg.bounce = num(kv, "bounce", 0) != 0;
  cfg.speed_mps = num(kv, "speed", 10);
  cfg.seed = static_cast<std::uint64_t>(num(kv, "seed", 1));
  cfg.wlan.l2_handoff_delay = SimTime::from_millis(num(kv, "blackout_ms", 200));
  const double kbps = num(kv, "kbps", 128);
  const double seconds = num(kv, "seconds", 20);

  PaperTopology topo(cfg);
  Simulation& sim = topo.simulation();
  sim.stats().set_keep_samples(true);

  if (num(kv, "trace", 0) != 0) {
    // Trace only the interesting window around the first handover.
    sim.trace().add_sink([&](const TraceEvent& e) {
      if (e.at > 10_s && e.at < 13_s && e.flow != kNoFlow) {
        std::puts(format_trace_line(e).c_str());
      }
    });
  }

  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<CbrSource>> sources;
  const TrafficClass classes[3] = {TrafficClass::kRealTime,
                                   TrafficClass::kHighPriority,
                                   TrafficClass::kBestEffort};
  for (int m = 0; m < cfg.num_mhs; ++m) {
    auto& mobile = topo.mobile(m);
    for (int i = 0; i < 3; ++i) {
      const FlowId flow = m * 3 + i + 1;
      const auto port = static_cast<std::uint16_t>(7000 + i);
      sinks.push_back(std::make_unique<UdpSink>(*mobile.node, port));
      CbrSource::Config c;
      c.dst = mobile.regional;
      c.dst_port = port;
      c.packet_bytes = 160;
      c.interval = CbrSource::interval_for_rate(kbps, 160);
      c.tclass = classes[i];
      c.flow = flow;
      sources.push_back(std::make_unique<CbrSource>(
          topo.cn(), static_cast<std::uint16_t>(20000 + flow), c));
      sources.back()->start(2_s);
      sources.back()->stop(SimTime::from_seconds(seconds - 2));
    }
  }

  topo.start();
  sim.run_until(SimTime::from_seconds(seconds));

  const TextTable t = flow_table(sim.stats(), [&](FlowId f) {
    return std::string(to_string(classes[(f - 1) % 3]));
  });
  t.print("per-flow results (" + mode + ", classify=" +
          (cfg.scheme.classify ? "on" : "off") + ")");

  std::printf("\nhandoffs started: %zu; events executed: %llu\n",
              topo.wlan().handoffs_started(),
              static_cast<unsigned long long>(
                  sim.scheduler().events_executed()));
  return 0;
}
