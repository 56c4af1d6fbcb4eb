#include <gtest/gtest.h>

#include "scenario/paper_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// §5 future-work feature: adaptive (precise) buffer allocation.
struct ExtensionsFixture : ::testing::Test {
  PaperTopologyConfig cfg;
  std::unique_ptr<PaperTopology> topo;
  std::vector<std::unique_ptr<UdpSink>> sinks;
  std::vector<std::unique_ptr<CbrSource>> sources;

  void build() { topo = std::make_unique<PaperTopology>(cfg); }

  void add_flow(std::size_t mh, FlowId id, double kbps) {
    auto& m = topo->mobile(mh);
    const auto port = static_cast<std::uint16_t>(7000 + id);
    sinks.push_back(std::make_unique<UdpSink>(*m.node, port));
    CbrSource::Config c;
    c.dst = m.regional;
    c.dst_port = port;
    c.packet_bytes = 160;
    c.interval = CbrSource::interval_for_rate(kbps, 160);
    c.tclass = TrafficClass::kHighPriority;
    c.flow = id;
    sources.push_back(std::make_unique<CbrSource>(
        topo->cn(), static_cast<std::uint16_t>(5000 + id), c));
    sources.back()->start(2_s);
    sources.back()->stop(16_s);
  }

  void run_all() {
    topo->start();
    topo->simulation().run_until(20_s);
  }
};

TEST_F(ExtensionsFixture, AdaptiveRequestShrinksToObservedRate) {
  cfg.scheme.adaptive_request = true;
  cfg.scheme.pool_pkts = 40;
  cfg.scheme.request_pkts = 40;  // the host still asks for the blanket 40
  build();
  add_flow(0, 1, 32);  // 25 packets/s -> ~8 packets per 300 ms
  run_all();
  const BufferGrant& g = topo->mobile(0).agent->last_grant();
  EXPECT_TRUE(g.nar_ok);
  EXPECT_LT(g.nar_pkts, 15u);  // far below the blanket request
  EXPECT_GE(g.nar_pkts, cfg.scheme.min_request_pkts);
  EXPECT_EQ(topo->simulation().stats().flow(1).dropped, 0u);
}

TEST_F(ExtensionsFixture, AdaptiveAllocationServesMoreHosts) {
  // Six low-rate (32 kb/s) hosts handing off together. Blanket 20-packet
  // requests exhaust both 40-slot pools after four hosts; adaptive
  // requests (~8 packets at 25 p/s over 300 ms) fit everyone.
  for (const bool adaptive : {false, true}) {
    cfg = PaperTopologyConfig{};
    cfg.num_mhs = 6;
    cfg.scheme.classify = false;
    cfg.scheme.pool_pkts = 40;
    cfg.scheme.request_pkts = 20;
    cfg.scheme.adaptive_request = adaptive;
    sinks.clear();
    sources.clear();
    build();
    for (int i = 0; i < 6; ++i) add_flow(i, i + 1, 32);  // ~5 pkts/blackout
    run_all();
    const auto totals = topo->simulation().stats().totals();
    if (adaptive) {
      EXPECT_LE(totals.dropped, 2u) << "adaptive";
    } else {
      EXPECT_GE(totals.dropped, 8u) << "blanket";
    }
  }
}

TEST_F(ExtensionsFixture, RateEstimatorVisibleAtAgent) {
  build();
  add_flow(0, 1, 128);
  topo->start();
  topo->simulation().run_until(8_s);
  EXPECT_NEAR(topo->par_agent().estimated_pps(topo->mobile(0).node->id()),
              100.0, 15.0);
}

}  // namespace
}  // namespace fhmip
