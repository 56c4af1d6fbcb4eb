#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "scenario/city_topology.hpp"
#include "scenario/corridor_topology.hpp"
#include "scenario/paper_topology.hpp"
#include "scenario/wlan_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

TEST(PaperTopology, BuildsFigure41Network) {
  PaperTopologyConfig cfg;
  PaperTopology topo(cfg);
  EXPECT_EQ(topo.network().num_nodes(), 6u);  // cn gw map par nar + 1 mh
  EXPECT_EQ(topo.network().num_links(), 5u);
  EXPECT_EQ(topo.cn().address(), (Address{nets::kCn, 1}));
  EXPECT_EQ(topo.par().address(), (Address{nets::kPar, 1}));
  EXPECT_EQ(topo.nar().address(), (Address{nets::kNar, 1}));
  EXPECT_EQ(topo.leg_duration(), SimTime::from_seconds(21.2));
}

// The wiring every preset must reproduce exactly: NodeIds, names and
// addresses feed the regional/CoA addresses, and the links and routes feed
// the dispatch order of every packet.
struct WiringCase {
  const char* name;
  std::string (*dump)();
  const char* expected;
};

// Prints the preset name in test listings, not the pointers' bytes.
void PrintTo(const WiringCase& c, std::ostream* os) { *os << c.name; }

// One line per node in creation order ("id name addr...", unadvertised
// addresses in parentheses), the sorted link names (the registry's link
// series; the network exposes no link list), then each AR's next hop toward
// the CN and toward every other AR's net.
std::string wiring(Simulation& sim, const std::vector<Node*>& nodes,
                   const std::vector<Node*>& ars) {
  std::string out;
  for (const Node* n : nodes) {
    out += std::to_string(n->id()) + ' ' + n->name();
    for (const auto& [a, advertised] : n->addresses()) {
      out += advertised ? " " : " (";
      out += a.to_string();
      if (!advertised) out += ')';
    }
    out += '\n';
  }
  const std::string series = sim.metrics().format_text();
  const std::string head = "gauge link/", tail = ">/queue_pkts";
  out += "links:";
  std::size_t at = 0;
  while ((at = series.find(head, at)) != std::string::npos) {
    const std::size_t end = series.find(' ', at + head.size());
    const std::string name = series.substr(at + head.size(),
                                           end - at - head.size());
    if (name.size() > tail.size() &&
        name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
      out += ' ';
      out.append(name, 0, name.size() - tail.size());
    }
    at = end;
  }
  out += "\n";
  for (Node* a : ars) {
    out += a->name() + ":";
    std::vector<Node*> targets{nodes.front()};
    targets.insert(targets.end(), ars.begin(), ars.end());
    for (Node* b : targets) {
      if (b == a) continue;
      const Route* r = a->routes().lookup(b->address());
      out += ' ';
      out += b->name();
      out += '=';
      out += r != nullptr && r->link != nullptr ? r->link->name() : "-";
    }
    out += "\n";
  }
  return out;
}

std::vector<Node*> all_nodes(Network& net) {
  std::vector<Node*> nodes;
  for (std::size_t i = 0; i < net.num_nodes(); ++i)
    nodes.push_back(&net.node(i));
  return nodes;
}

std::string paper_wiring() {
  PaperTopology topo(PaperTopologyConfig{});
  return wiring(topo.simulation(), all_nodes(topo.network()),
                {&topo.par(), &topo.nar()});
}

std::string corridor_wiring() {
  CorridorConfig cfg;
  cfg.num_ars = 4;
  CorridorTopology topo(cfg);
  std::vector<Node*> ars;
  for (std::size_t i = 0; i < topo.num_ars(); ++i) ars.push_back(&topo.ar(i));
  return wiring(topo.simulation(), all_nodes(topo.network()), ars);
}

std::string city_wiring(CityConfig::Layout layout, int num_maps) {
  CityConfig cfg;
  cfg.layout = layout;
  cfg.ar_rows = 3;
  cfg.ar_cols = 3;
  cfg.num_maps = num_maps;
  cfg.population.num_mhs = 4;
  CityTopology topo(cfg);
  std::vector<Node*> ars;
  for (std::size_t i = 0; i < topo.num_ars(); ++i) ars.push_back(&topo.ar(i));
  return wiring(topo.simulation(), all_nodes(topo.network()), ars);
}

std::string city_grid_wiring() {
  return city_wiring(CityConfig::Layout::kGrid, 2);
}
std::string city_hex_wiring() {
  return city_wiring(CityConfig::Layout::kHex, 1);
}

// WlanTopology exposes no network: its router between CN and AR shows up
// in the link names and the AR's route toward the CN.
std::string wlan_wiring() {
  WlanTopology topo(WlanTopologyConfig{});
  return wiring(topo.simulation(), {&topo.cn(), &topo.ar(), &topo.mh()},
                {&topo.ar()});
}

constexpr const char* kPaperWiring =
    "1 cn 10:1\n"
    "2 gw 20:1\n"
    "3 map 30:1\n"
    "4 par 40:1\n"
    "5 nar 50:1\n"
    "6 mh0 (30:6)\n"
    "links: cn-gw gw-map map-nar map-par par-nar\n"
    "par: cn=map-par< nar=par-nar>\n"
    "nar: cn=map-nar< par=par-nar<\n";

constexpr const char* kCorridorWiring =
    "1 cn 10:1\n"
    "2 gw 20:1\n"
    "3 map 30:1\n"
    "4 ar1 40:1\n"
    "5 ar2 50:1\n"
    "6 ar3 60:1\n"
    "7 ar4 70:1\n"
    "8 mh (30:8)\n"
    "links: ar1-ar2 ar2-ar3 ar3-ar4 cn-gw gw-map map-ar1 map-ar2"
    " map-ar3 map-ar4\n"
    "ar1: cn=map-ar1< ar2=ar1-ar2> ar3=map-ar1< ar4=map-ar1<\n"
    "ar2: cn=map-ar2< ar1=ar1-ar2< ar3=ar2-ar3> ar4=map-ar2<\n"
    "ar3: cn=map-ar3< ar1=map-ar3< ar2=ar2-ar3< ar4=ar3-ar4>\n"
    "ar4: cn=map-ar4< ar1=map-ar4< ar2=map-ar4< ar3=ar3-ar4<\n";

constexpr const char* kCityGridWiring =
    "1 cn 10:1\n"
    "2 gw 20:1\n"
    "3 map0 600:1\n"
    "4 map1 601:1\n"
    "5 ar0 1000:1\n"
    "6 ar1 1001:1\n"
    "7 ar2 1002:1\n"
    "8 ar3 1003:1\n"
    "9 ar4 1004:1\n"
    "10 ar5 1005:1\n"
    "11 ar6 1006:1\n"
    "12 ar7 1007:1\n"
    "13 ar8 1008:1\n"
    "14 mh0 (601:14)\n"
    "15 mh1 (601:15)\n"
    "16 mh2 (600:16)\n"
    "17 mh3 (600:17)\n"
    "links: ar0-ar1 ar0-ar3 ar1-ar2 ar1-ar4 ar2-ar5 ar3-ar4"
    " ar3-ar6 ar4-ar5 ar4-ar7 ar5-ar8 ar6-ar7 ar7-ar8 cn-gw"
    " gw-map0 gw-map1 map0-ar0 map0-ar1 map0-ar3 map0-ar4 map0-ar6"
    " map0-ar7 map1-ar2 map1-ar5 map1-ar8\n"
    "ar0: cn=map0-ar0< ar1=ar0-ar1> ar2=ar0-ar1> ar3=ar0-ar3>"
    " ar4=map0-ar0< ar5=ar0-ar1> ar6=map0-ar0< ar7=map0-ar0<"
    " ar8=map0-ar0<\n"
    "ar1: cn=map0-ar1< ar0=ar0-ar1< ar2=ar1-ar2> ar3=map0-ar1<"
    " ar4=ar1-ar4> ar5=ar1-ar2> ar6=map0-ar1< ar7=map0-ar1<"
    " ar8=ar1-ar2>\n"
    "ar2: cn=map1-ar2< ar0=ar1-ar2< ar1=ar1-ar2< ar3=ar1-ar2<"
    " ar4=ar1-ar2< ar5=ar2-ar5> ar6=ar1-ar2< ar7=ar1-ar2<"
    " ar8=map1-ar2<\n"
    "ar3: cn=map0-ar3< ar0=ar0-ar3< ar1=map0-ar3< ar2=map0-ar3<"
    " ar4=ar3-ar4> ar5=ar3-ar4> ar6=ar3-ar6> ar7=map0-ar3<"
    " ar8=ar3-ar4>\n"
    "ar4: cn=map0-ar4< ar0=map0-ar4< ar1=ar1-ar4< ar2=ar1-ar4<"
    " ar3=ar3-ar4< ar5=ar4-ar5> ar6=map0-ar4< ar7=ar4-ar7>"
    " ar8=ar4-ar5>\n"
    "ar5: cn=map1-ar5< ar0=ar4-ar5< ar1=ar2-ar5< ar2=ar2-ar5<"
    " ar3=ar4-ar5< ar4=ar4-ar5< ar6=ar4-ar5< ar7=ar4-ar5<"
    " ar8=ar5-ar8>\n"
    "ar6: cn=map0-ar6< ar0=map0-ar6< ar1=map0-ar6< ar2=map0-ar6<"
    " ar3=ar3-ar6< ar4=map0-ar6< ar5=map0-ar6< ar7=ar6-ar7>"
    " ar8=ar6-ar7>\n"
    "ar7: cn=map0-ar7< ar0=map0-ar7< ar1=map0-ar7< ar2=ar7-ar8>"
    " ar3=map0-ar7< ar4=ar4-ar7< ar5=ar4-ar7< ar6=ar6-ar7<"
    " ar8=ar7-ar8>\n"
    "ar8: cn=map1-ar8< ar0=ar7-ar8< ar1=ar7-ar8< ar2=map1-ar8<"
    " ar3=ar7-ar8< ar4=ar5-ar8< ar5=ar5-ar8< ar6=ar7-ar8<"
    " ar7=ar7-ar8<\n";

constexpr const char* kCityHexWiring =
    "1 cn 10:1\n"
    "2 gw 20:1\n"
    "3 map0 600:1\n"
    "4 ar0 1000:1\n"
    "5 ar1 1001:1\n"
    "6 ar2 1002:1\n"
    "7 ar3 1003:1\n"
    "8 ar4 1004:1\n"
    "9 ar5 1005:1\n"
    "10 ar6 1006:1\n"
    "11 ar7 1007:1\n"
    "12 ar8 1008:1\n"
    "13 mh0 (600:13)\n"
    "14 mh1 (600:14)\n"
    "15 mh2 (600:15)\n"
    "16 mh3 (600:16)\n"
    "links: ar0-ar1 ar0-ar3 ar1-ar2 ar1-ar3 ar1-ar4 ar2-ar4"
    " ar2-ar5 ar3-ar4 ar3-ar6 ar3-ar7 ar4-ar5 ar4-ar7 ar4-ar8"
    " ar5-ar8 ar6-ar7 ar7-ar8 cn-gw gw-map0 map0-ar0 map0-ar1"
    " map0-ar2 map0-ar3 map0-ar4 map0-ar5 map0-ar6 map0-ar7"
    " map0-ar8\n"
    "ar0: cn=map0-ar0< ar1=ar0-ar1> ar2=map0-ar0< ar3=ar0-ar3>"
    " ar4=map0-ar0< ar5=map0-ar0< ar6=map0-ar0< ar7=map0-ar0<"
    " ar8=map0-ar0<\n"
    "ar1: cn=map0-ar1< ar0=ar0-ar1< ar2=ar1-ar2> ar3=ar1-ar3>"
    " ar4=ar1-ar4> ar5=map0-ar1< ar6=map0-ar1< ar7=map0-ar1<"
    " ar8=map0-ar1<\n"
    "ar2: cn=map0-ar2< ar0=map0-ar2< ar1=ar1-ar2< ar3=map0-ar2<"
    " ar4=ar2-ar4> ar5=ar2-ar5> ar6=map0-ar2< ar7=map0-ar2<"
    " ar8=map0-ar2<\n"
    "ar3: cn=map0-ar3< ar0=ar0-ar3< ar1=ar1-ar3< ar2=map0-ar3<"
    " ar4=ar3-ar4> ar5=map0-ar3< ar6=ar3-ar6> ar7=ar3-ar7>"
    " ar8=map0-ar3<\n"
    "ar4: cn=map0-ar4< ar0=map0-ar4< ar1=ar1-ar4< ar2=ar2-ar4<"
    " ar3=ar3-ar4< ar5=ar4-ar5> ar6=map0-ar4< ar7=ar4-ar7>"
    " ar8=ar4-ar8>\n"
    "ar5: cn=map0-ar5< ar0=map0-ar5< ar1=map0-ar5< ar2=ar2-ar5<"
    " ar3=map0-ar5< ar4=ar4-ar5< ar6=map0-ar5< ar7=map0-ar5<"
    " ar8=ar5-ar8>\n"
    "ar6: cn=map0-ar6< ar0=map0-ar6< ar1=map0-ar6< ar2=map0-ar6<"
    " ar3=ar3-ar6< ar4=map0-ar6< ar5=map0-ar6< ar7=ar6-ar7>"
    " ar8=map0-ar6<\n"
    "ar7: cn=map0-ar7< ar0=map0-ar7< ar1=map0-ar7< ar2=map0-ar7<"
    " ar3=ar3-ar7< ar4=ar4-ar7< ar5=map0-ar7< ar6=ar6-ar7<"
    " ar8=ar7-ar8>\n"
    "ar8: cn=map0-ar8< ar0=map0-ar8< ar1=map0-ar8< ar2=map0-ar8<"
    " ar3=map0-ar8< ar4=ar4-ar8< ar5=ar5-ar8< ar6=map0-ar8<"
    " ar7=ar7-ar8<\n";

constexpr const char* kWlanWiring =
    "1 cn 10:1\n"
    "3 ar 40:1\n"
    "4 mh (40:4)\n"
    "links: cn-r r-ar\n"
    "ar: cn=r-ar<\n";

class TopologyWiring : public ::testing::TestWithParam<WiringCase> {};

TEST_P(TopologyWiring, MatchesPinnedNodesLinksAndTunnelRoutes) {
  EXPECT_EQ(GetParam().dump(), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, TopologyWiring,
    ::testing::Values(
        WiringCase{"paper", paper_wiring, kPaperWiring},
        WiringCase{"corridor", corridor_wiring, kCorridorWiring},
        WiringCase{"city_grid", city_grid_wiring, kCityGridWiring},
        WiringCase{"city_hex", city_hex_wiring, kCityHexWiring},
        WiringCase{"wlan", wlan_wiring, kWlanWiring}),
    [](const ::testing::TestParamInfo<WiringCase>& p) {
      return std::string(p.param.name);
    });

TEST(PaperTopology, GeometryMatchesSection41) {
  PaperTopologyConfig cfg;
  PaperTopology topo(cfg);
  // 212 m apart, 112 m radius -> 12 m overlap.
  EXPECT_DOUBLE_EQ(distance(topo.ap_par().position(),
                            topo.ap_nar().position()),
                   212.0);
  EXPECT_DOUBLE_EQ(topo.ap_par().radius(), 112.0);
  const double overlap = 2 * 112.0 - 212.0;
  EXPECT_DOUBLE_EQ(overlap, 12.0);
}

TEST(PaperTopology, InitialAttachAndRegistration) {
  PaperTopologyConfig cfg;
  PaperTopology topo(cfg);
  topo.start();
  topo.simulation().run_until(1_s);
  auto& m = topo.mobile(0);
  EXPECT_EQ(topo.wlan().attached_ap(m.node->id()), topo.ap_par().id());
  EXPECT_TRUE(m.mip->bound());
  EXPECT_EQ(m.agent->pcoa(), make_coa(nets::kPar, m.node->id()));
}

TEST(PaperTopology, CnReachesMobileHostViaMap) {
  PaperTopologyConfig cfg;
  PaperTopology topo(cfg);
  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.interval = 20_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(1_s);
  src.stop(2_s);
  topo.start();
  topo.simulation().run_until(3_s);
  EXPECT_EQ(sink.packets_received(), 50u);
  EXPECT_GT(topo.map_agent().packets_tunneled(), 0u);
}

TEST(PaperTopology, EndToEndBaselineDelay) {
  // Wired path 5+2+2 ms + 1 ms wireless plus serialization: ~10-12 ms.
  PaperTopologyConfig cfg;
  PaperTopology topo(cfg);
  topo.simulation().stats().set_keep_samples(true);
  auto& m = topo.mobile(0);
  UdpSink sink(*m.node, 7000);
  CbrSource::Config c;
  c.dst = m.regional;
  c.dst_port = 7000;
  c.interval = 20_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(1_s);
  src.stop(2_s);
  topo.start();
  topo.simulation().run_until(3_s);
  const auto& samples = topo.simulation().stats().samples(1);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_GT(s.delay, 9_ms);
    EXPECT_LT(s.delay, 15_ms);
  }
}

TEST(PaperTopology, MultipleMobileHostsCoexist) {
  PaperTopologyConfig cfg;
  cfg.num_mhs = 5;
  PaperTopology topo(cfg);
  topo.start();
  topo.simulation().run_until(1_s);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(topo.wlan().attached_ap(topo.mobile(i).node->id()),
              topo.ap_par().id());
    EXPECT_TRUE(topo.mobile(i).mip->bound());
  }
}

TEST(WlanTopology, BuildsFigure411Network) {
  WlanTopologyConfig cfg;
  WlanTopology topo(cfg);
  topo.start();
  topo.simulation().run_until(1_s);
  EXPECT_EQ(topo.wlan().attached_ap(topo.mh().id()), topo.ap1().id());
  EXPECT_EQ(topo.ap1().ar_node().id(), topo.ar().id());
  EXPECT_EQ(topo.ap2().ar_node().id(), topo.ar().id());
}

TEST(WlanTopology, CnReachesMhDirectly) {
  WlanTopologyConfig cfg;
  WlanTopology topo(cfg);
  UdpSink sink(topo.mh(), 7000);
  CbrSource::Config c;
  c.dst = topo.mh_coa();
  c.dst_port = 7000;
  c.interval = 20_ms;
  c.flow = 1;
  CbrSource src(topo.cn(), 5000, c);
  src.start(1_s);
  src.stop(2_s);
  topo.start();
  topo.simulation().run_until(3_s);
  EXPECT_EQ(sink.packets_received(), 50u);
}

TEST(WlanTopology, AlternatingForcedHandoffs) {
  WlanTopologyConfig cfg;
  cfg.scheme.lifetime = 30_s;
  WlanTopology topo(cfg);
  topo.start();
  topo.schedule_handoff(2_s);
  topo.schedule_handoff(4_s);
  topo.simulation().run_until(5_s);
  // Two alternating switches end on ap1 again.
  EXPECT_EQ(topo.wlan().attached_ap(topo.mh().id()), topo.ap1().id());
  EXPECT_EQ(topo.wlan().handoffs_started(), 2u);
}

}  // namespace
}  // namespace fhmip
