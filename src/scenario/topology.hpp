#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fastho/ar_agent.hpp"
#include "fastho/mh_agent.hpp"
#include "mip/map_agent.hpp"
#include "net/network.hpp"
#include "scenario/population.hpp"
#include "stats/handover_outcomes.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {

/// Well-known address nets of the hand-numbered topologies.
namespace nets {
inline constexpr std::uint32_t kCn = 10;
inline constexpr std::uint32_t kGw = 20;
inline constexpr std::uint32_t kMap = 30;  // regional (RCoA) prefix
inline constexpr std::uint32_t kPar = 40;
inline constexpr std::uint32_t kNar = 50;
}  // namespace nets

/// One kind of wired link: every link of the kind shares rate and delay.
struct LinkClass {
  double mbps = 10;
  SimTime delay;
};

/// Plain-data description of a hierarchical Mobile IPv6 access network,
///
///   CN --- GW --+--- MAP --+--- AR ((AP))  ...
///               |          +--- AR ((AP))       (an AR may also hang
///               +--- MAP ...                     directly off the GW)
///   AR --- AR direct links carry the handover tunnels
///
/// plus the mobile hosts roaming it. The presets (paper_spec, corridor_spec,
/// city_spec, wlan_spec) fill one from their config; Topology builds it.
struct TopologySpec {
  /// `map` value meaning "no MAP": an AR on the GW, a host without MIP.
  static constexpr int kNoMap = -1;

  struct Router {
    std::string name;
    std::uint32_t net = 0;  // advertised router address is {net, 1}
    int map = 0;            // ARs: the MAP they hang off (kNoMap: the GW)
  };
  struct Ap {
    std::size_t ar = 0;  // index into `ars`
    Vec2 pos;
    double radius_m = 0;
  };
  /// A downstream CBR flow from the CN to the host.
  struct Flow {
    CbrSource::Config cbr;  // dst/dst_port are set by Topology::add_flow
    SimTime start;
    SimTime stop;
  };
  struct Mobile {
    std::string name;
    std::unique_ptr<MobilityModel> mobility;
    /// MAP anchoring the host's RCoA; kNoMap: no Mobile IP, the host keeps
    /// one address on the first AR's net.
    int map = 0;
    PopulationDraw draw;
    std::optional<Flow> flow;
  };

  std::uint64_t seed = 1;
  std::string gw_name = "gw";
  std::vector<Router> maps;  // each hangs off the GW
  std::vector<Router> ars;
  std::vector<Ap> aps;
  /// Direct AR-AR links (indices into `ars`); the handover tunnel between
  /// the two always takes this link.
  std::vector<std::pair<std::size_t, std::size_t>> ar_pairs;
  LinkClass cn_gw, gw_map, map_ar, ar_ar;  // map_ar: every AR uplink
  std::size_t queue_limit = 200;
  WlanConfig wlan;
  /// Every host's agent config; the ARs run its buffer scheme and
  /// retransmission policy too.
  MhAgent::Config mh;
  std::vector<Mobile> mobiles;
};

/// The network, agents, WLAN layer and hosts a TopologySpec describes. Build
/// order is part of the contract, because NodeIds, link order and the
/// events issued during construction all feed dispatch order: nodes cn, gw,
/// MAPs, ARs, hosts; links uplinks first, then the AR pairs; per host its
/// agents, its walk and then its flow.
class Topology {
 public:
  explicit Topology(TopologySpec spec);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  struct Mobile {
    Node* node = nullptr;
    Address regional;  // the address correspondents use
    std::unique_ptr<MobileIpClient> mip;  // null for a host without a MAP
    std::unique_ptr<MhAgent> agent;
    PopulationDraw draw;
    FlowId flow = 0;  // 0 when the host carries no traffic
  };

  /// Starts the WLAN layer (initial association + binding updates); flows
  /// are armed at construction and fire on their own schedule.
  void start() { wlan_->start(); }

  Simulation& simulation() { return sim_; }
  Network& network() { return net_; }
  Node& cn() { return *cn_; }
  std::size_t num_maps() const { return maps_.size(); }
  MapAgent& map_agent(std::size_t k = 0) { return *map_agents_.at(k); }
  std::size_t num_ars() const { return ars_.size(); }
  Node& ar(std::size_t i) { return *ars_.at(i); }
  ArAgent& ar_agent(std::size_t i) { return *ar_agents_.at(i); }
  AccessPoint& ap(std::size_t i) { return *aps_.at(i); }
  WlanManager& wlan() { return *wlan_; }
  Mobile& mobile(std::size_t i) { return mobiles_.at(i); }
  std::size_t num_mobiles() const { return mobiles_.size(); }
  /// Per-attempt inter-AR handover outcomes across all hosts.
  HandoverOutcomeRecorder& outcomes() { return outcomes_; }
  /// Direct inter-AR links (handover tunnel paths), in spec order.
  const std::vector<DuplexLink*>& ar_ar_links() const { return ar_links_; }
  /// Buffer slots still leased across every AR (0 after quiesce = no leaks).
  std::uint64_t leased_total() const;

  /// Wires a downstream CBR flow from the CN to host `i`: a UDP sink on
  /// `sink_port` at the host and a source on `src_port` at the CN, aimed at
  /// the host's regional address and run over [start, stop).
  void add_flow(std::size_t i, CbrSource::Config cbr, std::uint16_t sink_port,
                std::uint16_t src_port, SimTime start, SimTime stop);

 private:
  Simulation sim_;
  Network net_;
  Node* cn_ = nullptr;
  std::vector<Node*> maps_;
  std::vector<Node*> ars_;
  std::vector<DuplexLink*> ar_links_;
  std::vector<std::unique_ptr<MapAgent>> map_agents_;
  std::vector<std::unique_ptr<ArAgent>> ar_agents_;
  std::unique_ptr<WlanManager> wlan_;
  std::vector<AccessPoint*> aps_;
  HandoverOutcomeRecorder outcomes_;
  std::vector<Mobile> mobiles_;
  std::vector<std::unique_ptr<UdpSink>> sinks_;
  std::vector<std::unique_ptr<CbrSource>> sources_;
};

}  // namespace fhmip
