#include "scenario/topology.hpp"

namespace fhmip {

Topology::Topology(TopologySpec spec)
    : sim_(spec.seed), net_(sim_), outcomes_(sim_.timeline()) {
  auto add_router = [this](const std::string& name, std::uint32_t net) {
    Node& n = net_.add_node(name);
    n.add_address({net, 1});
    return &n;
  };
  auto connect = [this, &spec](Node& a, Node& b, const LinkClass& c) {
    return &net_.connect(a, b, c.mbps * 1e6, c.delay, spec.queue_limit);
  };

  cn_ = add_router("cn", nets::kCn);
  Node* gw = add_router(spec.gw_name, nets::kGw);
  connect(*cn_, *gw, spec.cn_gw);
  for (const TopologySpec::Router& r : spec.maps) {
    maps_.push_back(add_router(r.name, r.net));
    connect(*gw, *maps_.back(), spec.gw_map);
  }
  for (const TopologySpec::Router& r : spec.ars) {
    ars_.push_back(add_router(r.name, r.net));
    Node* up = r.map == TopologySpec::kNoMap ? gw : maps_.at(r.map);
    connect(*up, *ars_.back(), spec.map_ar);
  }
  for (const auto& [a, b] : spec.ar_pairs) {
    ar_links_.push_back(connect(*ars_.at(a), *ars_.at(b), spec.ar_ar));
  }

  // Host nodes exist before route computation (their addresses are
  // unadvertised, so routing never points at them directly).
  std::vector<Node*> mh_nodes;
  mh_nodes.reserve(spec.mobiles.size());
  for (const TopologySpec::Mobile& m : spec.mobiles) {
    mh_nodes.push_back(&net_.add_node(m.name));
  }
  net_.compute_routes();

  // The handover tunnel always uses the direct inter-AR link (Figures
  // 4.9/4.10 vary exactly this link's delay); shortest-path routing would
  // otherwise detour via the MAP when the link is slow.
  for (DuplexLink* l : ar_links_) {
    l->a().routes().set_prefix_route(l->b().address().net,
                                     Route::via(l->a_to_b()));
    l->b().routes().set_prefix_route(l->a().address().net,
                                     Route::via(l->b_to_a()));
  }

  for (Node* map : maps_) {
    map_agents_.push_back(std::make_unique<MapAgent>(*map));
  }
  for (Node* ar : ars_) {
    ar_agents_.push_back(
        std::make_unique<ArAgent>(*ar, spec.mh.scheme, spec.mh.rtx));
  }

  wlan_ = std::make_unique<WlanManager>(sim_, spec.wlan);
  for (const TopologySpec::Ap& a : spec.aps) {
    aps_.push_back(&wlan_->add_ap(*ars_.at(a.ar), a.pos, a.radius_m,
                                  ar_agents_.at(a.ar).get()));
  }
  auto resolver = [this](NodeId id) -> Node* {
    AccessPoint* a = wlan_->ap(id);
    return a == nullptr ? nullptr : &a->ar_node();
  };
  for (auto& agent : ar_agents_) agent->set_ap_resolver(resolver);

  mobiles_.reserve(spec.mobiles.size());
  for (std::size_t i = 0; i < spec.mobiles.size(); ++i) {
    TopologySpec::Mobile& s = spec.mobiles[i];
    const bool has_map = s.map != TopologySpec::kNoMap;
    Mobile m;
    m.node = mh_nodes[i];
    m.draw = s.draw;
    m.regional = Address{has_map ? spec.maps.at(s.map).net : spec.ars.at(0).net,
                         m.node->id()};
    m.node->add_address(m.regional, /*advertised=*/false);
    if (has_map) {
      m.mip = std::make_unique<MobileIpClient>(*m.node, m.regional,
                                               maps_[s.map]->address());
    }
    m.agent = std::make_unique<MhAgent>(*m.node, spec.mh, m.mip.get());
    wlan_->add_mh(*m.node, std::move(s.mobility), m.agent.get());
    mobiles_.push_back(std::move(m));
    if (s.flow) {
      mobiles_.back().flow = s.flow->cbr.flow;
      add_flow(i, s.flow->cbr, 7000, 5000, s.flow->start, s.flow->stop);
    }
  }
}

void Topology::add_flow(std::size_t i, CbrSource::Config cbr,
                        std::uint16_t sink_port, std::uint16_t src_port,
                        SimTime start, SimTime stop) {
  Mobile& m = mobiles_.at(i);
  cbr.dst = m.regional;
  cbr.dst_port = sink_port;
  sinks_.push_back(std::make_unique<UdpSink>(*m.node, sink_port));
  sources_.push_back(std::make_unique<CbrSource>(*cn_, src_port, cbr));
  sources_.back()->start(start);
  sources_.back()->stop(stop);
}

std::uint64_t Topology::leased_total() const {
  std::uint64_t total = 0;
  for (const auto& agent : ar_agents_) total += agent->buffers().leased();
  return total;
}

}  // namespace fhmip
