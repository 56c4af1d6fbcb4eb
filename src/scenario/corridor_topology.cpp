#include "scenario/corridor_topology.hpp"

namespace fhmip {

TopologySpec corridor_spec(const CorridorConfig& cfg) {
  TopologySpec spec;
  spec.seed = cfg.seed;
  spec.maps = {{"map", nets::kMap}};
  for (int i = 0; i < cfg.num_ars; ++i) {
    const auto n = static_cast<std::size_t>(i);
    spec.ars.push_back({"ar" + std::to_string(i + 1),
                        nets::kPar + static_cast<std::uint32_t>(i) * 10, 0});
    spec.aps.push_back({n, Vec2{cfg.ap_spacing_m * static_cast<double>(i), 0},
                        cfg.ap_radius_m});
    if (i > 0) spec.ar_pairs.emplace_back(n - 1, n);
  }
  spec.cn_gw = {cfg.cn_gw_mbps, cfg.cn_gw_delay};
  spec.gw_map = {cfg.gw_map_mbps, cfg.gw_map_delay};
  spec.map_ar = {cfg.map_ar_mbps, cfg.map_ar_delay};
  spec.ar_ar = {cfg.ar_ar_mbps, cfg.ar_ar_delay};
  spec.queue_limit = cfg.queue_limit;
  spec.wlan = cfg.wlan;
  spec.mh.scheme = cfg.scheme;
  spec.mh.use_fast_handover = cfg.use_fast_handover;
  spec.mh.request_buffers = cfg.request_buffers;
  spec.mh.rtx = cfg.rtx;

  TopologySpec::Mobile m;
  m.name = "mh";
  m.mobility = std::make_unique<LinearMobility>(
      Vec2{0, 0}, Vec2{cfg.speed_mps, 0}, cfg.mobility_start);
  spec.mobiles.push_back(std::move(m));
  return spec;
}

}  // namespace fhmip
