#include "scenario/paper_topology.hpp"

namespace fhmip {

TopologySpec paper_spec(const PaperTopologyConfig& cfg) {
  TopologySpec spec;
  spec.seed = cfg.seed;
  spec.maps = {{"map", nets::kMap}};
  spec.ars = {{"par", nets::kPar, 0}, {"nar", nets::kNar, 0}};
  spec.aps = {{0, Vec2{0, 0}, cfg.ap_radius_m},
              {1, Vec2{cfg.ar_distance_m, 0}, cfg.ap_radius_m}};
  spec.ar_pairs = {{0, 1}};
  spec.cn_gw = {cfg.cn_gw_mbps, cfg.cn_gw_delay};
  spec.gw_map = {cfg.gw_map_mbps, cfg.gw_map_delay};
  spec.map_ar = {cfg.map_ar_mbps, cfg.map_ar_delay};
  spec.ar_ar = {cfg.par_nar_mbps, cfg.par_nar_delay};
  spec.queue_limit = cfg.queue_limit;
  spec.wlan = cfg.wlan;

  MhAgent::Config& mh = spec.mh;
  mh.scheme = cfg.scheme;
  mh.use_fast_handover = cfg.use_fast_handover;
  mh.request_buffers = cfg.request_buffers;
  mh.anticipate = cfg.anticipate;
  mh.simultaneous_binding = cfg.simultaneous_binding;
  mh.start_time_offset = cfg.start_time_offset;
  mh.watchdog = cfg.watchdog;
  mh.rtx = cfg.rtx;

  // Every host walks PAR→NAR (or back and forth) from the PAR's AP.
  const Vec2 a{0, 0};
  const Vec2 b{cfg.ar_distance_m, 0};
  for (int i = 0; i < cfg.num_mhs; ++i) {
    TopologySpec::Mobile m;
    m.name = "mh" + std::to_string(i);
    if (cfg.bounce) {
      m.mobility = std::make_unique<BounceMobility>(a, b, cfg.speed_mps,
                                                    cfg.mobility_start);
    } else {
      m.mobility = std::make_unique<LinearMobility>(
          a, Vec2{cfg.speed_mps, 0}, cfg.mobility_start);
    }
    spec.mobiles.push_back(std::move(m));
  }
  return spec;
}

}  // namespace fhmip
