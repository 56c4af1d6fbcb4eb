#include "scenario/city_topology.hpp"

#include <cmath>
#include <limits>
#include <string>

namespace fhmip {
namespace {

// Address-net bases for the generated field; far above the hand-numbered
// paper nets (10..50 + corridor ARs at 40+10i) so the spaces never collide.
constexpr std::uint32_t kMapNetBase = 600;
constexpr std::uint32_t kArNetBase = 1000;

// AP center of the AR at (row, col) for the configured layout.
Vec2 ap_position(const CityConfig& cfg, int row, int col) {
  const double s = cfg.ap_spacing_m;
  if (cfg.layout == CityConfig::Layout::kHex) {
    const double xoff = (row % 2 == 1) ? s / 2 : 0.0;
    return Vec2{col * s + xoff, row * s * std::sqrt(3.0) / 2.0};
  }
  return Vec2{col * s, row * s};
}

}  // namespace

TopologySpec city_spec(const CityConfig& cfg) {
  const int rows = std::max(1, cfg.ar_rows);
  const int cols = std::max(1, cfg.ar_cols);
  const int num_maps = std::min(std::max(1, cfg.num_maps), cols);

  TopologySpec spec;
  spec.seed = cfg.seed;
  for (int k = 0; k < num_maps; ++k) {
    spec.maps.push_back({"map" + std::to_string(k),
                         kMapNetBase + static_cast<std::uint32_t>(k)});
  }
  // AR field in row-major order; MAPs split the columns into contiguous,
  // near-equal bands and each AR hangs off the MAP owning its band.
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int i = r * cols + c;
      spec.ars.push_back({"ar" + std::to_string(i),
                          kArNetBase + static_cast<std::uint32_t>(i),
                          (c * num_maps) / cols});
      spec.aps.push_back({static_cast<std::size_t>(i), ap_position(cfg, r, c),
                          cfg.ap_radius_m});
    }
  }
  // Direct links between geometrically adjacent ARs: east/south neighbours
  // on the grid, all six ring-1 neighbours in the hex packing (both sit at
  // exactly one spacing; the grid diagonal at sqrt(2) spacings stays out).
  const double adjacency = cfg.ap_spacing_m * 1.05;
  for (std::size_t i = 0; i < spec.aps.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.aps.size(); ++j) {
      if (distance(spec.aps[i].pos, spec.aps[j].pos) > adjacency) continue;
      spec.ar_pairs.emplace_back(i, j);
    }
  }
  spec.cn_gw = {cfg.cn_gw_mbps, cfg.cn_gw_delay};
  spec.gw_map = {cfg.gw_map_mbps, cfg.gw_map_delay};
  spec.map_ar = {cfg.map_ar_mbps, cfg.map_ar_delay};
  spec.ar_ar = {cfg.ar_ar_mbps, cfg.ar_ar_delay};
  spec.queue_limit = cfg.queue_limit;
  spec.wlan = cfg.wlan;
  spec.mh.scheme = cfg.scheme;
  spec.mh.rtx = cfg.rtx;
  spec.mh.watchdog = cfg.watchdog;

  // The roam box: the AP field plus one coverage radius of margin, so walks
  // can leave coverage at the fringe (hard-detach path) but always return.
  const double radius = cfg.ap_radius_m;
  RoamBox box{Vec2{-radius, -radius}, Vec2{-radius, -radius}};
  for (const TopologySpec::Ap& a : spec.aps) {
    box.hi.x = std::max(box.hi.x, a.pos.x + radius);
    box.hi.y = std::max(box.hi.y, a.pos.y + radius);
  }

  // The population stream is separate from the simulation RNG so scenario
  // generation never perturbs protocol-level draws (RA stagger, jitter).
  // Each host draws its member traits, then its walk.
  const PopulationConfig& pop = cfg.population;
  Rng pop_rng(cfg.seed ^ 0xC17Cu);
  const SimTime traffic_stop =
      pop.traffic_stop.is_zero() ? pop.horizon : pop.traffic_stop;
  const SimTime interval = population_packet_interval(pop);
  spec.mobiles.reserve(static_cast<std::size_t>(std::max(0, pop.num_mhs)));
  for (int i = 0; i < pop.num_mhs; ++i) {
    TopologySpec::Mobile m;
    m.name = "mh" + std::to_string(i);
    m.draw = draw_member(pop_rng, pop, box);

    // Anchor at the MAP whose band owns the nearest AR to the spawn point.
    std::size_t nearest = 0;
    double best = std::numeric_limits<double>::max();
    for (std::size_t a = 0; a < spec.aps.size(); ++a) {
      const double d = distance(spec.aps[a].pos, m.draw.spawn);
      if (d < best) {
        best = d;
        nearest = a;
      }
    }
    m.map = spec.ars[nearest].map;
    m.mobility = make_random_waypoint_walk(pop_rng, pop, box, m.draw.spawn,
                                           m.draw.speed_mps);

    if (m.draw.active) {
      TopologySpec::Flow f;
      f.cbr.packet_bytes = pop.packet_bytes;
      f.cbr.interval = interval;
      f.cbr.tclass = m.draw.tclass;
      f.cbr.flow = static_cast<FlowId>(1 + i);
      // Stagger start phases across one packet interval: every source
      // lives on the CN, and phase-locked CBR ticks would slam hundreds of
      // packets into the first wired queue in the same instant — burst
      // drops that say nothing about the buffer scheme under test.
      const SimTime phase =
          SimTime::nanos(interval.ns() * i / std::max(1, pop.num_mhs));
      f.start = pop.traffic_start + phase;
      f.stop = traffic_stop;
      m.flow = f;
    }
    spec.mobiles.push_back(std::move(m));
  }
  return spec;
}

}  // namespace fhmip
