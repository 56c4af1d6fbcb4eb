#include "wireless/wlan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "sim/check.hpp"

namespace fhmip {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every crossing is solved against a threshold moved this far toward the
// host, so rounding in position() can make a wake early but never late.
constexpr double kPad = 1e-6;

Vec2 offset(Vec2 p, Vec2 center) {
  return Vec2{p.x - center.x, p.y - center.y};
}

// Seconds until a host at offset `w` from a circle's center, moving at `v`,
// is first within `r` of it: 0 if it already is, infinity if never.
double time_to_enter(Vec2 w, Vec2 v, double r) {
  const double c = w.x * w.x + w.y * w.y - r * r;
  if (c <= 0) return 0;
  const double b = w.x * v.x + w.y * v.y;
  if (b >= 0) return kInf;  // not closing in (or not moving)
  const double disc = b * b - (v.x * v.x + v.y * v.y) * c;
  if (disc < 0) return kInf;  // the line misses the circle
  return c / (-b + std::sqrt(disc));  // smaller root, cancellation-free
}

// Seconds until a host at offset `w`, moving at `v`, is first at least `r`
// from the center: 0 if it already is, infinity if never.
double time_to_leave(Vec2 w, Vec2 v, double r) {
  if (r <= 0) return 0;
  const double c = w.x * w.x + w.y * w.y - r * r;
  if (c >= 0) return 0;
  const double a = v.x * v.x + v.y * v.y;
  if (a == 0) return kInf;
  const double b = w.x * v.x + w.y * v.y;
  const double root = std::sqrt(b * b - a * c);  // > |b| since c < 0
  return b > 0 ? -c / (b + root) : (root - b) / a;  // larger root
}

// Spatial-hash cell key. Coordinates are truncated to 32 bits; two cells
// collide only when their indices differ by 2^32 cells — unreachable for
// any physical field.
std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

}  // namespace

WlanManager::WlanManager(Simulation& sim, WlanConfig cfg)
    : sim_(sim), cfg_(cfg) {
  obs::MetricsRegistry& m = sim_.metrics();
  m_handoffs_ = &m.counter("wlan/handoffs");
  m_evaluations_ = &m.counter("wlan/evaluations");
  m_blackout_ms_ = &m.histogram(
      "wlan/blackout_ms", {10, 20, 50, 100, 200, 300, 400, 500, 1000});
}

AccessPoint& WlanManager::add_ap(Node& ar_node, Vec2 pos, double radius_m,
                                 ArAttachListener* listener) {
  aps_.push_back(std::make_unique<AccessPoint>(next_ap_id_++, ar_node, pos,
                                               radius_m, listener));
  AccessPoint& ap = *aps_.back();
  ap_index_[ap.id()] = &ap;
  grid_dirty_ = true;
  // Every filed wake assumed the old AP set.
  if (running_) {
    for (auto& [mh, rec] : mhs_) arm(mh, rec, next_tick_);
  }
  return ap;
}

void WlanManager::rebuild_ap_grid() {
  ap_grid_.clear();
  // Cell edge = the largest coverage radius (>= 1 m so degenerate radii
  // don't explode the cell count). Any AP covering a point is then at most
  // one cell away from it in either axis.
  grid_cell_ = 1.0;
  for (const auto& ap : aps_) grid_cell_ = std::max(grid_cell_, ap->radius());
  for (const auto& ap : aps_) {
    const Vec2 p = ap->position();
    const auto cx = static_cast<std::int64_t>(std::floor(p.x / grid_cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(p.y / grid_cell_));
    ap_grid_[cell_key(cx, cy)].push_back(ap.get());
  }
  grid_dirty_ = false;
}

const std::vector<AccessPoint*>& WlanManager::nearby_aps(Vec2 pos) {
  if (grid_dirty_) rebuild_ap_grid();
  nearby_scratch_.clear();
  const auto cx = static_cast<std::int64_t>(std::floor(pos.x / grid_cell_));
  const auto cy = static_cast<std::int64_t>(std::floor(pos.y / grid_cell_));
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      auto it = ap_grid_.find(cell_key(cx + dx, cy + dy));
      if (it == ap_grid_.end()) continue;
      nearby_scratch_.insert(nearby_scratch_.end(), it->second.begin(),
                             it->second.end());
    }
  }
  // Ids are handed out in insertion order, so id order reproduces the exact
  // visit order of a full scan over `aps_`.
  std::sort(nearby_scratch_.begin(), nearby_scratch_.end(),
            [](const AccessPoint* a, const AccessPoint* b) {
              return a->id() < b->id();
            });
  return nearby_scratch_;
}

void WlanManager::add_mh(Node& mh_node, std::unique_ptr<MobilityModel> mob,
                         L2Callbacks* callbacks) {
  MhRecord rec;
  rec.node = &mh_node;
  rec.mobility = std::move(mob);
  rec.cb = callbacks;
  auto [it, inserted] = mhs_.emplace(mh_node.id(), std::move(rec));
  if (running_ && inserted) arm(it->first, it->second, next_tick_);
}

WlanManager::~WlanManager() {
  sim_.cancel(tick_ev_);
  for (auto& [ap, ev] : ra_evs_) sim_.cancel(ev);
  for (EventId ev : oneshot_evs_) sim_.cancel(ev);
}

void WlanManager::start() {
  running_ = true;
  grid_origin_ = sim_.now();
  next_tick_ = 1;
  for (auto& [mh, rec] : mhs_) {
    evaluate(mh, rec, rec.mobility->position(sim_.now()));
  }
  // File everyone under the first tick, which computes the real wakes:
  // set-up stays one evaluation per host.
  std::vector<MhId>& first = calendar_[next_tick_];
  first.clear();
  for (auto& [mh, rec] : mhs_) {
    rec.wake = next_tick_;
    first.push_back(mh);
  }
  tick_ev_ = sim_.in(cfg_.tick, [this] { tick(); });
  if (cfg_.send_router_adv) {
    for (auto& ap : aps_) {
      // Stagger advertisement phases so ARs don't beacon in lockstep.
      const SimTime phase =
          SimTime::from_seconds(sim_.rng().uniform(0.0, cfg_.ra_interval.sec()));
      AccessPoint* a = ap.get();
      ra_evs_[a->id()] = sim_.in(phase, [this, a] { send_router_adv(*a); });
    }
  }
}

void WlanManager::stop() { running_ = false; }

void WlanManager::tick() {
  if (!running_) return;
  const std::int64_t k = next_tick_++;
#if FHMIP_AUDIT_LEVEL >= 2
  // Shadow poll: a host the calendar skips must have nothing to do.
  for (auto& [mh, rec] : mhs_) {
    if (rec.wake == k) continue;
    FHMIP_AUDIT2_MSG(
        "wlan", !decide(rec, rec.mobility->position(sim_.now())).acts(),
        "mh " + std::to_string(mh) + " acts at tick " + std::to_string(k) +
            " but is filed under " + std::to_string(rec.wake));
  }
#endif
  if (auto it = calendar_.begin(); it != calendar_.end() && it->first == k) {
    std::vector<MhId> due = std::move(it->second);
    calendar_.erase(it);
    // MhId order is the order a walk over every host visits them in.
    std::sort(due.begin(), due.end());
    due.erase(std::unique(due.begin(), due.end()), due.end());
    for (MhId mh : due) {
      MhRecord& rec = mhs_.at(mh);
      if (rec.wake != k) continue;  // refiled since
      rec.wake = kNever;
      const Vec2 pos = rec.mobility->position(sim_.now());
      const bool acted = evaluate(mh, rec, pos);
      const std::int64_t wake = next_wake(rec, pos, acted);
      if (wake != kNever) arm(mh, rec, wake);
    }
  }
  tick_ev_ = sim_.in(cfg_.tick, [this] { tick(); });
}

void WlanManager::arm(MhId mh, MhRecord& rec, std::int64_t k) {
  // A bucket whose tick already ran is never drained: the host would sleep
  // through every later change.
  FHMIP_AUDIT("wlan", k >= next_tick_);
  if (rec.wake == k) return;
  rec.wake = k;
  calendar_[k].push_back(mh);
}

std::int64_t WlanManager::next_wake(const MhRecord& rec, Vec2 pos,
                                    bool acted) {
  if (rec.in_handoff) return kNever;  // attach() files it again
  const SimTime now = sim_.now();
  const std::int64_t tick_ns = cfg_.tick.ns();
  const Leg leg = rec.mobility->leg(now);
  // The first tick at or past the leg's end is the first to see new motion.
  std::int64_t wake = kNever;
  if (leg.until != kForever) {
    const std::int64_t d = (leg.until - grid_origin_).ns();
    wake = d <= 0 ? 0 : (d - 1) / tick_ns + 1;
  }
  // Holding still, a host meets the same predicates at every tick of the
  // leg: an evaluation that changed nothing will not change anything later.
  const Vec2 v = leg.vel;
  if (v.x == 0 && v.y == 0 && !acted) return std::max(wake, next_tick_);

  // The earliest instant, in seconds from now, at which a predicate
  // decide() tests can flip on this leg.
  if (grid_dirty_) rebuild_ap_grid();
  double s = kInf;
  const double cell = grid_cell_;
  const auto cx = static_cast<std::int64_t>(std::floor(pos.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(pos.y / cell));
  // Only APs in the 5x5 cell neighbourhood are solved for. Any other AP
  // covers nothing within cell + (distance to this cell's edge) of here,
  // so the scan holds until the host could have covered that distance.
  if (const double speed = std::hypot(v.x, v.y); speed > 0) {
    const double x0 = static_cast<double>(cx) * cell;
    const double y0 = static_cast<double>(cy) * cell;
    const double edge = std::min({pos.x - x0, x0 + cell - pos.x, pos.y - y0,
                                  y0 + cell - pos.y});
    s = (cell + edge - kPad) / speed;
  }
  const bool attached = rec.attached != kNoNode;
  if (attached) {
    // Leaving the inner circle starts a margin-zone or hard handoff check.
    // Inside the annulus this is 0: the hysteresis test is polled.
    const AccessPoint* cur = ap(rec.attached);
    const double inner =
        std::min(cur->radius(), cur->radius() - cfg_.exit_margin_m);
    s = std::min(s, time_to_leave(offset(pos, cur->position()), v,
                                  inner - kPad));
  }
  // Entering an AP's disc: a new L2-ST while attached, an association while
  // detached (where `triggered` still lists APs from before a hard detach).
  for (std::int64_t dx = -2; dx <= 2 && s > 0; ++dx) {
    for (std::int64_t dy = -2; dy <= 2; ++dy) {
      auto it = ap_grid_.find(cell_key(cx + dx, cy + dy));
      if (it == ap_grid_.end()) continue;
      for (const AccessPoint* a : it->second) {
        if (attached && (a->id() == rec.attached ||
                         rec.triggered.count(a->id()) != 0)) {
          continue;
        }
        s = std::min(s, time_to_enter(offset(pos, a->position()), v,
                                      a->radius() + kPad));
      }
    }
  }
  // Floor the crossing onto the grid: the tick at or before it.
  const double ticks =
      std::floor((static_cast<double>((now - grid_origin_).ns()) + s * 1e9) /
                 static_cast<double>(tick_ns));
  if (ticks < static_cast<double>(wake)) {
    wake = static_cast<std::int64_t>(ticks);
  }
  return std::max(wake, next_tick_);
}

AccessPoint* WlanManager::best_candidate(Vec2 pos, NodeId exclude) {
  AccessPoint* best = nullptr;
  double best_dist = std::numeric_limits<double>::max();
  for (AccessPoint* ap : nearby_aps(pos)) {
    if (ap->id() == exclude) continue;
    const double d = ap->distance_to(pos);
    if (d <= ap->radius() && d < best_dist) {
      best = ap;
      best_dist = d;
    }
  }
  return best;
}

WlanManager::Decision WlanManager::decide(const MhRecord& rec, Vec2 pos) {
  Decision d;
  if (rec.in_handoff) return d;

  if (rec.attached == kNoNode) {
    if (AccessPoint* target = best_candidate(pos, kNoNode)) {
      d.act = Decision::Act::kAttach;
      d.target = target;
    }
    return d;
  }

  const AccessPoint* cur = ap(rec.attached);
  const double dist = cur->distance_to(pos);

  // Fire the anticipation trigger (L2-ST) once per candidate AP per visit.
  // Only APs in the 3x3 cell neighbourhood can cover us, so the grid walk
  // fires exactly the triggers the full scan would.
  for (AccessPoint* other : nearby_aps(pos)) {
    if (other->id() == rec.attached) continue;
    if (other->covers(pos) && !rec.triggered.count(other->id())) {
      d.triggers.push_back(other);
    }
  }

  if (dist > cur->radius()) {
    // Fell out of coverage without anticipating: hard detach, and if some
    // AP covers us, hand off immediately (non-anticipated path).
    d.target = best_candidate(pos, rec.attached);
    d.act = d.target ? Decision::Act::kHandoff : Decision::Act::kDetach;
    return d;
  }

  if (dist > cur->radius() - cfg_.exit_margin_m) {
    if (AccessPoint* target = best_candidate(pos, rec.attached)) {
      if (cfg_.handoff_hysteresis_m <= 0 ||
          target->distance_to(pos) + cfg_.handoff_hysteresis_m < dist) {
        d.act = Decision::Act::kHandoff;
        d.target = target;
      }
    }
  }
  return d;
}

void WlanManager::apply(MhId mh, MhRecord& rec, const Decision& d) {
  for (AccessPoint* other : d.triggers) {
    rec.triggered.insert(other->id());
    if (rec.cb) rec.cb->on_l2_trigger(other->id(), other->ar_node());
  }
  switch (d.act) {
    case Decision::Act::kNone:
      break;
    case Decision::Act::kAttach:
      attach(mh, rec, *d.target);
      break;
    case Decision::Act::kHandoff:
      start_handoff(mh, rec, *d.target);
      break;
    case Decision::Act::kDetach:
      detach(mh, rec);
      set_attached(mh, rec, kNoNode);
      if (rec.cb) rec.cb->on_detached();
      break;
  }
}

bool WlanManager::evaluate(MhId mh, MhRecord& rec, Vec2 pos) {
  m_evaluations_->inc();
  const Decision d = decide(rec, pos);
  apply(mh, rec, d);
  return d.acts();
}

void WlanManager::force_handoff(MhId mh, NodeId target_ap, SimTime at) {
  oneshot_evs_.push_back(sim_.at(at, [this, mh, target_ap] {
    auto it = mhs_.find(mh);
    if (it == mhs_.end() || it->second.in_handoff) return;
    if (AccessPoint* target = ap(target_ap)) {
      if (target->id() != it->second.attached) {
        start_handoff(mh, it->second, *target);
      }
    }
  }));
}

void WlanManager::start_handoff(MhId mh, MhRecord& rec, AccessPoint& target) {
  rec.in_handoff = true;
  ++handoffs_;
  // Blackout: fixed (§4.1's 200 ms) or sampled from the empirical
  // probe/auth/assoc decomposition of Mishra et al.
  const SimTime blackout = cfg_.l2_phase_model
                               ? cfg_.l2_phase_model->sample(sim_.rng()).total()
                               : cfg_.l2_handoff_delay;
  last_blackout_ = blackout;
  m_handoffs_->inc();
  m_blackout_ms_->observe(blackout.millis_f());
  if (rec.cb) rec.cb->on_predisconnect(target.id(), target.ar_node());
  const NodeId target_id = target.id();
  oneshot_evs_.push_back(
      sim_.in(cfg_.predisconnect_guard, [this, mh, target_id, blackout] {
        auto& r = mhs_.at(mh);
        detach(mh, r);
        if (r.cb) r.cb->on_detached();
        oneshot_evs_.push_back(sim_.in(blackout, [this, mh, target_id] {
          attach(mh, mhs_.at(mh), *ap(target_id));
        }));
      }));
}

void WlanManager::detach(MhId mh, MhRecord& rec) {
  if (rec.attached == kNoNode) return;
  AccessPoint* cur = ap(rec.attached);
  RadioPair& pair = radio(*cur, mh);
  pair.down->set_up(false);
  pair.up->set_up(false);
  if (cur->listener()) cur->listener()->on_mh_detached(mh);
}

void WlanManager::attach(MhId mh, MhRecord& rec, AccessPoint& target) {
  RadioPair& pair = radio(target, mh);
  pair.down->set_up(true);
  pair.up->set_up(true);
  set_attached(mh, rec, target.id());
  rec.in_handoff = false;
  rec.triggered.clear();
  arm(mh, rec, next_tick_);
  // The MH's way out is the uplink radio.
  rec.node->routes().set_default_route(Route::via(*pair.up));
  if (target.listener()) {
    target.listener()->on_mh_attached(mh, target.id(), *pair.down);
  }
  if (rec.cb) rec.cb->on_attached(target.id(), target.ar_node());
}

SimplexLink* WlanManager::uplink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  if (a == nullptr || mhs_.count(mh) == 0) return nullptr;
  return radio(*a, mh).up.get();
}

SimplexLink* WlanManager::downlink(NodeId ap_id, MhId mh) {
  AccessPoint* a = ap(ap_id);
  if (a == nullptr || mhs_.count(mh) == 0) return nullptr;
  return radio(*a, mh).down.get();
}

WlanManager::RadioPair& WlanManager::radio(const AccessPoint& ap, MhId mh) {
  const auto key = std::make_pair(ap.id(), mh);
  auto it = radios_.find(key);
  if (it == radios_.end()) {
    RadioPair pair;
    Node& mh_node = *mhs_.at(mh).node;
    pair.down = std::make_unique<SimplexLink>(
        sim_, mh_node, cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
        ap.ar_node().name() + ">mh" + std::to_string(mh));
    pair.up = std::make_unique<SimplexLink>(
        sim_, ap.ar_node(), cfg_.bandwidth_bps, cfg_.delay, cfg_.queue_limit,
        "mh" + std::to_string(mh) + ">" + ap.ar_node().name());
    pair.down->set_up(false);
    pair.up->set_up(false);
    it = radios_.emplace(key, std::move(pair)).first;
  }
  return it->second;
}

void WlanManager::send_router_adv(AccessPoint& ap) {
  if (!running_) return;
  // The per-AP set mirrors `rec.attached` exactly (including hosts whose
  // record still points here during a handoff blackout), in MhId order —
  // the same hosts, in the same order, a full walk of `mhs_` would hit.
  if (auto sit = attached_mhs_.find(ap.id()); sit != attached_mhs_.end()) {
    for (MhId mh : sit->second) {
      MhRecord& rec = mhs_.at(mh);
      RouterAdvMsg adv;
      adv.ar_node = ap.ar_node().id();
      adv.ar_addr = ap.ar_node().address();
      adv.prefix = adv.ar_addr.net;
      adv.buffer_capable = true;  // the "B" flag (§2.4)
      auto p = make_control(sim_, ap.ar_node().address(),
                            rec.node->address(), adv, 80);
      radio(ap, mh).down->transmit(std::move(p));
    }
  }
  ra_evs_[ap.id()] = sim_.in(cfg_.ra_interval, [this, &ap] { send_router_adv(ap); });
}

void WlanManager::set_attached(MhId mh, MhRecord& rec, NodeId new_ap) {
  if (rec.attached == new_ap) return;
  if (rec.attached != kNoNode) attached_mhs_[rec.attached].erase(mh);
  if (new_ap != kNoNode) attached_mhs_[new_ap].insert(mh);
  rec.attached = new_ap;
}

Vec2 WlanManager::mh_position(MhId mh) const {
  auto it = mhs_.find(mh);
  return it == mhs_.end() ? Vec2{} : it->second.mobility->position(sim_.now());
}

NodeId WlanManager::attached_ap(MhId mh) const {
  auto it = mhs_.find(mh);
  return it == mhs_.end() ? kNoNode : it->second.attached;
}

bool WlanManager::in_handoff(MhId mh) const {
  auto it = mhs_.find(mh);
  return it != mhs_.end() && it->second.in_handoff;
}

AccessPoint* WlanManager::ap(NodeId id) {
  auto it = ap_index_.find(id);
  return it == ap_index_.end() ? nullptr : it->second;
}

}  // namespace fhmip
