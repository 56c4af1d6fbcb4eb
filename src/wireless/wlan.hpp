#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "wireless/access_point.hpp"
#include "wireless/l2_phases.hpp"
#include "wireless/mobility.hpp"

namespace fhmip {

/// Link-layer events delivered to the mobile host's protocol agent.
class L2Callbacks {
 public:
  virtual ~L2Callbacks() = default;
  /// L2 source trigger (L2-ST): a candidate AP came into range while still
  /// attached — the anticipation window opens (§3.2.2.1).
  virtual void on_l2_trigger(NodeId target_ap, Node& target_ar) = 0;
  /// The radio will go down in `guard` time; last chance to send the FBU.
  virtual void on_predisconnect(NodeId target_ap, Node& target_ar) = 0;
  /// Attached (or re-attached) under `ap` / access router `ar`.
  virtual void on_attached(NodeId ap, Node& ar) = 0;
  virtual void on_detached() = 0;
};

struct WlanConfig {
  SimTime tick = SimTime::millis(10);
  /// Link-layer handoff blackout. The paper cites 60–400 ms measured and
  /// simulates 200 ms (§4.1).
  SimTime l2_handoff_delay = SimTime::millis(200);
  /// When set, each handoff's blackout is sampled from the empirical
  /// probe/auth/assoc model instead of the fixed delay above.
  std::optional<L2PhaseModel> l2_phase_model;
  /// Start the handoff this many meters before the coverage edge.
  double exit_margin_m = 2.0;
  /// Margin-zone handoffs require the candidate AP to be at least this much
  /// closer than the serving one. Without it a host lingering where two
  /// exit margins overlap flaps A->B->A indefinitely (each flap runs the
  /// full buffer-allocation handshake); with it every handoff strictly
  /// shrinks the serving distance, so flap chains terminate. Zero keeps the
  /// historical nearest-wins behaviour. Hard detaches (out of coverage)
  /// ignore the hysteresis — any covering AP beats none.
  double handoff_hysteresis_m = 0.0;
  /// Delay between on_predisconnect (FBU transmission) and radio-down.
  SimTime predisconnect_guard = SimTime::millis(2);
  double bandwidth_bps = 11e6;
  SimTime delay = SimTime::millis(1);
  std::size_t queue_limit = 200;
  SimTime ra_interval = SimTime::seconds(1);  // §4.1: one per second
  bool send_router_adv = true;
};

/// Owns access points, mobile-host radios and the association state machine:
/// position sampling, L2 triggers, handoff blackouts, per-(AP,MH) radio
/// links, and periodic router advertisements.
///
/// Hosts are evaluated on a fixed tick grid, but only at the ticks where
/// their state can change: each evaluation solves, on the host's current
/// mobility leg, for the earliest coverage crossing and files the host in a
/// wake calendar keyed by tick index (DESIGN.md, "WLAN layer: the wake
/// calendar").
class WlanManager {
 public:
  WlanManager(Simulation& sim, WlanConfig cfg);
  ~WlanManager();

  AccessPoint& add_ap(Node& ar_node, Vec2 pos, double radius_m,
                      ArAttachListener* listener);

  void add_mh(Node& mh_node, std::unique_ptr<MobilityModel> mobility,
              L2Callbacks* callbacks);

  /// Starts the tick loop and performs initial association.
  void start();
  void stop();

  /// Schedules a handoff to `target_ap` at `at`, regardless of geometry —
  /// used by the pure-L2-handoff experiments (Figures 4.12–4.14).
  void force_handoff(MhId mh, NodeId target_ap, SimTime at);

  // Introspection.
  Vec2 mh_position(MhId mh) const;
  NodeId attached_ap(MhId mh) const;  // kNoNode while detached
  bool in_handoff(MhId mh) const;
  AccessPoint* ap(NodeId id);
  /// The MH→AR radio link for `(ap, mh)`, created on demand like the
  /// association path would — fault harnesses attach TxFilters to it to
  /// kill/duplicate/delay MH-originated control messages. nullptr when the
  /// AP or MH is unknown.
  SimplexLink* uplink(NodeId ap, MhId mh);
  /// The AR→MH counterpart (PrRtAdv, FBack, FnaAck, drained packets).
  SimplexLink* downlink(NodeId ap, MhId mh);
  std::size_t handoffs_started() const { return handoffs_; }
  /// Blackout actually used by the most recent handoff (fixed or sampled).
  SimTime last_blackout() const { return last_blackout_; }

  const WlanConfig& config() const { return cfg_; }

 private:
  struct RadioPair {
    std::unique_ptr<SimplexLink> down;  // AR -> MH
    std::unique_ptr<SimplexLink> up;    // MH -> AR
  };
  /// Tick index of a host that no tick needs to evaluate.
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  struct MhRecord {
    Node* node = nullptr;
    std::unique_ptr<MobilityModel> mobility;
    L2Callbacks* cb = nullptr;
    NodeId attached = kNoNode;
    bool in_handoff = false;
    std::set<NodeId> triggered;  // APs already L2-ST'd since last attach
    std::int64_t wake = kNever;  // tick index this host is filed under
  };
  /// What one evaluation of a host would do; empty when nothing changes.
  struct Decision {
    enum class Act { kNone, kAttach, kHandoff, kDetach };
    std::vector<AccessPoint*> triggers;  // L2-STs to fire, in AP id order
    Act act = Act::kNone;
    AccessPoint* target = nullptr;  // for kAttach and kHandoff
    bool acts() const { return act != Act::kNone || !triggers.empty(); }
  };

  void tick();
  /// The association state machine, split so the audit can ask what a
  /// host would do without doing it. decide() has no simulation side
  /// effects.
  Decision decide(const MhRecord& rec, Vec2 pos);
  void apply(MhId mh, MhRecord& rec, const Decision& d);
  /// Evaluates `mh`, now at `pos`; returns whether anything changed.
  bool evaluate(MhId mh, MhRecord& rec, Vec2 pos);
  /// Files `mh` under tick `k`, replacing any earlier filing.
  void arm(MhId mh, MhRecord& rec, std::int64_t k);
  /// The earliest tick after the current one at which evaluating `rec`
  /// (just evaluated at `pos`; `acted` as evaluate() returned) could
  /// change anything, or kNever.
  std::int64_t next_wake(const MhRecord& rec, Vec2 pos, bool acted);
  AccessPoint* best_candidate(Vec2 pos, NodeId exclude);
  void start_handoff(MhId mh, MhRecord& rec, AccessPoint& target);
  void detach(MhId mh, MhRecord& rec);
  void attach(MhId mh, MhRecord& rec, AccessPoint& target);
  RadioPair& radio(const AccessPoint& ap, MhId mh);
  void send_router_adv(AccessPoint& ap);
  /// Records a change of `rec.attached` in the per-AP attachment sets that
  /// send_router_adv iterates (kNoNode = detached).
  void set_attached(MhId mh, MhRecord& rec, NodeId new_ap);
  void rebuild_ap_grid();
  /// APs whose coverage disc could contain `pos` (the 3x3 cell
  /// neighbourhood of the spatial hash), in insertion (= id) order — the
  /// same order a full scan of `aps_` would visit them. Returns a reusable
  /// scratch vector.
  const std::vector<AccessPoint*>& nearby_aps(Vec2 pos);

  Simulation& sim_;
  WlanConfig cfg_;
  std::vector<std::unique_ptr<AccessPoint>> aps_;
  std::map<MhId, MhRecord> mhs_;
  std::map<std::pair<NodeId, MhId>, RadioPair> radios_;
  // Scaling indexes over the flat containers above (a city-scale field has
  // hundreds of APs and thousands of MHs; every per-tick lookup must stay
  // O(local density), not O(field size)):
  //  * ap_index_: id -> AP, replacing the linear ap() scan;
  //  * ap_grid_: spatial hash of AP centers with cell = max AP radius, so
  //    any AP covering a point lies in the 3x3 neighbourhood of its cell;
  //  * attached_mhs_: per-AP attachment sets (MhId-ordered, matching the
  //    old whole-map walk) for router advertisement fan-out.
  std::unordered_map<NodeId, AccessPoint*> ap_index_;
  std::unordered_map<std::uint64_t, std::vector<AccessPoint*>> ap_grid_;
  double grid_cell_ = 0;
  bool grid_dirty_ = true;  // also before the first AP: sets grid_cell_
  std::vector<AccessPoint*> nearby_scratch_;
  std::map<NodeId, std::set<MhId>> attached_mhs_;
  // Wake calendar: tick index -> hosts filed under it (unordered, possibly
  // duplicated or stale; a host counts only where `MhRecord::wake` says).
  // Tick k fires at start() time + k * cfg_.tick; next_tick_ is the index
  // of the pending tick event.
  std::map<std::int64_t, std::vector<MhId>> calendar_;
  SimTime grid_origin_;
  std::int64_t next_tick_ = 0;
  bool running_ = false;
  // Pending self-scheduled events, cancelled in the destructor so no timer
  // callback can fire into a dead manager. The tick loop and each AP's RA
  // chain keep exactly one pending event; one-shot events (forced handoffs
  // and the detach/attach phases) are appended and cancelled wholesale —
  // cancelling an already-run id is a no-op.
  EventId tick_ev_ = kInvalidEvent;
  std::map<NodeId, EventId> ra_evs_;
  std::vector<EventId> oneshot_evs_;
  std::size_t handoffs_ = 0;
  SimTime last_blackout_;
  obs::Counter* m_handoffs_ = nullptr;       // wlan/handoffs
  obs::Counter* m_evaluations_ = nullptr;    // wlan/evaluations
  obs::Histogram* m_blackout_ms_ = nullptr;  // wlan/blackout_ms
  NodeId next_ap_id_ = 10000;  // AP ids live in a separate space from nodes
};

}  // namespace fhmip
