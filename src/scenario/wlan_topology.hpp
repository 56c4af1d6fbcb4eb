#pragma once

#include <memory>

#include "fastho/ar_agent.hpp"
#include "fastho/mh_agent.hpp"
#include "net/network.hpp"
#include "wireless/wlan.hpp"

namespace fhmip {

/// Figure 4.11 — the simple WLAN network for the pure link-layer handoff
/// experiments: CN --- router --- AR with two access points under it; the
/// MH switches APs without changing subnet (§3.2.2.4).
struct WlanTopologyConfig {
  std::uint64_t seed = 1;
  double cn_r_mbps = 100, r_ar_mbps = 10;
  SimTime cn_r_delay = SimTime::millis(5);
  SimTime r_ar_delay = SimTime::millis(2);
  std::size_t queue_limit = 200;
  WlanConfig wlan;
  BufferSchemeConfig scheme;
  bool use_fast_handover = true;
  bool request_buffers = true;
  /// Control-plane retransmission/backoff for the MH and the AR.
  RetransmitPolicy rtx;
};

class WlanTopology {
 public:
  explicit WlanTopology(const WlanTopologyConfig& cfg);

  void start();
  /// Schedules a link-layer handoff to the other AP at `at` (AP1→AP2
  /// first; repeated calls alternate).
  void schedule_handoff(SimTime at);

  Simulation& simulation() { return sim_; }
  Node& cn() { return *cn_; }
  Node& ar() { return *ar_; }
  Node& mh() { return *mh_; }
  ArAgent& ar_agent() { return *ar_agent_; }
  MhAgent& mh_agent() { return *mh_agent_; }
  WlanManager& wlan() { return *wlan_; }
  Address mh_coa() const;
  AccessPoint& ap1() { return *ap1_; }
  AccessPoint& ap2() { return *ap2_; }

 private:
  WlanTopologyConfig cfg_;
  Simulation sim_;
  std::unique_ptr<Network> net_;
  Node* cn_ = nullptr;
  Node* r_ = nullptr;
  Node* ar_ = nullptr;
  Node* mh_ = nullptr;
  std::unique_ptr<ArAgent> ar_agent_;
  std::unique_ptr<MhAgent> mh_agent_;
  std::unique_ptr<WlanManager> wlan_;
  AccessPoint* ap1_ = nullptr;
  AccessPoint* ap2_ = nullptr;
};

}  // namespace fhmip
