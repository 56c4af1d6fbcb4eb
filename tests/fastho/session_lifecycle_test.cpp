#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/link_fault.hpp"
#include "scenario/paper_topology.hpp"
#include "scenario/wlan_topology.hpp"
#include "transport/cbr.hpp"
#include "transport/sink.hpp"

namespace fhmip {
namespace {

using namespace timeliterals;

/// ArAgent runs one buffered-session lifecycle (open -> buffer -> drain ->
/// teardown) for all three roles. Each case parks packets in one role's
/// lease, then ends the session one way: the lease reaper, a crash, or the
/// drain. The PAR case buffers in PAR-only mode and the NAR case in dual
/// mode on the Figure 4.1 topology; the intra-AR case uses the standalone
/// BI/BF baseline under one router (Figure 4.11 topology).
class SessionLifecycle : public ::testing::TestWithParam<ArRole> {
 protected:
  ArRole role() const { return GetParam(); }

  /// Builds the role's scenario. With `hold` set the session is never
  /// released: the MH's FNA (and so the NAR's BF to the PAR) dies on the
  /// new radio link, and the intra baseline never sends its BF.
  void build(bool hold) {
    Node* mh_node = nullptr;
    Node* cn = nullptr;
    Address dst;
    if (role() == ArRole::kIntra) {
      wlan_ = std::make_unique<WlanTopology>(WlanTopologyConfig{});
      mh_node = &wlan_->mh();
      cn = &wlan_->cn();
      dst = wlan_->mh_coa();
    } else {
      PaperTopologyConfig cfg;
      if (role() == ArRole::kPar) cfg.scheme.mode = BufferMode::kParOnly;
      paper_ = std::make_unique<PaperTopology>(cfg);
      mh_node = paper_->mobile(0).node;
      cn = &paper_->cn();
      dst = paper_->mobile(0).regional;
    }
    mh_ = mh_node->id();
    sink_ = std::make_unique<UdpSink>(*mh_node, 7000);
    CbrSource::Config c;
    c.dst = dst;
    c.dst_port = 7000;
    c.packet_bytes = 160;
    c.interval = 10_ms;
    c.tclass = TrafficClass::kHighPriority;
    c.flow = 1;
    source_ = std::make_unique<CbrSource>(*cn, 5000, c);
    source_->start(1_s);
    if (role() == ArRole::kIntra) {
      wlan_->start();
      // Smooth-handover baseline: buffer from now on, until the BF.
      sim().at(2_s, [host = &wlan_->mh_agent()] {
        host->send_buffer_init(20, SimTime{}, 10_s);
      });
    } else {
      paper_->start();
      if (hold) {
        fna_block_ = std::make_unique<fault::LinkFaultInjector>(
            sim(), *paper_->wlan().uplink(paper_->ap_nar().id(), mh_));
        fna_block_->drop_matching(fault::message_named("FNA"));
      }
    }
  }

  /// Runs until the session's lease holds packets, stops the traffic and
  /// lets the packets in flight land. Returns what the lease then holds.
  std::size_t park() {
    const SimTime limit = sim().now() + 20_s;
    while (sim().now() < limit && held() < 3) {
      sim().run_until(sim().now() + 5_ms);
    }
    source_->stop_now();
    sim().run_until(sim().now() + 30_ms);
    return held();
  }

  std::size_t held() {
    const HandoffBuffer* b = agent().buffers().buffer(key());
    return b == nullptr ? 0 : b->size();
  }

  Simulation& sim() {
    return wlan_ ? wlan_->simulation() : paper_->simulation();
  }
  ArAgent& agent() {
    switch (role()) {
      case ArRole::kPar:
        return paper_->par_agent();
      case ArRole::kNar:
        return paper_->nar_agent();
      case ArRole::kIntra:
        break;
    }
    return wlan_->ar_agent();
  }
  BufferManager::LeaseKey key() const { return BufferManager::key(mh_, role()); }
  bool has_context() {
    switch (role()) {
      case ArRole::kPar:
        return agent().has_par_context(mh_);
      case ArRole::kNar:
        return agent().has_nar_context(mh_);
      case ArRole::kIntra:
        break;
    }
    return agent().has_intra_context(mh_);
  }
  std::size_t count(obs::HoEventKind kind) {
    std::size_t n = 0;
    for (const obs::HoEventRecord& r : sim().timeline().records()) {
      if (r.mh == mh_ && r.kind == kind && r.where == agent().node().name()) {
        ++n;
      }
    }
    return n;
  }

  std::unique_ptr<PaperTopology> paper_;
  std::unique_ptr<WlanTopology> wlan_;
  std::unique_ptr<UdpSink> sink_;
  std::unique_ptr<CbrSource> source_;
  std::unique_ptr<fault::LinkFaultInjector> fna_block_;
  MhId mh_ = kNoNode;
};

TEST_P(SessionLifecycle, ReaperReclaimsLeaseAndContext) {
  build(/*hold=*/true);
  park();
  // Let the handover's own renewals pass first: the FBAck misses the old
  // link, so the MH re-sends the FBU from the new one and the PAR renews.
  sim().run_until(sim().now() + 500_ms);
  const std::size_t parked = held();
  ASSERT_GT(parked, 0u);
  ASSERT_TRUE(has_context());
  // Pull the lease deadline in ahead of the lifetime timer: only the
  // reaper can end this session now.
  ASSERT_TRUE(agent().buffers().renew(key(), sim().now() + 1_ms));
  const std::uint64_t reaped = agent().buffers().total_reaped();
  sim().run_until(sim().now() + 1_s);
  EXPECT_EQ(agent().buffers().total_reaped(), reaped + 1);
  EXPECT_EQ(sim().stats().total_drops(DropReason::kLeaseReclaimed), parked);
  EXPECT_EQ(sim().stats().total_drops(DropReason::kBufferExpired), 0u);
  EXPECT_FALSE(agent().buffers().has_lease(key()));
  EXPECT_FALSE(has_context()) << "the reaper left the session behind";
}

TEST_P(SessionLifecycle, CrashDropsParkedPacketsAsFaultInjected) {
  build(/*hold=*/true);
  const std::size_t parked = park();
  ASSERT_GT(parked, 0u);
  agent().fault_reset();
  EXPECT_EQ(sim().stats().total_drops(DropReason::kFaultInjected), parked);
  EXPECT_FALSE(agent().buffers().has_lease(key()));
  EXPECT_FALSE(has_context());
}

TEST_P(SessionLifecycle, DrainRecordsOnePairAndReleasesLease) {
  build(/*hold=*/false);
  const std::size_t parked = park();
  ASSERT_GT(parked, 0u);
  if (role() == ArRole::kIntra) {
    wlan_->mh_agent().send_buffer_forward(wlan_->ar().address());
  }
  sim().run_until(sim().now() + 2_s);
  EXPECT_EQ(count(obs::HoEventKind::kDrainStart), 1u);
  EXPECT_EQ(count(obs::HoEventKind::kDrainEnd), 1u);
  EXPECT_EQ(agent().counters().drained, parked);
  EXPECT_FALSE(agent().buffers().has_lease(key()));
  const FlowCounters& f = sim().stats().flow(1);
  EXPECT_EQ(f.sent, f.delivered + f.dropped);
}

std::string role_name(const ::testing::TestParamInfo<ArRole>& info) {
  switch (info.param) {
    case ArRole::kPar:
      return "Par";
    case ArRole::kNar:
      return "Nar";
    case ArRole::kIntra:
      break;
  }
  return "Intra";
}

INSTANTIATE_TEST_SUITE_P(AllRoles, SessionLifecycle,
                         ::testing::Values(ArRole::kPar, ArRole::kNar,
                                           ArRole::kIntra),
                         role_name);

}  // namespace
}  // namespace fhmip
