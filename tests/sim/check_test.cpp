#include "sim/check.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_manager.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

// Compiled with the build's FHMIP_AUDIT_LEVEL (1 by default, 0 in the bench
// preset). The level-0 behaviour of the macros is exercised by
// check_level0_test.cpp, a separate translation unit compiled with
// FHMIP_AUDIT_LEVEL=0.

namespace fhmip {
namespace {

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { AuditHub::instance().reset_violations(); }
};

TEST_F(CheckTest, PassingAuditIsSilent) {
  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  FHMIP_AUDIT("test", 1 + 1 == 2);
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(AuditHub::instance().violations(), 0u);
}

TEST_F(CheckTest, FormatViolationIncludesLocationAndDetail) {
  AuditViolation v;
  v.component = "buffer";
  v.expr = "leased_ <= pool_";
  v.file = "buffer_manager.cpp";
  v.line = 21;
  v.detail = "leased=7 pool=4";
  const std::string s = format_violation(v);
  EXPECT_NE(s.find("[buffer]"), std::string::npos);
  EXPECT_NE(s.find("leased_ <= pool_"), std::string::npos);
  EXPECT_NE(s.find("buffer_manager.cpp:21"), std::string::npos);
  EXPECT_NE(s.find("leased=7 pool=4"), std::string::npos);
}

// The cases below expect audits to fire, so they need audits compiled in;
// the bench preset builds the suite at level 0.
#if FHMIP_AUDIT_LEVEL >= 1
TEST_F(CheckTest, FailingAuditReportsThroughSink) {
  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  FHMIP_AUDIT("test", 1 + 1 == 3);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_STREQ(seen[0].component, "test");
  EXPECT_STREQ(seen[0].expr, "1 + 1 == 3");
  EXPECT_EQ(AuditHub::instance().violations(), 1u);
}

TEST_F(CheckTest, DetailExpressionOnlyEvaluatedOnFailure) {
  int evaluations = 0;
  [[maybe_unused]] auto detail = [&] {
    ++evaluations;
    return std::string("context");
  };
  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  FHMIP_AUDIT_MSG("test", true, detail());
  EXPECT_EQ(evaluations, 0);
  FHMIP_AUDIT_MSG("test", false, detail());
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].detail, "context");
}

TEST_F(CheckTest, SinkRestoredAfterScopeExit) {
  std::vector<AuditViolation> outer;
  ScopedAuditSink keep([&](const AuditViolation& v) { outer.push_back(v); });
  {
    std::vector<AuditViolation> inner;
    ScopedAuditSink sink([&](const AuditViolation& v) {
      inner.push_back(v);
    });
    FHMIP_AUDIT("test", false);
    EXPECT_EQ(inner.size(), 1u);
  }
  FHMIP_AUDIT("test", false);
  EXPECT_EQ(outer.size(), 1u);
}

// A BufferManager whose accounting has been deliberately corrupted after the
// fact — the audit sweep must notice the books no longer balance.
class TamperedBufferManager : public BufferManager {
 public:
  using BufferManager::BufferManager;
  void corrupt_leased(std::uint32_t bogus) { leased_ = bogus; }
};

TEST_F(CheckTest, TamperedLeaseAccountingIsCaught) {
  TamperedBufferManager bm(/*pool_pkts=*/10);
  ASSERT_EQ(bm.allocate(BufferManager::key(1, ArRole::kNar), 4), 4u);

  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  bm.audit_invariants();
  EXPECT_TRUE(seen.empty()) << "audits fired on a consistent manager";

  bm.corrupt_leased(bm.pool_pkts() + 5);  // leased > pool
  bm.audit_invariants();
  EXPECT_FALSE(seen.empty()) << "leased > pool went unnoticed";
}

#if FHMIP_AUDIT_LEVEL >= 2
TEST_F(CheckTest, TamperedLeaseSumIsCaughtBySweep) {
  TamperedBufferManager bm(/*pool_pkts=*/10);
  ASSERT_EQ(bm.allocate(BufferManager::key(1, ArRole::kNar), 4), 4u);

  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  bm.corrupt_leased(6);  // still <= pool, but != sum of lease capacities
  bm.audit_invariants();
  EXPECT_FALSE(seen.empty()) << "lease-sum mismatch went unnoticed";
}
#endif  // FHMIP_AUDIT_LEVEL >= 2
#endif  // FHMIP_AUDIT_LEVEL >= 1

TEST_F(CheckTest, SchedulerAuditSweepIsCleanOnLiveScheduler) {
  Scheduler sched;
  const EventId a = sched.schedule_at(SimTime::millis(1), [] {});
  const EventId b = sched.schedule_at(SimTime::millis(2), [] {});
  sched.cancel(a);
  (void)b;
  std::vector<AuditViolation> seen;
  ScopedAuditSink sink([&](const AuditViolation& v) { seen.push_back(v); });
  sched.audit_invariants();
  EXPECT_TRUE(seen.empty());
}

}  // namespace
}  // namespace fhmip
