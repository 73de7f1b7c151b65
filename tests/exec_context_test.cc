#include <gtest/gtest.h>

#include "core/configurations.h"
#include "exec/exec_context.h"
#include "test_util.h"

namespace tabbench {
namespace {

CostParams TestParams() {
  CostParams p;
  p.page_io_seconds = 1.0;
  p.random_io_seconds = 0.01;
  p.cpu_tuple_seconds = 0.001;
  p.cpu_hash_seconds = 0.0005;
  p.timeout_seconds = 100.0;
  return p;
}

TEST(ExecContextTest, SequentialMissChargesScaledCost) {
  PageStore store;
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  PageId a = store.Allocate();
  ctx.TouchPage(a);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 1.0);
  EXPECT_EQ(ctx.pages_read(), 1u);
  // Hit: no charge.
  ctx.TouchPage(a);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 1.0);
}

TEST(ExecContextTest, RandomMissChargesSeekCost) {
  PageStore store;
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  PageId a = store.Allocate();
  ctx.TouchPageRandom(a);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 0.01);
  // A random hit is free too.
  ctx.TouchPageRandom(a);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 0.01);
  // The same page through the sequential path is now cached.
  ctx.TouchPage(a);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 0.01);
}

TEST(ExecContextTest, TupleAndHashCharges) {
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  ctx.ChargeTuples(100);
  ctx.ChargeHashOps(100);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 0.1 + 0.05);
  EXPECT_EQ(ctx.tuples_processed(), 100u);
}

TEST(ExecContextTest, ChargeIoPagesBypassesPool) {
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  ctx.ChargeIoPages(3);
  EXPECT_DOUBLE_EQ(ctx.sim_time(), 3.0);
  EXPECT_EQ(pool.resident(), 0u);
}

TEST(ExecContextTest, TimeoutTripsOnAccumulatedCharge) {
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  EXPECT_TRUE(ctx.CheckTimeout().ok());
  ctx.ChargeIoPages(101);  // 101 s > 100 s limit
  EXPECT_TRUE(ctx.TimedOut());
  EXPECT_TRUE(ctx.CheckTimeout().IsTimeout());
}

TEST(ExecContextTest, EvictionMakesReaccessCostAgain) {
  PageStore store;
  BufferPool pool(2);
  ExecContext ctx(&pool, TestParams());
  PageId a = store.Allocate(), b = store.Allocate(), c = store.Allocate();
  ctx.TouchPage(a);
  ctx.TouchPage(b);
  ctx.TouchPage(c);  // evicts a
  double before = ctx.sim_time();
  ctx.TouchPage(a);  // miss again
  EXPECT_DOUBLE_EQ(ctx.sim_time(), before + 1.0);
}

TEST(ExecContextTest, TraceCoalescesPerTupleChargeCheckPairs) {
  BufferPool pool(4);
  ExecContext ctx(&pool, TestParams());
  AccessTrace trace;
  ctx.set_trace(&trace);

  // The executor's inner loop: charge one tuple, poll the timeout.
  for (int i = 0; i < 1000; ++i) {
    ctx.ChargeTuples(1);
    ASSERT_TRUE(ctx.CheckTimeout().ok());
  }
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, TraceEvent::Kind::kUnitTuplesChecked);
  EXPECT_EQ(trace[0].arg, 1000u);

  // Redundant back-to-back checks collapse; multi-unit charges stay raw.
  ASSERT_TRUE(ctx.CheckTimeout().ok());
  EXPECT_EQ(trace.size(), 1u);
  ctx.ChargeTuples(7);
  ASSERT_TRUE(ctx.CheckTimeout().ok());
  ctx.ChargeHashOps(1);
  ASSERT_TRUE(ctx.CheckTimeout().ok());
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[1].kind, TraceEvent::Kind::kTuples);
  EXPECT_EQ(trace[1].arg, 7u);
  EXPECT_EQ(trace[2].kind, TraceEvent::Kind::kTimeoutCheck);
  EXPECT_EQ(trace[3].kind, TraceEvent::Kind::kUnitHashChecked);
  EXPECT_EQ(trace[3].arg, 1u);

  // Replay reproduces the live clock exactly (same FP operations).
  BufferPool replay_pool(4);
  ReplayOutcome ro = ReplayTrace(trace, &replay_pool, TestParams());
  EXPECT_EQ(ro.sim_seconds, ctx.sim_time());
  EXPECT_FALSE(ro.timed_out);
}

TEST(ExecContextTest, ReplayAbortsMidCoalescedRunAtTheExactTuple) {
  CostParams p = TestParams();
  p.timeout_seconds = 0.0105;  // 10.5 tuple charges at 0.001 s each...
  BufferPool pool(4);
  // ...but charge 11.5 of slack so live recording (enforcement off) runs on.
  ExecContext ctx(&pool, p);
  ctx.set_enforce_timeout(false);
  AccessTrace trace;
  ctx.set_trace(&trace);
  for (int i = 0; i < 20; ++i) {
    ctx.ChargeTuples(1);
    ASSERT_TRUE(ctx.CheckTimeout().ok());
  }
  ASSERT_EQ(trace.size(), 1u);
  ASSERT_EQ(trace[0].arg, 20u);

  // The live enforced run would trip at tuple 11; the replay must too.
  BufferPool replay_pool(4);
  ReplayOutcome ro = ReplayTrace(trace, &replay_pool, p);
  EXPECT_TRUE(ro.timed_out);
  EXPECT_EQ(ro.sim_seconds, p.timeout_seconds);

  ExecContext live(&pool, p);
  int tuples = 0;
  for (int i = 0; i < 20; ++i) {
    live.ChargeTuples(1);
    if (!live.CheckTimeout().ok()) break;
    ++tuples;
  }
  EXPECT_EQ(tuples, 10);  // aborts on the 11th charge, as the replay did
}

TEST(ExecContextTest, RecordBudgetAbortsWithTimeoutDespiteEnforcementOff) {
  CostParams p = TestParams();
  BufferPool pool(4);
  ExecContext ctx(&pool, p);
  ctx.set_enforce_timeout(false);
  ctx.set_record_budget(2.0 * p.timeout_seconds);
  ctx.ChargeIoPages(150);  // past the timeout, under the budget
  EXPECT_TRUE(ctx.CheckTimeout().ok());
  ctx.ChargeIoPages(60);  // past the budget
  EXPECT_TRUE(ctx.CheckTimeout().IsTimeout());
}

/// End-to-end: the same query's page profile shifts from sequential-heavy
/// (P: scans) to random-heavy (1C: probes) — the mechanism that preserves
/// the paper's index-vs-scan economics at 1/400 scale (DESIGN.md §3).
TEST(ExecContextTest, IndexPlansShiftIoFromSequentialToRandom) {
  auto tiny = testing::TinyDb::Make(6000, 50);
  Database* db = tiny.db.get();
  // Filter on a non-key column: P has no index for it and must scan.
  const std::string q =
      "SELECT p.score, COUNT(*) FROM people p WHERE p.score = 321 "
      "GROUP BY p.score";

  db->buffer_pool()->Clear();
  auto on_p = db->Run(q);
  ASSERT_TRUE(on_p.ok());
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  db->buffer_pool()->Clear();
  auto on_1c = db->Run(q);
  ASSERT_TRUE(on_1c.ok());

  // The index plan touches a handful of pages; the scan touches them all.
  EXPECT_LT(on_1c->pages_read, 10u);
  EXPECT_GT(on_p->pages_read, 20u);
  EXPECT_LT(on_1c->sim_seconds, on_p->sim_seconds / 10.0);
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

}  // namespace
}  // namespace tabbench
