#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/configurations.h"
#include "engine/database.h"
#include "engine/index_build.h"
#include "exec/operators.h"
#include "test_util.h"

namespace tabbench {
namespace {

/// The IN-set memo's contract: a memo hit re-applies the live scan's
/// charges call for call, so everything a query observes -- simulated
/// seconds, page and tuple counters, the buffer pool it leaves, the charge
/// trace it records, where it times out -- equals a run against a cold
/// memo. Every comparison here is exact (double ==, no tolerance).

const char* const kInQuery =
    "SELECT COUNT(*) FROM people p WHERE p.city IN "
    "(SELECT city FROM people GROUP BY city HAVING COUNT(*) < 20)";

/// Pages in the private pools below: fewer than the people heap holds, so
/// the scans evict and replay order decides which later touches hit.
constexpr size_t kPoolPages = 24;

/// What one execution leaves behind.
struct Observed {
  Status status;
  QueryResult result;
  double sim_time = 0.0;
  uint64_t pages_read = 0;
  uint64_t tuples = 0;
  BufferPoolStats pool;
  AccessTrace trace;
  std::set<std::string> values;  // MaterializeInSet runs only
};

/// Runs `sql` on a fresh private pool, recording its charge trace.
Observed RunQuery(const Database& db, const std::string& sql,
                  const CostParams& cost) {
  Observed o;
  BufferPool pool(kPoolPages);
  ExecContext ctx = db.MakeSessionContext(&pool, cost);
  ctx.set_trace(&o.trace);
  Result<QueryResult> r = db.RunWithContext(sql, &ctx);
  o.status = r.status();
  if (r.ok()) o.result = *r;
  o.sim_time = ctx.sim_time();
  o.pages_read = ctx.pages_read();
  o.tuples = ctx.tuples_processed();
  o.pool = pool.stats();
  return o;
}

/// Materializes one IN-set on a fresh private pool, recording its trace.
Observed Materialize(const Database& db, const InSetSpec& spec,
                     const CostParams& cost) {
  Observed o;
  BufferPool pool(kPoolPages);
  ExecContext ctx = db.MakeSessionContext(&pool, cost);
  ctx.set_trace(&o.trace);
  Result<InSet> set = MaterializeInSet(spec, db, &ctx);
  o.status = set.status();
  if (set.ok()) {
    for (const Value& v : **set) o.values.insert(v.ToString());
  }
  o.sim_time = ctx.sim_time();
  o.pages_read = ctx.pages_read();
  o.tuples = ctx.tuples_processed();
  o.pool = pool.stats();
  return o;
}

void ExpectSame(const Observed& cold, const Observed& warm) {
  EXPECT_EQ(cold.status.code(), warm.status.code());
  EXPECT_EQ(cold.result.sim_seconds, warm.result.sim_seconds);
  EXPECT_EQ(cold.result.pages_read, warm.result.pages_read);
  EXPECT_EQ(cold.result.tuples_processed, warm.result.tuples_processed);
  EXPECT_EQ(cold.result.timed_out, warm.result.timed_out);
  std::multiset<std::string> cold_rows, warm_rows;
  for (const Tuple& t : cold.result.rows) cold_rows.insert(t.ToString());
  for (const Tuple& t : warm.result.rows) warm_rows.insert(t.ToString());
  EXPECT_EQ(cold_rows, warm_rows);
  EXPECT_EQ(cold.sim_time, warm.sim_time);
  EXPECT_EQ(cold.pages_read, warm.pages_read);
  EXPECT_EQ(cold.tuples, warm.tuples);
  EXPECT_EQ(cold.pool.hits, warm.pool.hits);
  EXPECT_EQ(cold.pool.misses, warm.pool.misses);
  EXPECT_EQ(cold.pool.resident, warm.pool.resident);
  EXPECT_EQ(cold.values, warm.values);
  ASSERT_EQ(cold.trace.size(), warm.trace.size());
  for (size_t i = 0; i < cold.trace.size(); ++i) {
    EXPECT_EQ(cold.trace[i].kind, warm.trace[i].kind) << "event " << i;
    EXPECT_EQ(cold.trace[i].arg, warm.trace[i].arg) << "event " << i;
  }
}

class InSetMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tiny_ = testing::TinyDb::Make(20000, 50);
    cost_ = db()->options().cost;
  }

  Database* db() { return tiny_.db.get(); }

  /// kInQuery's single IN-set spec under the current configuration.
  InSetSpec Spec() {
    Result<PhysicalPlan> plan = db()->Plan(kInQuery);
    if (!plan.ok() || plan->in_sets.size() != 1) {
      ADD_FAILURE() << "kInQuery should plan with one IN-set";
      return {};
    }
    return plan->in_sets.front();
  }

  /// Whether the memo holds `spec`'s materialization.
  bool Memoized(const InSetSpec& spec) {
    return testing::InSetMemoOf(*db(), spec)
               ->Find(testing::InSetMemoKeyOf(spec)) != nullptr;
  }

  void ClearMemo() {
    Result<PhysicalPlan> plan = db()->Plan(kInQuery);
    ASSERT_TRUE(plan.ok());
    testing::ClearInSetMemos(*db(), *plan);
  }

  /// A query run against whatever the memo holds must equal one against
  /// an emptied memo.
  void ExpectQueryMatchesColdMemo() {
    Observed as_left = RunQuery(*db(), kInQuery, cost_);
    ASSERT_TRUE(as_left.status.ok()) << as_left.status.ToString();
    ClearMemo();
    Observed cold = RunQuery(*db(), kInQuery, cost_);
    ExpectSame(cold, as_left);
  }

  void ApplyOneC() {
    ASSERT_TRUE(db()->ApplyConfiguration(Make1CConfig(db()->catalog())).ok());
  }

  testing::TinyDb tiny_;
  CostParams cost_;
};

// ------------------------------------------------------------- hit == miss

TEST_F(InSetMemoTest, HeapHitReplaysTheColdScanExactly) {
  const InSetSpec spec = Spec();
  ASSERT_TRUE(spec.index_name.empty());
  ClearMemo();
  Observed cold = Materialize(*db(), spec, cost_);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(Memoized(spec));
  Observed hit = Materialize(*db(), spec, cost_);
  ExpectSame(cold, hit);
  EXPECT_FALSE(cold.values.empty());
  EXPECT_GT(cold.pool.misses, kPoolPages);  // the scan evicted

  ClearMemo();
  Observed cold_query = RunQuery(*db(), kInQuery, cost_);
  Observed warm_query = RunQuery(*db(), kInQuery, cost_);
  ExpectSame(cold_query, warm_query);
}

TEST_F(InSetMemoTest, IndexOnlyHitReplaysTheColdScanExactly) {
  ApplyOneC();
  const InSetSpec spec = Spec();
  ASSERT_FALSE(spec.index_name.empty());
  ClearMemo();
  Observed cold = Materialize(*db(), spec, cost_);
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(Memoized(spec));
  Observed hit = Materialize(*db(), spec, cost_);
  ExpectSame(cold, hit);
  EXPECT_FALSE(cold.values.empty());

  ClearMemo();
  Observed cold_query = RunQuery(*db(), kInQuery, cost_);
  Observed warm_query = RunQuery(*db(), kInQuery, cost_);
  ExpectSame(cold_query, warm_query);
}

TEST_F(InSetMemoTest, KeysSeparateColumnsAndThresholds) {
  const InSetSpec spec = Spec();
  ClearMemo();
  const Observed base = Materialize(*db(), spec, cost_);
  ASSERT_TRUE(base.status.ok());
  InSetSpec other_k = spec;
  other_k.k = spec.k + 5;
  InSetSpec other_column = spec;
  other_column.column = "dept";
  other_column.column_pos = 1;
  other_column.k = 400;  // ~400 people per dept: about half qualify
  for (const InSetSpec& other : {other_k, other_column}) {
    SCOPED_TRACE(other.column + " < " + std::to_string(other.k));
    EXPECT_FALSE(Memoized(other));
    Observed cold = Materialize(*db(), other, cost_);
    ASSERT_TRUE(cold.status.ok());
    EXPECT_TRUE(Memoized(other));
    ExpectSame(cold, Materialize(*db(), other, cost_));
    EXPECT_NE(cold.values, base.values);
    EXPECT_FALSE(cold.values.empty());
  }
  ExpectSame(base, Materialize(*db(), spec, cost_));
}

// ------------------------------------------------ timeouts and cancellation

TEST_F(InSetMemoTest, HitUnderALoweredTimeoutTripsAtTheSameCheck) {
  const InSetSpec spec = Spec();
  ClearMemo();
  const Observed full = Materialize(*db(), spec, cost_);
  ASSERT_TRUE(full.status.ok());
  CostParams tight = cost_;
  tight.timeout_seconds = full.sim_time / 2;

  ClearMemo();
  Observed cold = Materialize(*db(), spec, tight);
  ASSERT_TRUE(cold.status.IsTimeout()) << cold.status.ToString();
  // A scan that did not finish stores nothing.
  EXPECT_FALSE(Memoized(spec));

  ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());  // refill
  ASSERT_TRUE(Memoized(spec));
  Observed hit = Materialize(*db(), spec, tight);
  ExpectSame(cold, hit);

  // The same through the query driver: identical censored results.
  ClearMemo();
  Observed cold_query = RunQuery(*db(), kInQuery, tight);
  ASSERT_TRUE(cold_query.result.timed_out);
  ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());
  Observed warm_query = RunQuery(*db(), kInQuery, tight);
  ExpectSame(cold_query, warm_query);
}

TEST_F(InSetMemoTest, HitPollsCancellationLikeTheScan) {
  const InSetSpec spec = Spec();
  auto cancelled_run = [&] {
    Observed o;
    BufferPool pool(kPoolPages);
    ExecContext ctx = db()->MakeSessionContext(&pool, cost_);
    CancellationToken token;
    token.RequestCancel();
    ctx.set_cancellation_token(token);
    ctx.set_trace(&o.trace);
    o.status = MaterializeInSet(spec, *db(), &ctx).status();
    o.sim_time = ctx.sim_time();
    o.pages_read = ctx.pages_read();
    o.tuples = ctx.tuples_processed();
    o.pool = pool.stats();
    return o;
  };
  ClearMemo();
  Observed cold = cancelled_run();
  ASSERT_TRUE(cold.status.IsCancelled()) << cold.status.ToString();
  EXPECT_FALSE(Memoized(spec));
  ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());
  ExpectSame(cold, cancelled_run());
}

// ---------------------------------------------------------- invalidation

TEST_F(InSetMemoTest, TimedWritesClearTheMemo) {
  for (bool one_c : {false, true}) {
    SCOPED_TRACE(one_c ? "1C" : "P");
    if (one_c) ApplyOneC();
    const InSetSpec spec = Spec();
    ASSERT_EQ(spec.index_name.empty(), !one_c);
    const HeapTable* people = db()->FindHeap("people");
    const int64_t id = one_c ? 900000 : 800000;

    ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());
    ASSERT_TRUE(Memoized(spec));
    Rid inserted;
    ASSERT_TRUE(db()->TimedInsert("people",
                                  Tuple({Value(id), Value(int64_t{3}),
                                         Value(std::string("city_new")),
                                         Value(int64_t{7})}),
                                  &inserted)
                    .ok());
    EXPECT_FALSE(Memoized(spec));
    ExpectQueryMatchesColdMemo();

    ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());
    ASSERT_TRUE(Memoized(spec));
    ASSERT_TRUE(db()->TimedUpdate("people", inserted,
                                  Tuple({Value(id), Value(int64_t{4}),
                                         Value(std::string("city1")),
                                         Value(int64_t{8})}),
                                  &inserted)
                    .ok());
    EXPECT_FALSE(Memoized(spec));
    ExpectQueryMatchesColdMemo();

    ASSERT_TRUE(Materialize(*db(), spec, cost_).status.ok());
    ASSERT_TRUE(Memoized(spec));
    ASSERT_TRUE(people->IsLive(inserted));
    ASSERT_TRUE(db()->TimedDelete("people", inserted).ok());
    EXPECT_FALSE(Memoized(spec));
    ExpectQueryMatchesColdMemo();
  }
}

TEST_F(InSetMemoTest, ConfigurationChangesNeverServeStaleEntries) {
  ExpectQueryMatchesColdMemo();  // leaves the P memo warm
  ApplyOneC();
  ExpectQueryMatchesColdMemo();
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  ExpectQueryMatchesColdMemo();

  IndexDef def;
  def.name = "ix_city";
  def.target = "people";
  def.columns = {"city"};
  OnlineIndexBuild build(db(), def);
  {
    ExecContext ctx =
        db()->MakeSessionContext(db()->buffer_pool(), db()->options().cost);
    ASSERT_TRUE(build.Start(&ctx).ok());
  }
  for (int guard = 0; guard < 1 << 16 && !build.done(); ++guard) {
    ExecContext ctx =
        db()->MakeSessionContext(db()->buffer_pool(), db()->options().cost);
    ASSERT_TRUE(build.Step(&ctx).ok());
  }
  ASSERT_EQ(build.state(), IndexBuildState::kLive);  // InstallSecondaryIndex
  EXPECT_EQ(Spec().index_name, "ix_city");
  ExpectQueryMatchesColdMemo();

  ExecContext ctx =
      db()->MakeSessionContext(db()->buffer_pool(), db()->options().cost);
  ASSERT_TRUE(db()->DropSecondaryIndex("ix_city", &ctx).ok());
  EXPECT_TRUE(Spec().index_name.empty());
  ExpectQueryMatchesColdMemo();
}

TEST(InSetMemoStorageTest, EveryWriteClearsTheObjectsMemo) {
  PageStore store;
  HeapTable heap("h", TupleCodec({TypeId::kInt}), &store);
  BTree tree("ix", 1, 8, &store);
  const InSetMemoKey key{0, '<', 4};
  auto fill = [&key](InSetMemo* memo) {
    memo->Store(key, std::make_shared<InSetMemoEntry>());
    ASSERT_NE(memo->Find(key), nullptr);
  };

  fill(heap.in_set_memo());
  Rid rid = heap.Append(Tuple({Value(int64_t{1})}));
  EXPECT_EQ(heap.in_set_memo()->Find(key), nullptr);
  fill(heap.in_set_memo());
  ASSERT_TRUE(heap.Insert(Tuple({Value(int64_t{2})}), nullptr).ok());
  EXPECT_EQ(heap.in_set_memo()->Find(key), nullptr);
  fill(heap.in_set_memo());
  ASSERT_TRUE(heap.Delete(rid, nullptr).ok());
  EXPECT_EQ(heap.in_set_memo()->Find(key), nullptr);
  fill(heap.in_set_memo());
  heap.Drop();
  EXPECT_EQ(heap.in_set_memo()->Find(key), nullptr);

  fill(tree.in_set_memo());
  tree.BulkBuild({{IndexKey{Value(int64_t{1})}, Rid{0, 0}}});
  EXPECT_EQ(tree.in_set_memo()->Find(key), nullptr);
  fill(tree.in_set_memo());
  ASSERT_TRUE(tree.Insert({Value(int64_t{2})}, Rid{0, 1}, nullptr).ok());
  EXPECT_EQ(tree.in_set_memo()->Find(key), nullptr);
  fill(tree.in_set_memo());
  ASSERT_TRUE(tree.Update({Value(int64_t{2})}, Rid{0, 1}, {Value(int64_t{3})},
                          Rid{0, 2}, nullptr)
                  .ok());
  EXPECT_EQ(tree.in_set_memo()->Find(key), nullptr);
  fill(tree.in_set_memo());
  ASSERT_TRUE(tree.Delete({Value(int64_t{3})}, Rid{0, 2}, nullptr).ok());
  EXPECT_EQ(tree.in_set_memo()->Find(key), nullptr);
  fill(tree.in_set_memo());
  tree.Drop();
  EXPECT_EQ(tree.in_set_memo()->Find(key), nullptr);
}

}  // namespace
}  // namespace tabbench
