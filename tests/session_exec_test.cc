#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/nref_families.h"
#include "core/sampling.h"
#include "exec/plan_executor.h"
#include "test_util.h"

namespace tabbench {
namespace {

/// Volcano execution through session contexts: an empty-table edge case,
/// concurrent sessions racing to fill the shared IN-set memo, and join
/// residuals evaluated on the (outer, inner) pair. The concurrent test is
/// why this file is built into the `concurrency`-labelled suite, which CI
/// also runs under TABBENCH_SANITIZE=thread.

std::multiset<std::string> Rows(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) out.insert(row.ToString());
  return out;
}

// ------------------------------------------------------------ edge cases

TEST(SessionExecTest, EmptyTableScanAndScalarAggregate) {
  Database db;
  TableDef def;
  def.name = "t";
  ColumnDef ca;
  ca.name = "a";
  ColumnDef cb;
  cb.name = "b";
  def.columns = {ca, cb};
  def.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(def).ok());
  ASSERT_TRUE(db.FinishLoad().ok());

  ExecContext scan_ctx =
      db.MakeSessionContext(db.buffer_pool(), db.options().cost);
  auto scan = db.RunWithContext("SELECT t.a FROM t WHERE t.b = 1", &scan_ctx);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->rows.empty());
  EXPECT_FALSE(scan->timed_out);

  ExecContext agg_ctx =
      db.MakeSessionContext(db.buffer_pool(), db.options().cost);
  auto agg = db.RunWithContext("SELECT COUNT(*) FROM t", &agg_ctx);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(Rows(*agg), (std::multiset<std::string>{"(0)"}));
  EXPECT_FALSE(agg->timed_out);
}

// ------------------------------------------------------ IN-set memo fills

TEST(SessionExecTest, ConcurrentSessionsFillAColdInSetMemoIdentically) {
  // Sessions share storage, so their IN-set materializations race to fill
  // the same memo entries. Each session must see exactly what a serial,
  // memo-cold run sees, whichever thread stores first and whether its
  // IN-sets are scanned or replayed.
  std::unique_ptr<Database> db = testing::MakeMiniNref(4000.0);
  ASSERT_NE(db, nullptr);
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  auto sampled = SampleFamily(family, db.get(), 8, /*seed=*/7);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  std::string sql;
  PhysicalPlan plan;
  for (const std::string& q : sampled->Sql()) {
    auto p = db->Plan(q);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    if (!p->in_sets.empty()) {
      sql = q;
      plan = p.TakeValue();
      break;
    }
  }
  ASSERT_FALSE(sql.empty()) << "no sampled NREF2J query has an IN-set";

  const CostParams cost = db->options().cost;
  const size_t pool_pages = db->options().buffer_pool_pages;
  struct Session {
    Result<QueryResult> result = Status::Internal("not run");
    BufferPoolStats pool;
  };
  auto run = [&] {
    Session s;
    BufferPool pool(pool_pages);
    ExecContext ctx = db->MakeSessionContext(&pool, cost);
    s.result = db->RunWithContext(sql, &ctx);
    s.pool = pool.stats();
    return s;
  };

  testing::ClearInSetMemos(*db, plan);
  const Session reference = run();
  ASSERT_TRUE(reference.result.ok()) << reference.result.status().ToString();

  testing::ClearInSetMemos(*db, plan);
  constexpr size_t kSessions = 4;
  std::vector<Session> sessions(kSessions);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] { sessions[i] = run(); });
  }
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE(i);
    const Session& s = sessions[i];
    ASSERT_TRUE(s.result.ok()) << s.result.status().ToString();
    EXPECT_EQ(s.result->sim_seconds, reference.result->sim_seconds);
    EXPECT_EQ(s.result->pages_read, reference.result->pages_read);
    EXPECT_EQ(s.result->tuples_processed, reference.result->tuples_processed);
    EXPECT_EQ(s.result->timed_out, reference.result->timed_out);
    EXPECT_EQ(Rows(*s.result), Rows(*reference.result));
    EXPECT_EQ(s.pool.hits, reference.pool.hits);
    EXPECT_EQ(s.pool.misses, reference.pool.misses);
    EXPECT_EQ(s.pool.resident, reference.pool.resident);
  }
}

// ------------------------------------------- join residuals on the pair

/// NREF2J's shape (PAPER.md S6: a join, an IN-subquery per side, GROUP BY,
/// COUNT) with a second join equality (ordinal = p_id) that the joins
/// below evaluate as a residual across the join boundary.
constexpr char kJoinResidualSql[] =
    "SELECT r.name, COUNT(*) FROM organism r, source s "
    "WHERE r.taxon_id = s.taxon_id AND r.ordinal = s.p_id "
    "AND r.taxon_id IN (SELECT taxon_id FROM organism GROUP BY taxon_id "
    "HAVING COUNT(*) < 4) "
    "AND s.taxon_id IN (SELECT taxon_id FROM source GROUP BY taxon_id "
    "HAVING COUNT(*) < 4) GROUP BY r.name";

std::vector<Tuple> HeapRows(const Database& db, const std::string& table) {
  std::vector<Tuple> rows;
  auto cur = db.FindHeap(table)->Scan(nullptr);
  Tuple t;
  while (cur.Next(&t, nullptr)) rows.push_back(t);
  return rows;
}

/// kJoinResidualSql evaluated by nested loops over raw heap rows, sharing
/// no code with the planner or the operators.
std::multiset<std::string> ReferenceJoinResidualRows(const Database& db) {
  const std::vector<Tuple> organism = HeapRows(db, "organism");
  const std::vector<Tuple> source = HeapRows(db, "source");
  constexpr size_t kOrgOrdinal = 1, kOrgTaxon = 2, kOrgName = 3,
                   kSrcPid = 1, kSrcTaxon = 2;
  auto rare = [](const std::vector<Tuple>& rows, size_t col) {
    std::map<std::string, std::pair<Value, int>> counts;
    for (const auto& r : rows) {
      auto& [v, n] = counts[r.at(col).ToString()];
      v = r.at(col);
      ++n;
    }
    std::vector<Value> out;
    for (const auto& [k, vn] : counts) {
      if (vn.second < 4 && !vn.first.is_null()) out.push_back(vn.first);
    }
    return out;
  };
  auto in = [](const std::vector<Value>& set, const Value& v) {
    return std::find(set.begin(), set.end(), v) != set.end();
  };
  const std::vector<Value> org_set = rare(organism, kOrgTaxon);
  const std::vector<Value> src_set = rare(source, kSrcTaxon);
  std::map<std::string, std::pair<Value, int64_t>> groups;
  for (const auto& r : organism) {
    if (!in(org_set, r.at(kOrgTaxon))) continue;
    for (const auto& s : source) {
      if (!in(src_set, s.at(kSrcTaxon))) continue;
      if (r.at(kOrgTaxon) == s.at(kSrcTaxon) &&
          r.at(kOrgOrdinal) == s.at(kSrcPid)) {
        auto& [v, n] = groups[r.at(kOrgName).ToString()];
        v = r.at(kOrgName);
        ++n;
      }
    }
  }
  std::multiset<std::string> out;
  for (const auto& [k, vn] : groups) {
    out.insert(Tuple({vn.first, Value(vn.second)}).ToString());
  }
  return out;
}

PlanNode* FindNode(PlanNode* node, PlanNode::Kind kind) {
  if (node->kind == kind) return node;
  for (auto& c : node->children) {
    if (PlanNode* hit = FindNode(c.get(), kind)) return hit;
  }
  return nullptr;
}

/// Residual column equalities whose sides come from different join inputs.
size_t CrossResiduals(const PlanNode& join) {
  const int left_width =
      static_cast<int>(join.children[0]->output_cols.size());
  size_t n = 0;
  for (const auto& p : join.residual) {
    if (p.kind != ResidualPred::Kind::kColEqCol) continue;
    if ((join.FindSlot(p.a) < left_width) != (join.FindSlot(p.b) < left_width)) {
      ++n;
    }
  }
  return n;
}

TEST(SessionExecTest, JoinResidualsMatchTheReferenceOnEveryJoinOperator) {
  // Hash join, and index nested-loop join with a fetched and with an
  // index-only inner, each evaluating an outer-vs-inner residual on the
  // (outer, inner) pair, must give the reference answer at the pinned
  // simulated costs.
  std::unique_ptr<Database> db = testing::MakeMiniNref(4000.0);
  ASSERT_NE(db, nullptr);
  const std::multiset<std::string> want = ReferenceJoinResidualRows(*db);
  // The answer the executor gave before joins filtered the pair, when
  // every inner row was concatenated first.
  const std::multiset<std::string> before = {
      "('name_00000', 1)", "('name_00001', 2)", "('name_00002', 1)",
      "('name_00008', 2)", "('name_00009', 1)", "('name_00013', 2)",
      "('name_00114', 1)", "('name_00117', 2)", "('name_00118', 1)"};
  ASSERT_EQ(want, before);

  // Simulated costs are pinned to what the executor charged before,
  // too: filtering the pair moves no charge.
  struct Case {
    const char* name;
    std::vector<IndexDef> indexes;
    PlanNode::Kind join;
    bool index_only;
    double sim_seconds;
    uint64_t pages_read;
    uint64_t tuples_processed;
  };
  const std::vector<Case> cases = {
      {"hash_join", {}, PlanNode::Kind::kHashJoin, false,
       0x1.8ce075f6fd4f1p+2, 9, 2148},
      {"inlj_fetched",
       {{"ix_s_taxon", "source", {"taxon_id"}, false}},
       PlanNode::Kind::kIndexNLJoin, false,
       0x1.0bc01a36e2ea1p+2, 12, 2215},
      {"inlj_index_only",
       {{"ix_s_taxon_acc_pid", "source", {"taxon_id", "accession", "p_id"},
         false}},
       PlanNode::Kind::kIndexNLJoin, true,
       0x1.3b2fec56d5e79p+2, 7, 1787},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Configuration config;
    config.name = c.name;
    config.indexes = c.indexes;
    auto applied = db->ApplyConfiguration(config);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    auto plan = db->Plan(kJoinResidualSql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    PlanNode* join = FindNode(plan->root.get(), c.join);
    ASSERT_NE(join, nullptr) << plan->ToString();
    if (c.join == PlanNode::Kind::kHashJoin) {
      // The planner hashes on both equalities; leave the second one to the
      // join's residual instead.
      ASSERT_EQ(join->hash_keys.size(), 2u) << plan->ToString();
      ResidualPred p;
      p.kind = ResidualPred::Kind::kColEqCol;
      p.a = join->hash_keys.back().first;
      p.b = join->hash_keys.back().second;
      join->hash_keys.pop_back();
      join->residual.push_back(p);
    }
    EXPECT_EQ(join->index_only, c.index_only) << plan->ToString();
    ASSERT_EQ(CrossResiduals(*join), 1u) << plan->ToString();

    BufferPool bp(db->options().buffer_pool_pages);
    ExecContext ctx = db->MakeSessionContext(&bp, db->options().cost);
    Result<QueryResult> volcano = ExecutePlan(*plan, *db, &ctx);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    EXPECT_FALSE(volcano->timed_out);
    EXPECT_EQ(Rows(*volcano), want);
    EXPECT_EQ(volcano->sim_seconds, c.sim_seconds);
    EXPECT_EQ(volcano->pages_read, c.pages_read);
    EXPECT_EQ(volcano->tuples_processed, c.tuples_processed);
  }
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

}  // namespace
}  // namespace tabbench
