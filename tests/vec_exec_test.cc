#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "core/tpch_families.h"
#include "exec/plan_executor.h"
#include "exec/vec/vec_executor.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace tabbench {
namespace {

/// The vectorized engine's contract: on every plan it covers, simulated
/// time, page/tuple counters, timeout behavior, and the evolution of the
/// buffer pool across a workload are bit-identical to the Volcano executor
/// — serial or with any number of helper threads. These tests run the same
/// workload on identically-seeded databases through both engines and
/// require exact (double ==, no tolerance) agreement query by query.

std::multiset<std::string> Rows(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) out.insert(row.ToString());
  return out;
}

/// Runs `sql` back-to-back on `db`'s shared pool (the Database::Run
/// pattern: fresh context per query, warm pool across queries) through the
/// chosen engine. `pool` enables intra-query parallelism.
std::vector<QueryResult> RunAll(Database* db,
                                const std::vector<std::string>& sql,
                                bool vectorized, ThreadPool* pool = nullptr,
                                size_t morsel_pages = 32) {
  std::vector<QueryResult> out;
  db->buffer_pool()->Clear();
  for (const auto& q : sql) {
    ExecContext ctx =
        db->MakeSessionContext(db->buffer_pool(), db->options().cost);
    Result<QueryResult> r = [&] {
      if (!vectorized) return db->RunWithContext(q, &ctx);
      vec::VecExecOptions vopts;
      vopts.pool = pool;
      vopts.morsel_pages = morsel_pages;
      return db->RunWithContextVectorized(q, &ctx, vopts);
    }();
    EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    out.push_back(r.ok() ? *r : QueryResult{});
  }
  return out;
}

void ExpectBitIdentical(const std::vector<QueryResult>& volcano,
                        const std::vector<QueryResult>& vec,
                        const std::vector<std::string>& sql) {
  ASSERT_EQ(volcano.size(), vec.size());
  for (size_t i = 0; i < volcano.size(); ++i) {
    SCOPED_TRACE(sql[i]);
    // Exact double equality — the whole point of the charge-trace design.
    EXPECT_EQ(volcano[i].sim_seconds, vec[i].sim_seconds);
    EXPECT_EQ(volcano[i].pages_read, vec[i].pages_read);
    EXPECT_EQ(volcano[i].tuples_processed, vec[i].tuples_processed);
    EXPECT_EQ(volcano[i].timed_out, vec[i].timed_out);
    // Aggregate outputs are emitted in a different (but deterministic)
    // group order than Volcano's hash iteration; rows compare as multisets.
    EXPECT_EQ(Rows(volcano[i]), Rows(vec[i]));
  }
}

/// TinyDb queries covering every vectorized operator: scan+filter+project,
/// grouped/distinct aggregation, hash join, IN-subquery sets, and (once a
/// configuration is applied) index scans and index nested-loop joins.
std::vector<std::string> TinyQueries() {
  return {
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
      "SELECT p.city, COUNT(DISTINCT p.dept) FROM people p "
      "WHERE p.score = 17 GROUP BY p.city",
      "SELECT COUNT(*) FROM people p WHERE p.score = 123456",  // empty
      "SELECT p.id, d.region FROM people p, depts d "
      "WHERE p.dept = d.dept_id AND d.region = 2",
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region",
      "SELECT p.id FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  };
}

TEST(VecExecTest, GoldenTinyDbSerialVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true);
  ExpectBitIdentical(volcano, vec, sql);
}

TEST(VecExecTest, GoldenTinyDbParallelVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  // Small morsels force many claim-loop iterations per scan.
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/4);
  ExpectBitIdentical(volcano, vec, sql);
}

TEST(VecExecTest, GoldenTinyDbWithIndexesParallelVectorized) {
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  Configuration one_c = Make1CConfig(a.db->catalog());
  ASSERT_TRUE(a.db->ApplyConfiguration(one_c).ok());
  ASSERT_TRUE(b.db->ApplyConfiguration(one_c).ok());
  std::vector<std::string> sql = TinyQueries();
  auto volcano = RunAll(a.db.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  auto vec = RunAll(b.db.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/4);
  ExpectBitIdentical(volcano, vec, sql);
}

/// One figure-workload golden run per database family, under a built
/// configuration so index plans appear.
struct GoldenCase {
  const char* name;
  bool tpch;
};

// Without this, gtest prints the struct's raw bytes (a pointer plus
// padding), so the listed test names change from one build or run to the
// next.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class VecGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(VecGoldenTest, FigureWorkloadBitIdentical) {
  GoldenCase c = GetParam();
  auto make = [&] {
    return c.tpch ? testing::MakeMiniTpch(4000.0, 1.0)
                  : testing::MakeMiniNref(4000.0);
  };
  std::unique_ptr<Database> a = make();
  std::unique_ptr<Database> b = make();
  QueryFamily family = c.tpch ? GenerateTpch3Js(a->catalog(), a->stats())
                              : GenerateNref2J(a->catalog(), a->stats());
  ASSERT_FALSE(family.queries.empty());
  auto sampled = SampleFamily(family, a.get(), 8, /*seed=*/7);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  std::vector<std::string> sql = sampled->Sql();

  Configuration one_c = Make1CConfig(a->catalog());
  ASSERT_TRUE(a->ApplyConfiguration(one_c).ok());
  ASSERT_TRUE(b->ApplyConfiguration(one_c).ok());

  auto volcano = RunAll(a.get(), sql, /*vectorized=*/false);
  ThreadPool pool(8);
  auto vec = RunAll(b.get(), sql, /*vectorized=*/true, &pool,
                    /*morsel_pages=*/8);
  ExpectBitIdentical(volcano, vec, sql);
}

INSTANTIATE_TEST_SUITE_P(Families, VecGoldenTest,
                         ::testing::Values(GoldenCase{"nref2j", false},
                                           GoldenCase{"tpch3js", true}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------------- timeouts

TEST(VecExecTest, TimeoutBitIdentical) {
  // A timeout small enough that the big scan trips it mid-flight: both
  // engines must censor at the same simulated instant and leave the same
  // pool state for the *next* query.
  testing::TinyDb a = testing::TinyDb::Make();
  testing::TinyDb b = testing::TinyDb::Make();
  CostParams tight = a.db->options().cost;
  tight.timeout_seconds = tight.page_io_seconds * 3;

  std::vector<std::string> sql = {
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
  };
  std::vector<QueryResult> volcano;
  a.db->buffer_pool()->Clear();
  for (const auto& q : sql) {
    ExecContext ctx = a.db->MakeSessionContext(a.db->buffer_pool(), tight);
    auto r = a.db->RunWithContext(q, &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    volcano.push_back(*r);
  }
  ASSERT_TRUE(volcano[0].timed_out);

  std::vector<QueryResult> vec;
  b.db->buffer_pool()->Clear();
  ThreadPool pool(4);
  for (const auto& q : sql) {
    ExecContext ctx = b.db->MakeSessionContext(b.db->buffer_pool(), tight);
    vec::VecExecOptions vopts;
    vopts.pool = &pool;
    vopts.morsel_pages = 4;
    auto r = b.db->RunWithContextVectorized(q, &ctx, vopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    vec.push_back(*r);
  }
  ExpectBitIdentical(volcano, vec, sql);
  EXPECT_TRUE(vec[0].timed_out);
  EXPECT_TRUE(vec[0].rows.empty());
}

// ---------------------------------------------------------- cancellation

TEST(VecExecTest, CancelledTokenStopsMorselDispatch) {
  testing::TinyDb t = testing::TinyDb::Make();
  CancellationToken token;
  token.RequestCancel();
  ExecContext ctx = t.db->MakeSessionContext(t.db->buffer_pool(),
                                             t.db->options().cost);
  ctx.set_cancellation_token(token);
  ThreadPool pool(4);
  vec::VecExecOptions vopts;
  vopts.pool = &pool;
  vopts.morsel_pages = 2;
  auto r = t.db->RunWithContextVectorized(
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3", &ctx, vopts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
}

// ----------------------------------------------------------------- chaos

/// Disarms every fault point on scope exit so a failing ASSERT cannot leak
/// an armed schedule into later tests.
struct FaultGuard {
  FaultGuard() { FaultRegistry::Global().DisarmAll(); }
  ~FaultGuard() { FaultRegistry::Global().DisarmAll(); }
};

TEST(VecExecTest, MorselFaultCensorsQueryAndRunContinues) {
  FaultGuard guard;
  testing::TinyDb t = testing::TinyDb::Make();
  // Fault schedules are per-query FaultScopes (RunWorkload seeds one per
  // query), so kOnce fires in every query: all of them must be censored at
  // the timeout cost with the run itself completing.
  FaultSpec spec;
  spec.point = "exec.vec.morsel";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kOnce;
  ASSERT_TRUE(FaultRegistry::Global().Arm(spec).ok());

  std::vector<std::string> sql = {
      "SELECT p.id, p.city FROM people p WHERE p.dept = 3",
      "SELECT p.city, COUNT(*) FROM people p GROUP BY p.city",
  };
  RunOptions opts;
  opts.executor = QueryExecutor::kVectorized;
  auto res = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->timings.size(), 2u);
  EXPECT_EQ(res->failures, 2u);
  EXPECT_TRUE(res->timings[0].failed);

  // Disarmed, the same workload runs clean again (nothing leaked).
  FaultRegistry::Global().DisarmAll();
  auto clean = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->failures, 0u);
  EXPECT_FALSE(clean->timings[0].timed_out);
}

TEST(VecExecTest, ProbabilisticMorselFaultPartiallyCensors) {
  FaultGuard guard;
  testing::TinyDb t = testing::TinyDb::Make();
  // Probability trigger: per-query scopes draw independent (seeded,
  // reproducible) decisions, so some queries are censored and others
  // survive — the failure-isolation contract under intra-query parallelism.
  FaultSpec spec;
  spec.point = "exec.vec.morsel";
  spec.code = Status::Code::kUnavailable;
  spec.trigger = FaultSpec::Trigger::kProbability;
  spec.probability = 0.5;
  spec.seed = 11;
  ASSERT_TRUE(FaultRegistry::Global().Arm(spec).ok());

  std::vector<std::string> sql;
  for (int i = 0; i < 6; ++i) {
    sql.push_back("SELECT p.id, p.city FROM people p WHERE p.dept = " +
                  std::to_string(i));
  }
  RunOptions opts;
  opts.executor = QueryExecutor::kVectorized;
  ThreadPool pool(4);
  opts.intra_query_pool = &pool;
  auto res = RunWorkload(t.db.get(), sql, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->timings.size(), sql.size());
  EXPECT_GT(res->failures, 0u);
  EXPECT_LT(res->failures, sql.size());
}

// ------------------------------------------------------------ edge cases

TEST(VecExecTest, EmptyTableScanAndScalarAggregate) {
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

  std::vector<std::string> sql = {
      "SELECT t.a FROM t WHERE t.b = 1",
      "SELECT COUNT(*) FROM t",
  };
  for (const auto& q : sql) {
    ExecContext cv = db.MakeSessionContext(db.buffer_pool(), db.options().cost);
    auto volcano = db.RunWithContext(q, &cv);
    ASSERT_TRUE(volcano.ok()) << q;
    ExecContext cx = db.MakeSessionContext(db.buffer_pool(), db.options().cost);
    auto vec = db.RunWithContextVectorized(q, &cx, {});
    ASSERT_TRUE(vec.ok()) << q;
    EXPECT_EQ(volcano->sim_seconds, vec->sim_seconds) << q;
    EXPECT_EQ(Rows(*volcano), Rows(*vec)) << q;
  }
}

// ------------------------------------------------------ IN-set memo fills

TEST(VecExecTest, ConcurrentSessionsFillAColdInSetMemoIdentically) {
  // Sessions share storage, so their IN-set materializations race to fill
  // the same memo entries. Each session must see exactly what a serial,
  // memo-cold run sees, whichever thread stores first and whether its
  // IN-sets are scanned or replayed, through either engine.
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
  auto run = [&](bool vectorized) {
    Session s;
    BufferPool pool(pool_pages);
    ExecContext ctx = db->MakeSessionContext(&pool, cost);
    s.result = vectorized
                   ? db->RunWithContextVectorized(sql, &ctx, vec::VecExecOptions{})
                   : db->RunWithContext(sql, &ctx);
    s.pool = pool.stats();
    return s;
  };

  testing::ClearInSetMemos(*db, plan);
  const Session reference = run(/*vectorized=*/false);
  ASSERT_TRUE(reference.result.ok()) << reference.result.status().ToString();

  testing::ClearInSetMemos(*db, plan);
  constexpr size_t kSessions = 4;
  std::vector<Session> sessions(kSessions);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back(
        [&, i] { sessions[i] = run(/*vectorized=*/i % 2 == 1); });
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

TEST(VecExecTest, JoinResidualsMatchTheReferenceOnEveryJoinOperator) {
  // Hash join, and index nested-loop join with a fetched and with an
  // index-only inner, each evaluating an outer-vs-inner residual on the
  // (outer, inner) pair: both engines must give the reference answer with
  // identical simulated costs.
  std::unique_ptr<Database> db = testing::MakeMiniNref(4000.0);
  ASSERT_NE(db, nullptr);
  const std::multiset<std::string> want = ReferenceJoinResidualRows(*db);
  // The answer the executors gave before joins filtered the pair, when
  // every inner row was concatenated first.
  const std::multiset<std::string> before = {
      "('name_00000', 1)", "('name_00001', 2)", "('name_00002', 1)",
      "('name_00008', 2)", "('name_00009', 1)", "('name_00013', 2)",
      "('name_00114', 1)", "('name_00117', 2)", "('name_00118', 1)"};
  ASSERT_EQ(want, before);

  // Simulated costs are pinned to what the executors charged before,
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
  ThreadPool pool(4);
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

    auto run = [&](bool vectorized) {
      BufferPool bp(db->options().buffer_pool_pages);
      ExecContext ctx = db->MakeSessionContext(&bp, db->options().cost);
      vec::VecExecOptions vopts;
      vopts.pool = &pool;
      vopts.morsel_pages = 4;
      return vectorized ? vec::ExecutePlanVectorized(*plan, *db, &ctx, vopts)
                        : ExecutePlan(*plan, *db, &ctx);
    };
    Result<QueryResult> volcano = run(false);
    ASSERT_TRUE(volcano.ok()) << volcano.status().ToString();
    Result<QueryResult> vectorized = run(true);
    ASSERT_TRUE(vectorized.ok()) << vectorized.status().ToString();
    EXPECT_FALSE(volcano->timed_out);
    EXPECT_EQ(Rows(*volcano), want);
    EXPECT_EQ(Rows(*vectorized), want);
    EXPECT_EQ(volcano->sim_seconds, vectorized->sim_seconds);
    EXPECT_EQ(volcano->pages_read, vectorized->pages_read);
    EXPECT_EQ(volcano->tuples_processed, vectorized->tuples_processed);
    EXPECT_EQ(volcano->sim_seconds, c.sim_seconds);
    EXPECT_EQ(volcano->pages_read, c.pages_read);
    EXPECT_EQ(volcano->tuples_processed, c.tuples_processed);
  }
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

}  // namespace
}  // namespace tabbench
