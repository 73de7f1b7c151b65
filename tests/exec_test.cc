#include <gtest/gtest.h>

#include <memory>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/configurations.h"
#include "engine/database.h"
#include "exec/operators.h"
#include "test_util.h"

namespace tabbench {
namespace {

using testing::TinyDb;

/// Brute-force reference evaluation for the TinyDb join-aggregate queries,
/// independent of the executor: materializes tables via raw heap scans.
std::vector<Tuple> ScanAll(const Database& db, const std::string& table) {
  std::vector<Tuple> rows;
  const HeapTable* heap = db.FindHeap(table);
  auto cur = heap->Scan(nullptr);
  Tuple t;
  while (cur.Next(&t, nullptr)) rows.push_back(t);
  return rows;
}

std::multiset<std::string> RowsAsStrings(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const auto& r : rows) out.insert(r.ToString());
  return out;
}

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tiny_ = std::make_unique<TinyDb>(TinyDb::Make(4000, 40));
  }
  static void TearDownTestSuite() {
    tiny_.reset();
  }
  Database* db() { return tiny_->db.get(); }

  static std::unique_ptr<TinyDb> tiny_;
};

std::unique_ptr<TinyDb> ExecTest::tiny_;

TEST_F(ExecTest, SeqScanFilterCount) {
  // Reference: count people in dept 7.
  int64_t expected = 0;
  for (const auto& r : ScanAll(*db(), "people")) {
    if (r.at(1) == Value(int64_t{7})) ++expected;
  }
  auto res = db()->Run(
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 7 "
      "GROUP BY p.dept");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(1).as_int(), expected);
}

TEST_F(ExecTest, EmptyFilterYieldsNoGroups) {
  auto res = db()->Run(
      "SELECT p.dept, COUNT(*) FROM people p WHERE p.dept = 99999 "
      "GROUP BY p.dept");
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->rows.empty());
}

TEST_F(ExecTest, ScalarAggregateOnEmptyInputYieldsZeroRow) {
  auto res = db()->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 99999");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(0).as_int(), 0);
}

TEST_F(ExecTest, JoinAggregateMatchesReference) {
  // COUNT per region of people joined to depts.
  std::map<int64_t, int64_t> expected;
  auto people = ScanAll(*db(), "people");
  auto depts = ScanAll(*db(), "depts");
  std::map<int64_t, int64_t> dept_region;
  for (const auto& d : depts) dept_region[d.at(0).as_int()] = d.at(1).as_int();
  for (const auto& p : people) {
    auto it = dept_region.find(p.at(1).as_int());
    if (it != dept_region.end()) expected[it->second]++;
  }

  auto res = db()->Run(
      "SELECT d.region, COUNT(*) FROM people p, depts d "
      "WHERE p.dept = d.dept_id GROUP BY d.region");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::map<int64_t, int64_t> actual;
  for (const auto& r : res->rows) {
    actual[r.at(0).as_int()] = r.at(1).as_int();
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(ExecTest, CountDistinctMatchesReference) {
  std::map<int64_t, std::set<std::string>> expected;
  for (const auto& p : ScanAll(*db(), "people")) {
    expected[p.at(1).as_int()].insert(p.at(2).as_string());
  }
  auto res = db()->Run(
      "SELECT p.dept, COUNT(DISTINCT p.city) FROM people p GROUP BY p.dept");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->rows.size(), expected.size());
  for (const auto& r : res->rows) {
    EXPECT_EQ(static_cast<size_t>(r.at(1).as_int()),
              expected[r.at(0).as_int()].size());
  }
}

TEST_F(ExecTest, InFrequencySubqueryMatchesReference) {
  // People whose city occurs fewer than 20 times.
  std::map<std::string, int64_t> city_freq;
  for (const auto& p : ScanAll(*db(), "people")) {
    city_freq[p.at(2).as_string()]++;
  }
  int64_t expected = 0;
  for (const auto& p : ScanAll(*db(), "people")) {
    if (city_freq[p.at(2).as_string()] < 20) ++expected;
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people p WHERE p.city IN "
      "(SELECT city FROM people GROUP BY city HAVING COUNT(*) < 20)");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, InFrequencyEqualitySubquery) {
  std::map<std::string, int64_t> city_freq;
  for (const auto& p : ScanAll(*db(), "people")) {
    city_freq[p.at(2).as_string()]++;
  }
  int64_t f = city_freq.begin()->second;
  int64_t expected = 0;
  for (const auto& [c, n] : city_freq) {
    if (n == f) expected += n;
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people p WHERE p.city IN "
      "(SELECT city FROM people GROUP BY city HAVING COUNT(*) = " +
      std::to_string(f) + ")");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, SelfJoinCountsPairs) {
  // Pairs of people in the same dept with a filter on one side's city:
  // reference via group counts.
  std::map<int64_t, int64_t> dept_count;
  int64_t expected = 0;
  std::vector<Tuple> people = ScanAll(*db(), "people");
  for (const auto& p : people) dept_count[p.at(1).as_int()]++;
  for (const auto& p : people) {
    if (p.at(2) == Value(std::string("city3"))) {
      expected += dept_count[p.at(1).as_int()];
    }
  }
  auto res = db()->Run(
      "SELECT COUNT(*) FROM people a, people b "
      "WHERE a.dept = b.dept AND a.city = 'city3'");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0].at(0).as_int(), expected);
}

TEST_F(ExecTest, ResultsIdenticalAcrossConfigurations) {
  // The physical design must never change results: run a battery of
  // queries under P and under 1C and compare row multisets.
  const std::vector<std::string> queries = {
      "SELECT p.city, COUNT(*) FROM people p, depts d WHERE p.dept = "
      "d.dept_id AND d.region = 2 GROUP BY p.city",
      "SELECT p.dept, COUNT(DISTINCT p.city) FROM people p WHERE "
      "p.score = 17 GROUP BY p.dept",
      "SELECT d.region, COUNT(*) FROM people p, depts d WHERE p.city = "
      "d.city GROUP BY d.region",
      "SELECT COUNT(*) FROM people p WHERE p.city IN (SELECT city FROM "
      "people GROUP BY city HAVING COUNT(*) < 10)",
  };
  std::vector<std::multiset<std::string>> p_results;
  ASSERT_TRUE(db()->ResetToPrimary().ok());
  for (const auto& q : queries) {
    auto res = db()->Run(q);
    ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
    ASSERT_FALSE(res->timed_out) << q;
    p_results.push_back(RowsAsStrings(res->rows));
  }
  auto rep = db()->ApplyConfiguration(Make1CConfig(db()->catalog()));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto res = db()->Run(queries[i]);
    ASSERT_TRUE(res.ok()) << queries[i];
    EXPECT_EQ(RowsAsStrings(res->rows), p_results[i]) << queries[i];
  }
  ASSERT_TRUE(db()->ResetToPrimary().ok());
}

TEST_F(ExecTest, SimulatedTimeAdvancesWithWork) {
  db()->buffer_pool()->Clear();
  auto res = db()->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 1");
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->sim_seconds, 0.0);
  EXPECT_GT(res->pages_read, 0u);
  EXPECT_GT(res->tuples_processed, 0u);
}

TEST_F(ExecTest, WarmBufferPoolIsCheaper) {
  db()->buffer_pool()->Clear();
  auto cold = db()->Run("SELECT COUNT(*) FROM depts d WHERE d.region = 1");
  ASSERT_TRUE(cold.ok());
  auto warm = db()->Run("SELECT COUNT(*) FROM depts d WHERE d.region = 1");
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->sim_seconds, cold->sim_seconds);
}

TEST(ExecTimeoutTest, TimeoutTripsAndClamps) {
  // A database whose timeout is microscopic: the first page access trips it.
  DatabaseOptions opts;
  opts.cost.timeout_seconds = 1e-7;
  Database db2(opts);
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db2.CreateTable(t).ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db2.Insert("t", Tuple({Value(i)})).ok());
  }
  ASSERT_TRUE(db2.FinishLoad().ok());
  auto res = db2.Run("SELECT COUNT(*) FROM t WHERE t.a = 5");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->timed_out);
  EXPECT_TRUE(res->rows.empty());
  EXPECT_DOUBLE_EQ(res->sim_seconds, opts.cost.timeout_seconds);
}

TEST(ExecSpillTest, LargeAggregateChargesSpillIo) {
  // Tiny work_mem forces the group hash table to spill; the same aggregate
  // with plenty of work_mem charges less.
  auto run_with_workmem = [](size_t pages) {
    DatabaseOptions opts;
    opts.buffer_pool_pages = 1024;
    opts.cost.work_mem_pages = pages;
    opts.cost.page_io_seconds = 0.01;
    opts.cost.random_io_seconds = 0.001;
    Database db(opts);
    TableDef t;
    t.name = "t";
    t.columns = {{"a", TypeId::kInt, "d", true, 8},
                 {"b", TypeId::kString, "s", true, 40}};
    t.primary_key = {"a"};
    EXPECT_TRUE(db.CreateTable(t).ok());
    for (int64_t i = 0; i < 20000; ++i) {
      EXPECT_TRUE(
          db.Insert("t", Tuple({Value(i), Value("group_" + std::to_string(i))}))
              .ok());
    }
    EXPECT_TRUE(db.FinishLoad().ok());
    auto res = db.Run("SELECT t.b, COUNT(*) FROM t GROUP BY t.b");
    EXPECT_TRUE(res.ok());
    return res->sim_seconds;
  };
  double spilled = run_with_workmem(2);
  double in_memory = run_with_workmem(100000);
  EXPECT_GT(spilled, in_memory * 1.2);
}

// ------------------------------------------------- joined-row predicates

/// Every (left, right) split of a 5-column joined row (int, string, int,
/// string, int), over per-type value pools with NULLs: a predicate read on
/// the pair must agree with the same predicate read on the concatenated
/// row, wherever its positions fall relative to the boundary.
TEST(CompiledPredTest, EvalJoinedMatchesEvalOnTheConcatenatedRow) {
  constexpr size_t kWidth = 5;
  auto is_string_col = [](size_t c) { return c % 2 == 1; };
  const std::vector<Value> ints = {Value(), Value(int64_t{1}),
                                   Value(int64_t{2})};
  const std::vector<Value> strings = {Value(), Value(std::string("a")),
                                      Value(std::string("b"))};
  const std::unordered_set<Value, ValueHash> int_set = {Value(int64_t{2})};
  const std::unordered_set<Value, ValueHash> string_set = {
      Value(std::string("a"))};
  // Joined rows: every combination of the pools (3^5 rows).
  std::vector<std::vector<Value>> rows(1);
  for (size_t c = 0; c < kWidth; ++c) {
    std::vector<std::vector<Value>> next;
    for (const auto& prefix : rows) {
      for (const Value& v : is_string_col(c) ? strings : ints) {
        next.push_back(prefix);
        next.back().push_back(v);
      }
    }
    rows = std::move(next);
  }
  ASSERT_EQ(rows.size(), 243u);
  std::vector<CompiledPred> preds;
  for (size_t a = 0; a < kWidth; ++a) {
    for (const Value& lit : is_string_col(a) ? strings : ints) {
      CompiledPred p;
      p.kind = ResidualPred::Kind::kColEqLit;
      p.pos_a = static_cast<int>(a);
      p.literal = lit;
      preds.push_back(p);
    }
    CompiledPred in;
    in.kind = ResidualPred::Kind::kInSet;
    in.pos_a = static_cast<int>(a);
    in.in_set = is_string_col(a) ? &string_set : &int_set;
    preds.push_back(in);
    for (size_t b = 0; b < kWidth; ++b) {
      if (is_string_col(a) != is_string_col(b)) continue;
      CompiledPred eq;
      eq.kind = ResidualPred::Kind::kColEqCol;
      eq.pos_a = static_cast<int>(a);
      eq.pos_b = static_cast<int>(b);
      preds.push_back(eq);
    }
  }
  size_t true_on_both_sides = 0;
  for (size_t split = 0; split <= kWidth; ++split) {
    for (const auto& row : rows) {
      const std::vector<Value> left(row.begin(), row.begin() + split);
      const std::vector<Value> right(row.begin() + split, row.end());
      const Tuple joined = Tuple::Concat(left, right);
      for (const CompiledPred& p : preds) {
        const bool want = p.Eval(joined);
        ASSERT_EQ(p.EvalJoined(left, right), want)
            << "kind " << static_cast<int>(p.kind) << " pos " << p.pos_a
            << "/" << p.pos_b << " split " << split << " row "
            << joined.ToString();
        if (want && p.kind == ResidualPred::Kind::kColEqCol &&
            (p.pos_a < static_cast<int>(split)) !=
                (p.pos_b < static_cast<int>(split))) {
          ++true_on_both_sides;
        }
      }
    }
  }
  // Cross-boundary equalities did hold on some rows (not all-false).
  EXPECT_GT(true_on_both_sides, 0u);

  // EvalPredsJoined is the conjunction, over the same split.
  const std::vector<Value> left = {Value(int64_t{2}), Value(std::string("a"))};
  const std::vector<Value> right = {Value(), Value(std::string("a")),
                                    Value(int64_t{2})};
  std::vector<CompiledPred> conj(2);
  conj[0].kind = ResidualPred::Kind::kColEqCol;
  conj[0].pos_a = 1;
  conj[0].pos_b = 3;
  conj[1].kind = ResidualPred::Kind::kInSet;
  conj[1].pos_a = 4;
  conj[1].in_set = &int_set;
  EXPECT_TRUE(EvalPredsJoined(conj, left, right));
  EXPECT_EQ(EvalPredsJoined(conj, left, right),
            EvalPreds(conj, Tuple::Concat(left, right)));
  conj[1].pos_a = 2;  // NULL is never in an IN-set
  EXPECT_FALSE(EvalPredsJoined(conj, left, right));
  EXPECT_EQ(EvalPredsJoined(conj, left, right),
            EvalPreds(conj, Tuple::Concat(left, right)));
}

}  // namespace
}  // namespace tabbench
