#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "stats/column_stats.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "storage/stats_collector.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace tabbench {
namespace {

std::vector<Value> IntValues(std::vector<int64_t> xs) {
  std::vector<Value> out;
  for (auto x : xs) out.emplace_back(x);
  return out;
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyInput) {
  EquiDepthHistogram h = EquiDepthHistogram::Build({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.EstimateEqRows(Value(int64_t{1})), 0.0);
}

TEST(HistogramTest, SingleValue) {
  auto h = EquiDepthHistogram::Build(IntValues({5, 5, 5, 5}), 4);
  EXPECT_EQ(h.total_rows(), 4u);
  EXPECT_DOUBLE_EQ(h.EstimateEqRows(Value(int64_t{5})), 4.0);
}

TEST(HistogramTest, BucketsCoverAllRows) {
  std::vector<Value> vals;
  for (int64_t i = 0; i < 1000; ++i) vals.emplace_back(i % 97);
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(vals, 16);
  uint64_t total = 0;
  for (const auto& b : h.buckets()) total += b.rows;
  EXPECT_EQ(total, 1000u);
}

TEST(HistogramTest, ValueNeverStraddlesBuckets) {
  // 10 copies each of 50 values: bucket boundaries must fall between values.
  std::vector<Value> vals;
  for (int64_t v = 0; v < 50; ++v) {
    for (int k = 0; k < 10; ++k) vals.emplace_back(v);
  }
  auto h = EquiDepthHistogram::Build(vals, 7);
  for (size_t i = 1; i < h.buckets().size(); ++i) {
    EXPECT_LT(h.buckets()[i - 1].upper, h.buckets()[i].upper);
  }
  // Each estimate should be ~10 (exact when distinct counts are right).
  for (int64_t v = 0; v < 50; v += 7) {
    EXPECT_NEAR(h.EstimateEqRows(Value(v)), 10.0, 5.0);
  }
}

TEST(HistogramTest, AboveMaxEstimatesZero) {
  auto h = EquiDepthHistogram::Build(IntValues({1, 2, 3}), 2);
  EXPECT_EQ(h.EstimateEqRows(Value(int64_t{99})), 0.0);
}

TEST(HistogramTest, LeEstimateMonotone) {
  std::vector<Value> vals;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    vals.emplace_back(static_cast<int64_t>(rng.Uniform(1000)));
  }
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(vals, 10);
  double prev = -1;
  for (int64_t x = 0; x <= 1000; x += 100) {
    double est = h.EstimateLeRows(Value(x));
    EXPECT_GE(est, prev - 1e9 * 0);  // non-strict monotonicity
    EXPECT_GE(est, 0.0);
    EXPECT_LE(est, 500.0);
    prev = est;
  }
}

class HistogramBucketSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HistogramBucketSweep, EstimatesSumApproxTotal) {
  size_t buckets = GetParam();
  std::vector<Value> vals;
  Rng rng(buckets);
  for (int i = 0; i < 2000; ++i) {
    vals.emplace_back(static_cast<int64_t>(rng.Uniform(200)));
  }
  std::sort(vals.begin(), vals.end());
  auto h = EquiDepthHistogram::Build(vals, buckets);
  // Summing the equality estimate over every distinct value should land
  // near the true row count (property of depth/distinct bookkeeping).
  double sum = 0;
  for (int64_t v = 0; v < 200; ++v) sum += h.EstimateEqRows(Value(v));
  EXPECT_NEAR(sum, 2000.0, 2000.0 * 0.25);
}

INSTANTIATE_TEST_SUITE_P(Buckets, HistogramBucketSweep,
                         ::testing::Values(1, 4, 16, 64, 256));

// ----------------------------------------------------------- ColumnStats

ColumnStats MakeStats(const std::vector<int64_t>& data) {
  // Route through the real collector via a heap table.
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t v : data) heap.Append(Tuple({Value(v)}));
  TableStats ts = CollectTableStats(heap, {"c"});
  return ts.columns.at("c");
}

TEST(ColumnStatsTest, BasicCounts) {
  ColumnStats cs = MakeStats({1, 1, 2, 3, 3, 3});
  EXPECT_EQ(cs.row_count, 6u);
  EXPECT_EQ(cs.num_distinct, 3u);
  EXPECT_EQ(cs.min, Value(int64_t{1}));
  EXPECT_EQ(cs.max, Value(int64_t{3}));
}

TEST(ColumnStatsTest, McvsAreExact) {
  ColumnStats cs = MakeStats({7, 7, 7, 7, 8, 8, 9});
  EXPECT_DOUBLE_EQ(cs.EstimateEqRows(Value(int64_t{7})), 4.0);
  EXPECT_DOUBLE_EQ(cs.EstimateEqRows(Value(int64_t{8})), 2.0);
}

TEST(ColumnStatsTest, NullCounting) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  heap.Append(Tuple({Value(int64_t{1})}));
  heap.Append(Tuple({Value()}));
  heap.Append(Tuple({Value()}));
  TableStats ts = CollectTableStats(heap, {"c"});
  EXPECT_EQ(ts.columns.at("c").null_count, 2u);
  EXPECT_EQ(ts.columns.at("c").num_distinct, 1u);
}

TEST(ColumnStatsTest, FreqOfFreq) {
  // Frequencies: value 1 x3, value 2 x3, value 3 x1.
  ColumnStats cs = MakeStats({1, 1, 1, 2, 2, 2, 3});
  // freq 1 -> one distinct value; freq 3 -> two distinct values.
  EXPECT_EQ(cs.DistinctWithFreqEq(1), 1u);
  EXPECT_EQ(cs.DistinctWithFreqEq(3), 2u);
  EXPECT_EQ(cs.DistinctWithFreqLess(3), 1u);
  EXPECT_DOUBLE_EQ(cs.FracRowsValueFreqLess(2), 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(cs.FracRowsValueFreqEq(3), 6.0 / 7.0);
}

TEST(ColumnStatsTest, FreqExamplesHaveStatedFrequencies) {
  std::vector<int64_t> data;
  for (int64_t v = 0; v < 10; ++v) {
    for (int64_t k = 0; k <= v; ++k) data.push_back(v);
  }
  ColumnStats cs = MakeStats(data);
  for (const auto& [f, v] : cs.freq_examples) {
    // Value v occurs exactly f times by construction (value x occurs x+1
    // times).
    EXPECT_EQ(static_cast<uint64_t>(v.as_int()) + 1, f);
  }
}

TEST(ColumnStatsTest, ExampleWithFreqNearPicksClosest) {
  std::vector<int64_t> data;
  for (int64_t v = 0; v < 8; ++v) {
    int64_t reps = int64_t{1} << v;  // freq 1,2,4,...,128
    for (int64_t k = 0; k < reps; ++k) data.push_back(v);
  }
  ColumnStats cs = MakeStats(data);
  uint64_t f = 0;
  Value v = cs.ExampleWithFreqNear(120, &f);
  EXPECT_EQ(f, 128u);
  EXPECT_EQ(v, Value(int64_t{7}));
}

TEST(ColumnStatsTest, AvgFreq) {
  ColumnStats cs = MakeStats({1, 1, 2, 2, 3, 3});
  EXPECT_DOUBLE_EQ(cs.AvgFreq(), 2.0);
}

TEST(DatabaseStatsTest, Lookup) {
  DatabaseStats s;
  s.tables["t"].row_count = 10;
  s.tables["t"].columns["c"].row_count = 10;
  EXPECT_NE(s.FindTable("t"), nullptr);
  EXPECT_EQ(s.FindTable("u"), nullptr);
  EXPECT_NE(s.FindColumn("t", "c"), nullptr);
  EXPECT_EQ(s.FindColumn("t", "d"), nullptr);
  EXPECT_EQ(s.FindColumn("u", "c"), nullptr);
}

TEST(StatsCollectorTest, PagesAndWidths) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  for (int i = 0; i < 1000; ++i) {
    heap.Append(Tuple({Value(int64_t{i}), Value(std::string(50, 'x'))}));
  }
  TableStats ts = CollectTableStats(heap, {"a", "b"});
  EXPECT_EQ(ts.row_count, 1000u);
  EXPECT_GT(ts.pages, 1u);
  EXPECT_GT(ts.avg_row_bytes, 50.0);
  EXPECT_EQ(ts.columns.size(), 2u);
}

TEST(StatsCollectorTest, ZipfColumnHasWideFreqSpread) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  Rng rng(17);
  ZipfSampler zipf(500, 1.0);
  for (int i = 0; i < 20000; ++i) {
    heap.Append(Tuple({Value(static_cast<int64_t>(zipf.Sample(&rng)))}));
  }
  TableStats ts = CollectTableStats(heap, {"c"});
  const ColumnStats& cs = ts.columns.at("c");
  ASSERT_FALSE(cs.freq_examples.empty());
  uint64_t min_f = cs.freq_examples.front().first;
  uint64_t max_f = cs.freq_examples.back().first;
  EXPECT_GE(max_f, min_f * 100) << "zipf(1) should span 2+ orders";
}

// ------------------------------------------------------ typed ANALYZE oracle

// The whole-row, Value-based collector CollectTableStats replaced, kept
// here as the oracle: every column decoded from whole rows into a Value
// vector, sorted with Value::Compare, runs found with Value ==, MCVs ranked
// by a full sort, and the histogram built row by row over the expanded
// non-MCV remainder. The typed collector must agree on every field.
namespace oracle {

struct Stats {
  ColumnStats cs;  // everything but the histogram
  std::vector<EquiDepthHistogram::Bucket> buckets;
  uint64_t histogram_rows = 0;
};

void BuildHistogram(const std::vector<Value>& sorted_values,
                    size_t num_buckets, Stats* out) {
  const size_t n = sorted_values.size();
  if (n == 0 || num_buckets == 0) return;
  out->histogram_rows = n;
  num_buckets = std::min(num_buckets, n);
  const size_t target_depth = (n + num_buckets - 1) / num_buckets;
  uint64_t cur_rows = 0, cur_distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool new_value =
        (i == 0) || (sorted_values[i] != sorted_values[i - 1]);
    if (new_value) ++cur_distinct;
    ++cur_rows;
    const bool last = (i + 1 == n);
    const bool boundary = last || (sorted_values[i + 1] != sorted_values[i]);
    if (boundary && (cur_rows >= target_depth || last)) {
      EquiDepthHistogram::Bucket b;
      b.upper = sorted_values[i];
      b.rows = cur_rows;
      b.distinct = cur_distinct;
      out->buckets.push_back(b);
      cur_rows = 0;
      cur_distinct = 0;
    }
  }
}

Stats BuildColumnStats(std::vector<Value> values, uint64_t row_count,
                       const StatsOptions& opts) {
  Stats out;
  ColumnStats& cs = out.cs;
  cs.row_count = row_count;
  std::vector<Value> non_null;
  for (auto& v : values) {
    if (v.is_null()) {
      ++cs.null_count;
    } else {
      non_null.push_back(std::move(v));
    }
  }
  if (non_null.empty()) return out;
  std::sort(non_null.begin(), non_null.end());
  cs.min = non_null.front();
  cs.max = non_null.back();

  std::vector<std::pair<Value, uint64_t>> freqs;
  for (size_t i = 0; i < non_null.size();) {
    size_t j = i;
    while (j < non_null.size() && non_null[j] == non_null[i]) ++j;
    freqs.emplace_back(non_null[i], static_cast<uint64_t>(j - i));
    i = j;
  }
  cs.num_distinct = freqs.size();

  std::map<uint64_t, uint64_t> fof;
  std::map<uint64_t, Value> fex;
  for (const auto& [v, f] : freqs) {
    fof[f] += 1;
    fex.try_emplace(f, v);
  }
  cs.freq_of_freq.assign(fof.begin(), fof.end());
  cs.freq_examples.assign(fex.begin(), fex.end());
  constexpr size_t kMaxFreqExamples = 96;
  if (cs.freq_examples.size() > kMaxFreqExamples) {
    std::vector<std::pair<uint64_t, Value>> kept;
    size_t n = cs.freq_examples.size();
    for (size_t i = 0; i < kMaxFreqExamples; ++i) {
      size_t pos = i * (n - 1) / (kMaxFreqExamples - 1);
      if (kept.empty() || kept.back().first != cs.freq_examples[pos].first) {
        kept.push_back(cs.freq_examples[pos]);
      }
    }
    cs.freq_examples = std::move(kept);
  }

  std::vector<size_t> order(freqs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (freqs[a].second != freqs[b].second) {
      return freqs[a].second > freqs[b].second;
    }
    return freqs[a].first < freqs[b].first;
  });
  size_t num_mcv = std::min(opts.num_mcvs, freqs.size());
  std::vector<bool> is_mcv(freqs.size(), false);
  for (size_t i = 0; i < num_mcv; ++i) {
    cs.mcvs.push_back(freqs[order[i]]);
    is_mcv[order[i]] = true;
  }

  std::vector<Value> rest;
  for (size_t i = 0; i < freqs.size(); ++i) {
    if (is_mcv[i]) continue;
    for (uint64_t r = 0; r < freqs[i].second; ++r) {
      rest.push_back(freqs[i].first);
    }
  }
  BuildHistogram(rest, opts.histogram_buckets, &out);
  return out;
}

std::map<std::string, Stats> CollectTableStats(
    const HeapTable& table, const std::vector<std::string>& column_names,
    const StatsOptions& opts) {
  std::map<std::string, Stats> out;
  for (size_t c = 0; c < column_names.size(); ++c) {
    std::vector<Value> values;
    auto cursor = table.Scan(nullptr);
    Tuple t;
    while (cursor.Next(&t, nullptr)) values.push_back(t.at(c));
    out[column_names[c]] =
        BuildColumnStats(std::move(values), table.num_rows(), opts);
  }
  return out;
}

}  // namespace oracle

/// Bit-level Value identity: same kind and, for doubles, the same bits
/// (Value == would equate -0.0 with 0.0).
::testing::AssertionResult SameValue(const Value& a, const Value& b) {
  bool same = false;
  if (a.is_null() || b.is_null()) {
    same = a.is_null() && b.is_null();
  } else if (a.is_int() && b.is_int()) {
    same = a.as_int() == b.as_int();
  } else if (a.is_double() && b.is_double()) {
    double x = a.as_double(), y = b.as_double();
    same = std::memcmp(&x, &y, sizeof x) == 0;
  } else if (a.is_string() && b.is_string()) {
    same = a.as_string() == b.as_string();
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a.ToString() << " vs " << b.ToString();
}

void ExpectSameStats(const ColumnStats& got, const oracle::Stats& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const ColumnStats& w = want.cs;
  EXPECT_EQ(got.row_count, w.row_count);
  EXPECT_EQ(got.null_count, w.null_count);
  EXPECT_EQ(got.num_distinct, w.num_distinct);
  EXPECT_TRUE(SameValue(got.min, w.min));
  EXPECT_TRUE(SameValue(got.max, w.max));
  EXPECT_EQ(got.freq_of_freq, w.freq_of_freq);
  ASSERT_EQ(got.mcvs.size(), w.mcvs.size());
  for (size_t i = 0; i < w.mcvs.size(); ++i) {
    EXPECT_TRUE(SameValue(got.mcvs[i].first, w.mcvs[i].first)) << "mcv " << i;
    EXPECT_EQ(got.mcvs[i].second, w.mcvs[i].second) << "mcv " << i;
  }
  ASSERT_EQ(got.freq_examples.size(), w.freq_examples.size());
  for (size_t i = 0; i < w.freq_examples.size(); ++i) {
    EXPECT_EQ(got.freq_examples[i].first, w.freq_examples[i].first);
    EXPECT_TRUE(SameValue(got.freq_examples[i].second,
                          w.freq_examples[i].second))
        << "freq example " << i;
  }
  EXPECT_EQ(got.histogram.total_rows(), want.histogram_rows);
  const auto& buckets = got.histogram.buckets();
  ASSERT_EQ(buckets.size(), want.buckets.size());
  for (size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_TRUE(SameValue(buckets[i].upper, want.buckets[i].upper))
        << "bucket " << i;
    EXPECT_EQ(buckets[i].rows, want.buckets[i].rows) << "bucket " << i;
    EXPECT_EQ(buckets[i].distinct, want.buckets[i].distinct) << "bucket " << i;
  }
}

void ExpectCollectorsAgree(const HeapTable& heap,
                           const std::vector<std::string>& names,
                           const StatsOptions& opts) {
  TableStats got = CollectTableStats(heap, names, opts);
  std::map<std::string, oracle::Stats> want =
      oracle::CollectTableStats(heap, names, opts);
  ASSERT_EQ(got.columns.size(), want.size());
  for (const auto& [name, w] : want) {
    ExpectSameStats(got.columns.at(name), w,
                    heap.name() + "." + name + " (buckets " +
                        std::to_string(opts.histogram_buckets) + ", mcvs " +
                        std::to_string(opts.num_mcvs) + ")");
  }
}

std::vector<StatsOptions> OracleOptions() {
  std::vector<StatsOptions> out(5);
  out[1].histogram_buckets = 4;
  out[1].num_mcvs = 3;
  out[2].num_mcvs = 0;
  out[3].histogram_buckets = 0;
  out[3].num_mcvs = 1000;  // more than any column's distinct count here
  out[4].histogram_buckets = 1;
  out[4].num_mcvs = 20;  // cuts through the tied frequency-5 group
  return out;
}

/// Seeded random table covering the typed kernels' edge cases; see the
/// column comments. Every seventh row is tombstoned.
class StatsOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsOracleFuzz, TypedCollectorMatchesValueOracle) {
  Rng rng(GetParam());
  const std::vector<std::string> names = {
      "zipf_int",  "dbl",        "str",      "all_null",
      "one_value", "many_freqs", "mcv_ties", "shifted_int"};
  PageStore store;
  HeapTable heap("r",
                 TupleCodec({TypeId::kInt, TypeId::kDouble, TypeId::kString,
                             TypeId::kString, TypeId::kDouble, TypeId::kInt,
                             TypeId::kInt, TypeId::kInt}),
                 &store);
  // many_freqs: value v occurs v times for v = 1..120 (> 96 distinct
  // frequencies, so the log-spaced example subset is taken), shuffled.
  std::vector<int64_t> many;
  for (int64_t v = 1; v <= 120; ++v) {
    for (int64_t k = 0; k < v; ++k) many.push_back(v);
  }
  rng.Shuffle(&many);
  // mcv_ties: 30 values of frequency 5 after 4 more common ones, so the
  // MCV cut-off falls inside a tie.
  std::vector<int64_t> ties;
  for (int64_t v = 0; v < 30; ++v) {
    for (int k = 0; k < 5; ++k) ties.push_back(1000 - v);
  }
  for (int64_t v = 0; v < 4; ++v) {
    for (int k = 0; k < 9 + v; ++k) ties.push_back(v);
  }
  rng.Shuffle(&ties);
  const std::vector<std::string> alphabet = {
      "",   "a",  "ab", "\x80", "\xff", "a\x80", "a\x7f", "\x7f", "zz",
      "Zz", "\xc3\xa9t\xc3\xa9", std::string("b\0c", 3), "b"};
  const std::vector<double> doubles = {-2.5, -0.0, 0.0, 1e-300, 3.25,
                                       1e300, -1e300, 0.1};
  ZipfSampler zipf(400, 1.0);
  ZipfSampler str_zipf(alphabet.size(), 0.8);
  std::vector<Rid> rids;
  const size_t rows = many.size();
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(rng.Bernoulli(0.05)
                      ? Value()
                      : Value(static_cast<int64_t>(zipf.Sample(&rng))));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value()
                      : Value(doubles[rng.Uniform(doubles.size())] *
                              static_cast<double>(1 + rng.Uniform(3))));
    if (rng.Bernoulli(0.05)) {
      row.emplace_back();
    } else {
      std::string s = alphabet[str_zipf.Sample(&rng)];
      if (rng.Bernoulli(0.3)) s += alphabet[rng.Uniform(alphabet.size())];
      row.emplace_back(std::move(s));
    }
    row.emplace_back();  // all_null
    row.emplace_back(rng.Bernoulli(0.1) ? Value() : Value(42.0));
    row.emplace_back(many[i]);
    row.push_back(i < ties.size() ? Value(ties[i]) : Value());
    row.emplace_back(static_cast<int64_t>(rng.Next()) >> rng.Uniform(60));
    rids.push_back(heap.Append(Tuple(std::move(row))));
  }
  for (size_t i = 0; i < rids.size(); i += 7) {
    TB_ASSERT_OK(heap.Delete(rids[i], nullptr));
  }
  for (const StatsOptions& opts : OracleOptions()) {
    ExpectCollectorsAgree(heap, names, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsOracleFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(StatsOracleTest, EmptyTable) {
  PageStore store;
  HeapTable heap("e", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  for (const StatsOptions& opts : OracleOptions()) {
    ExpectCollectorsAgree(heap, {"a", "b"}, opts);
  }
}

TEST(StatsOracleTest, MiniNrefTablesMatchValueOracle) {
  std::unique_ptr<Database> db = testing::MakeMiniNref();
  ASSERT_NE(db, nullptr);
  for (const TableDef& def : db->catalog().tables()) {
    const HeapTable* heap = db->FindHeap(def.name);
    ASSERT_NE(heap, nullptr) << def.name;
    std::vector<std::string> names;
    for (const auto& c : def.columns) names.push_back(c.name);
    ExpectCollectorsAgree(*heap, names, StatsOptions{});
  }
}

}  // namespace
}  // namespace tabbench
