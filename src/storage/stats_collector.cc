#include "storage/stats_collector.h"

#include <algorithm>
#include <map>
#include <string_view>

namespace tabbench {

namespace {

// Typed ANALYZE: each column is read straight off the pages into a vector of
// its native type (strings as views into the pages, which no one writes
// during the pass), sorted and run-length counted there, and converted to
// Value only for what ColumnStats stores. The native orders are Value's:
// int64 and double by `<`, strings by std::string_view::compare (unsigned
// bytes, as std::string::compare).

Value ToValue(int64_t v) { return Value(v); }
Value ToValue(double v) { return Value(v); }
Value ToValue(std::string_view v) { return Value(std::string(v)); }

/// Value equality (Compare == 0) on the native type. For doubles that is
/// "neither is less", which differs from `==` only on NaN.
template <typename T>
bool SameValue(const T& a, const T& b) {
  return a == b;
}
template <>
bool SameValue<double>(const double& a, const double& b) {
  return !(a < b) && !(b < a);
}

/// One distinct value of a sorted column: its first position and its rows.
struct Run {
  size_t first = 0;
  uint64_t rows = 0;
};

template <typename T>
ColumnStats BuildColumnStats(std::vector<T> values, uint64_t null_count,
                             uint64_t row_count, const StatsOptions& opts) {
  ColumnStats cs;
  cs.row_count = row_count;
  cs.null_count = null_count;
  if (values.empty()) return cs;
  std::sort(values.begin(), values.end());
  cs.min = ToValue(values.front());
  cs.max = ToValue(values.back());

  // Value frequencies: the runs of the sorted column, in value order.
  std::vector<Run> runs;
  for (size_t i = 0; i < values.size();) {
    size_t j = i + 1;
    while (j < values.size() && SameValue(values[j], values[i])) ++j;
    runs.push_back({i, static_cast<uint64_t>(j - i)});
    i = j;
  }
  cs.num_distinct = runs.size();
  auto value_of_run = [&](size_t r) { return ToValue(values[runs[r].first]); };

  // Frequency-of-frequency summary, with one example value per frequency
  // (used by the workload generators' constant-selection rules): the
  // smallest value of that frequency.
  std::map<uint64_t, uint64_t> fof;
  std::map<uint64_t, size_t> fex;  // frequency -> first run
  for (size_t r = 0; r < runs.size(); ++r) {
    fof[runs[r].rows] += 1;
    fex.try_emplace(runs[r].rows, r);
  }
  cs.freq_of_freq.assign(fof.begin(), fof.end());
  std::vector<std::pair<uint64_t, size_t>> examples(fex.begin(), fex.end());
  constexpr size_t kMaxFreqExamples = 96;
  if (examples.size() > kMaxFreqExamples) {
    // Keep a log-spaced subset across the frequency range.
    std::vector<std::pair<uint64_t, size_t>> kept;
    size_t n = examples.size();
    for (size_t i = 0; i < kMaxFreqExamples; ++i) {
      size_t pos = i * (n - 1) / (kMaxFreqExamples - 1);
      if (kept.empty() || kept.back().first != examples[pos].first) {
        kept.push_back(examples[pos]);
      }
    }
    examples = std::move(kept);
  }
  for (const auto& [f, r] : examples) {
    cs.freq_examples.emplace_back(f, value_of_run(r));
  }

  // MCVs: top-k by frequency, ties broken by value order (the run index).
  std::vector<size_t> order(runs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto more_common = [&](size_t a, size_t b) {
    if (runs[a].rows != runs[b].rows) return runs[a].rows > runs[b].rows;
    return a < b;
  };
  const size_t num_mcv = std::min(opts.num_mcvs, runs.size());
  std::nth_element(order.begin(), order.begin() + num_mcv, order.end(),
                   more_common);
  std::sort(order.begin(), order.begin() + num_mcv, more_common);
  std::vector<bool> is_mcv(runs.size(), false);
  for (size_t i = 0; i < num_mcv; ++i) {
    cs.mcvs.emplace_back(value_of_run(order[i]), runs[order[i]].rows);
    is_mcv[order[i]] = true;
  }

  // Histogram over the non-MCV remainder, from its runs.
  std::vector<uint64_t> rest_rows;
  std::vector<size_t> rest_runs;
  rest_rows.reserve(runs.size() - num_mcv);
  rest_runs.reserve(runs.size() - num_mcv);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (is_mcv[r]) continue;
    rest_rows.push_back(runs[r].rows);
    rest_runs.push_back(r);
  }
  cs.histogram = EquiDepthHistogram::BuildFromRuns(
      rest_rows, [&](size_t i) { return value_of_run(rest_runs[i]); },
      opts.histogram_buckets);
  return cs;
}

/// One column's pass: a raw scan reading only that column's field of each
/// row with `read`, then the typed kernel.
template <typename T, typename Read>
ColumnStats CollectColumn(const HeapTable& table, size_t col, Read read,
                          const StatsOptions& opts) {
  std::vector<T> values;
  values.reserve(table.num_rows());
  uint64_t nulls = 0;
  const TupleCodec& codec = table.codec();
  auto cursor = table.Scan(/*touch=*/nullptr);
  const uint8_t* rec = nullptr;
  while (cursor.NextRecord(&rec, nullptr)) {
    const uint8_t* field = rec + codec.FieldOffset(rec, col);
    if (TupleCodec::FieldIsNull(field)) {
      ++nulls;
    } else {
      values.push_back(read(field));
    }
  }
  return BuildColumnStats(std::move(values), nulls, table.num_rows(), opts);
}

}  // namespace

TableStats CollectTableStats(const HeapTable& table,
                             const std::vector<std::string>& column_names,
                             const StatsOptions& opts) {
  TableStats ts;
  ts.row_count = table.num_rows();
  ts.pages = table.num_pages();
  ts.avg_row_bytes =
      table.num_rows() == 0
          ? 0.0
          : static_cast<double>(table.total_bytes()) /
                static_cast<double>(table.num_rows());

  const size_t ncols = column_names.size();
  // One pass per column keeps peak memory to a single column's values.
  for (size_t c = 0; c < ncols; ++c) {
    ColumnStats cs;
    switch (table.codec().types()[c]) {
      case TypeId::kInt:
        cs = CollectColumn<int64_t>(table, c, TupleCodec::FieldInt, opts);
        break;
      case TypeId::kDouble:
        cs = CollectColumn<double>(table, c, TupleCodec::FieldDouble, opts);
        break;
      case TypeId::kString:
        cs = CollectColumn<std::string_view>(table, c, TupleCodec::FieldString,
                                             opts);
        break;
    }
    ts.columns[column_names[c]] = std::move(cs);
  }
  return ts;
}

}  // namespace tabbench
