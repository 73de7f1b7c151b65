#include "stats/histogram.h"

#include <algorithm>

namespace tabbench {

EquiDepthHistogram EquiDepthHistogram::Build(
    const std::vector<Value>& sorted_values, size_t num_buckets) {
  std::vector<uint64_t> run_rows;
  std::vector<size_t> run_start;
  for (size_t i = 0; i < sorted_values.size(); ++i) {
    if (i == 0 || sorted_values[i] != sorted_values[i - 1]) {
      run_rows.push_back(0);
      run_start.push_back(i);
    }
    ++run_rows.back();
  }
  return BuildFromRuns(
      run_rows, [&](size_t r) { return sorted_values[run_start[r]]; },
      num_buckets);
}

EquiDepthHistogram EquiDepthHistogram::BuildFromRuns(
    const std::vector<uint64_t>& run_rows,
    const std::function<Value(size_t)>& value_of, size_t num_buckets) {
  EquiDepthHistogram h;
  uint64_t n = 0;
  for (uint64_t rows : run_rows) n += rows;
  if (n == 0 || num_buckets == 0) return h;
  h.total_rows_ = n;
  const uint64_t buckets = std::min<uint64_t>(num_buckets, n);
  const uint64_t target_depth = (n + buckets - 1) / buckets;

  // A bucket closes at a value boundary once it holds the target depth (or
  // at the last value), so a single value never straddles two buckets.
  uint64_t cur_rows = 0, cur_distinct = 0;
  for (size_t r = 0; r < run_rows.size(); ++r) {
    ++cur_distinct;
    cur_rows += run_rows[r];
    const bool last = (r + 1 == run_rows.size());
    if (cur_rows >= target_depth || last) {
      Bucket b;
      b.upper = value_of(r);
      b.rows = cur_rows;
      b.distinct = cur_distinct;
      h.buckets_.push_back(std::move(b));
      cur_rows = 0;
      cur_distinct = 0;
    }
  }
  return h;
}

double EquiDepthHistogram::EstimateEqRows(const Value& v) const {
  if (buckets_.empty()) return 0.0;
  // Find the first bucket whose upper bound >= v.
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), v,
      [](const Bucket& b, const Value& x) { return b.upper < x; });
  if (it == buckets_.end()) return 0.0;  // above max
  if (it->distinct == 0) return 0.0;
  return static_cast<double>(it->rows) / static_cast<double>(it->distinct);
}

double EquiDepthHistogram::EstimateLeRows(const Value& v) const {
  double rows = 0.0;
  for (const auto& b : buckets_) {
    if (b.upper <= v) {
      rows += static_cast<double>(b.rows);
    } else {
      // Partial bucket: assume half the bucket qualifies (no lower bound
      // tracked; adequate for the equality-only benchmark workloads).
      rows += static_cast<double>(b.rows) / 2.0;
      break;
    }
  }
  return rows;
}

}  // namespace tabbench
