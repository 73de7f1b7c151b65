#ifndef TABBENCH_STATS_HISTOGRAM_H_
#define TABBENCH_STATS_HISTOGRAM_H_

#include <functional>
#include <vector>

#include "types/value.h"

namespace tabbench {

/// Equi-depth histogram over a column's non-null values.
///
/// Buckets hold (approximately) equal row counts; each bucket records its
/// inclusive upper bound, its row count, and its distinct-value count, which
/// is what the uniform-within-bucket equality estimate needs.
class EquiDepthHistogram {
 public:
  struct Bucket {
    Value upper;        // inclusive upper bound
    uint64_t rows = 0;
    uint64_t distinct = 0;
  };

  EquiDepthHistogram() = default;

  /// Builds from a *sorted* vector of non-null values.
  static EquiDepthHistogram Build(const std::vector<Value>& sorted_values,
                                  size_t num_buckets);

  /// Builds from a sorted column in run-length form: `run_rows[i]` (> 0)
  /// rows hold the i-th smallest distinct value, and `value_of(i)` returns
  /// that value (called once per bucket, for its upper bound). Gives the
  /// same buckets as Build over the expanded column.
  static EquiDepthHistogram BuildFromRuns(
      const std::vector<uint64_t>& run_rows,
      const std::function<Value(size_t)>& value_of, size_t num_buckets);

  /// Estimated number of rows with value == v (uniform within bucket).
  double EstimateEqRows(const Value& v) const;

  /// Estimated number of rows with value <= v.
  double EstimateLeRows(const Value& v) const;

  bool empty() const { return buckets_.empty(); }
  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }
  uint64_t total_rows() const { return total_rows_; }

 private:
  std::vector<Bucket> buckets_;
  uint64_t total_rows_ = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_STATS_HISTOGRAM_H_
