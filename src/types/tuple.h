#ifndef TABBENCH_TYPES_TUPLE_H_
#define TABBENCH_TYPES_TUPLE_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace tabbench {

/// A row of values. Column order matches the owning table / operator schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Concatenation of two tuples (join output).
  static Tuple Concat(const Tuple& a, const Tuple& b) {
    return Concat(a.values(), b.values());
  }
  static Tuple Concat(const std::vector<Value>& a,
                      const std::vector<Value>& b);

  /// Projection onto the given column positions.
  Tuple Project(const std::vector<size_t>& cols) const;

  bool operator==(const Tuple& o) const { return values_ == o.values_; }

  size_t Hash() const;
  size_t ByteSize() const;
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

/// Key for hash-based grouping/joins: a projection of a tuple.
using GroupKey = Tuple;

}  // namespace tabbench

#endif  // TABBENCH_TYPES_TUPLE_H_
