#include "types/tuple.h"

namespace tabbench {

Tuple Tuple::Concat(const std::vector<Value>& a,
                    const std::vector<Value>& b) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return Tuple(std::move(out));
}

Tuple Tuple::Project(const std::vector<size_t>& cols) const {
  std::vector<Value> out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(values_[c]);
  return Tuple(std::move(out));
}

size_t Tuple::Hash() const {
  size_t h = 14695981039346656037ULL;
  for (const auto& v : values_) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

size_t Tuple::ByteSize() const {
  size_t n = 0;
  for (const auto& v : values_) n += v.ByteSize();
  return n;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace tabbench
