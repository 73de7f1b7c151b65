#include "storage/tuple_codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace tabbench {

namespace {
void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
}  // namespace

void TupleCodec::Encode(const Tuple& t, std::vector<uint8_t>* out) const {
  assert(t.size() == types_.size());
  for (size_t i = 0; i < types_.size(); ++i) {
    const Value& v = t.at(i);
    if (v.is_null()) {
      out->push_back(0);
      continue;
    }
    out->push_back(1);
    switch (types_[i]) {
      case TypeId::kInt:
        PutU64(static_cast<uint64_t>(v.as_int()), out);
        break;
      case TypeId::kDouble: {
        uint64_t bits;
        double d = v.as_double();
        std::memcpy(&bits, &d, 8);
        PutU64(bits, out);
        break;
      }
      case TypeId::kString: {
        const std::string& s = v.as_string();
        PutU32(static_cast<uint32_t>(s.size()), out);
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

Tuple TupleCodec::Decode(const uint8_t* data, size_t* offset) const {
  std::vector<Value> vals;
  vals.reserve(types_.size());
  size_t off = *offset;
  for (TypeId t : types_) {
    const uint8_t* field = data + off;
    off += FieldSize(field, t);
    // Built in place: FieldValue plus a move would add a variant move per
    // field on the whole-row path.
    if (FieldIsNull(field)) {
      vals.emplace_back();
      continue;
    }
    switch (t) {
      case TypeId::kInt:
        vals.emplace_back(FieldInt(field));
        break;
      case TypeId::kDouble:
        vals.emplace_back(FieldDouble(field));
        break;
      case TypeId::kString:
        vals.emplace_back(std::string(FieldString(field)));
        break;
    }
  }
  *offset = off;
  return Tuple(std::move(vals));
}

void TupleCodec::DecodeProjected(const uint8_t* rec,
                                 const std::vector<size_t>& cols,
                                 std::vector<Value>* out) const {
  out->resize(cols.size());
  if (cols.empty()) return;
  const size_t last = *std::max_element(cols.begin(), cols.end());
  assert(last < types_.size());
  size_t off = 0;
  for (size_t c = 0; c <= last; ++c) {
    const uint8_t* field = rec + off;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == c) (*out)[i] = FieldValue(field, types_[c]);
    }
    off += FieldSize(field, types_[c]);
  }
}

size_t TupleCodec::EncodedSize(const Tuple& t) const {
  size_t n = 0;
  for (size_t i = 0; i < types_.size(); ++i) {
    const Value& v = t.at(i);
    n += 1;
    if (v.is_null()) continue;
    switch (types_[i]) {
      case TypeId::kInt:
      case TypeId::kDouble:
        n += 8;
        break;
      case TypeId::kString:
        n += 4 + v.as_string().size();
        break;
    }
  }
  return n;
}

}  // namespace tabbench
