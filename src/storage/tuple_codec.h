#ifndef TABBENCH_STORAGE_TUPLE_CODEC_H_
#define TABBENCH_STORAGE_TUPLE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace tabbench {

/// Row serialization for heap pages. Format, per column:
///   1 tag byte: 0 = NULL, 1 = present
///   INT / DOUBLE: 8 bytes little-endian
///   STRING: uint32 length + bytes
///
/// Besides whole-row Decode, the codec reads single fields in place: a
/// column's bytes are found by skipping the columns before it by tag and
/// length (FieldOffset), and the Field* readers decode one field, typed,
/// without building a Value. Bulk passes that need one or a few columns
/// (ANALYZE, index builds, IN-set counts) use these.
class TupleCodec {
 public:
  explicit TupleCodec(std::vector<TypeId> column_types)
      : types_(std::move(column_types)) {}

  /// Appends the encoded row to `out`.
  void Encode(const Tuple& t, std::vector<uint8_t>* out) const;

  /// Decodes one row starting at `data`; advances `*offset` past it.
  Tuple Decode(const uint8_t* data, size_t* offset) const;

  /// Projected decode of the row starting at `rec`: `(*out)[i]` is column
  /// `cols[i]` (positions in any order). The other columns are skipped by
  /// tag and length, never decoded; columns past the last one asked for
  /// are not read at all.
  void DecodeProjected(const uint8_t* rec, const std::vector<size_t>& cols,
                       std::vector<Value>* out) const;

  /// Offset from `rec` (the start of an encoded row) of column `col`'s tag
  /// byte; the columns before it are skipped, not decoded.
  size_t FieldOffset(const uint8_t* rec, size_t col) const {
    size_t off = 0;
    for (size_t c = 0; c < col; ++c) off += FieldSize(rec + off, types_[c]);
    return off;
  }

  /// Readers of one encoded field; `field` points at its tag byte. The
  /// typed readers require a non-NULL field of that type.
  static bool FieldIsNull(const uint8_t* field) { return field[0] == 0; }
  static int64_t FieldInt(const uint8_t* field) {
    return static_cast<int64_t>(GetU64(field + 1));
  }
  static double FieldDouble(const uint8_t* field) {
    uint64_t bits = GetU64(field + 1);
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
  static std::string_view FieldString(const uint8_t* field) {
    return {reinterpret_cast<const char*>(field + 5), GetU32(field + 1)};
  }
  /// The field as a Value (NULL or of type `t`).
  static Value FieldValue(const uint8_t* field, TypeId t) {
    if (FieldIsNull(field)) return Value();
    switch (t) {
      case TypeId::kInt:
        return Value(FieldInt(field));
      case TypeId::kDouble:
        return Value(FieldDouble(field));
      case TypeId::kString:
        return Value(std::string(FieldString(field)));
    }
    return Value();
  }
  /// Encoded bytes of the field, tag byte included.
  static size_t FieldSize(const uint8_t* field, TypeId t) {
    if (FieldIsNull(field)) return 1;
    return t == TypeId::kString ? 5u + GetU32(field + 1) : 9u;
  }

  /// Encoded size of a row, without encoding it.
  size_t EncodedSize(const Tuple& t) const;

  const std::vector<TypeId>& types() const { return types_; }

 private:
  static uint64_t GetU64(const uint8_t* p) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
  }
  static uint32_t GetU32(const uint8_t* p) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
  }

  std::vector<TypeId> types_;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_TUPLE_CODEC_H_
