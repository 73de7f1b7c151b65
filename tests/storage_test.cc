#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "storage/tuple_codec.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace tabbench {
namespace {

// --------------------------------------------------------------- PageStore

TEST(PageStoreTest, AllocateAndGet) {
  PageStore s;
  PageId a = s.Allocate();
  PageId b = s.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(s.allocated_pages(), 2u);
  s.GetPage(a)->used = 17;
  EXPECT_EQ(s.GetPage(a)->used, 17u);
}

TEST(PageStoreTest, FreeReducesLiveCountAndNeverReusesIds) {
  PageStore s;
  PageId a = s.Allocate();
  s.Free(a);
  EXPECT_EQ(s.allocated_pages(), 0u);
  PageId b = s.Allocate();
  EXPECT_NE(a, b);
}

TEST(PageStoreTest, DoubleFreeIsHarmless) {
  PageStore s;
  PageId a = s.Allocate();
  s.Free(a);
  s.Free(a);
  EXPECT_EQ(s.allocated_pages(), 0u);
}

// -------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, MissThenHit) {
  BufferPool p(4);
  EXPECT_FALSE(p.Touch(1));
  EXPECT_TRUE(p.Touch(1));
  EXPECT_EQ(p.misses(), 1u);
  EXPECT_EQ(p.hits(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool p(2);
  p.Touch(1);
  p.Touch(2);
  p.Touch(1);      // 1 is now MRU
  p.Touch(3);      // evicts 2
  EXPECT_TRUE(p.Touch(1));
  EXPECT_FALSE(p.Touch(2));  // was evicted
}

TEST(BufferPoolTest, CapacityRespected) {
  BufferPool p(8);
  for (PageId i = 0; i < 100; ++i) p.Touch(i);
  EXPECT_EQ(p.resident(), 8u);
}

TEST(BufferPoolTest, SequentialScanLargerThanPoolAlwaysMisses) {
  // Classic LRU sequential-flooding: a repeated scan of N+1 pages through
  // an N-page pool never hits.
  BufferPool p(4);
  for (int round = 0; round < 3; ++round) {
    for (PageId i = 0; i < 5; ++i) p.Touch(i);
  }
  EXPECT_EQ(p.hits(), 0u);
  EXPECT_EQ(p.misses(), 15u);
}

TEST(BufferPoolTest, ClearForgetsEverything) {
  BufferPool p(4);
  p.Touch(1);
  p.Clear();
  EXPECT_EQ(p.resident(), 0u);
  EXPECT_FALSE(p.Touch(1));
}

TEST(BufferPoolTest, EvictSpecificPage) {
  BufferPool p(4);
  p.Touch(1);
  p.Touch(2);
  p.Evict(1);
  EXPECT_EQ(p.resident(), 1u);
  EXPECT_FALSE(p.Touch(1));
  // Evicting an absent page is a no-op.
  p.Evict(99);
}

TEST(BufferPoolTest, ZeroCapacityClampsToOne) {
  BufferPool p(0);
  EXPECT_EQ(p.capacity(), 1u);
  p.Touch(1);
  EXPECT_TRUE(p.Touch(1));
}

TEST(BufferPoolTest, ClearResetsCounters) {
  // A cleared pool starts a fresh accounting epoch: hit/miss counters from
  // before the clear would otherwise leak one workload's ratio into the
  // next cold-start run.
  BufferPool p(4);
  p.Touch(1);
  p.Touch(1);
  ASSERT_EQ(p.stats().accesses(), 2u);
  p.Clear();
  EXPECT_EQ(p.hits(), 0u);
  EXPECT_EQ(p.misses(), 0u);
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.0);
}

TEST(BufferPoolTest, StatsSnapshotAndHitRatio) {
  BufferPool p(4);
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.0);  // no accesses yet
  p.Touch(1);  // miss
  p.Touch(1);  // hit
  p.Touch(2);  // miss
  p.Touch(1);  // hit
  BufferPoolStats s = p.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.resident, 2u);
  EXPECT_EQ(s.capacity, 4u);
  EXPECT_DOUBLE_EQ(s.HitRatio(), 0.5);
}

TEST(BufferPoolTest, HitRatioAccountingPinnedAcrossShrink) {
  BufferPool p(4);
  for (PageId i = 0; i < 4; ++i) p.Touch(i);  // 4 misses, pool full
  for (PageId i = 0; i < 4; ++i) p.Touch(i);  // 4 hits
  ASSERT_DOUBLE_EQ(p.stats().HitRatio(), 0.5);

  // Shrinking evicts LRU pages but must not rewrite accounting history:
  // counters describe accesses, not residency.
  p.SetCapacity(2);
  EXPECT_EQ(p.resident(), 2u);
  BufferPoolStats s = p.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_DOUBLE_EQ(s.HitRatio(), 0.5);

  // The 2 MRU pages (2, 3) survived the shrink; 0 and 1 were evicted.
  EXPECT_TRUE(p.Touch(3));
  EXPECT_TRUE(p.Touch(2));
  EXPECT_FALSE(p.Touch(0));
  EXPECT_FALSE(p.Touch(1));
  EXPECT_DOUBLE_EQ(p.stats().HitRatio(), 0.5);  // 6 hits / 12 accesses
}

// -------------------------------------------------------------- TupleCodec

TEST(TupleCodecTest, RoundTripAllTypes) {
  TupleCodec codec({TypeId::kInt, TypeId::kDouble, TypeId::kString});
  Tuple t({Value(int64_t{-12345}), Value(3.75), Value(std::string("héllo"))});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  size_t off = 0;
  Tuple back = codec.Decode(buf.data(), &off);
  EXPECT_EQ(back, t);
  EXPECT_EQ(off, buf.size());
}

TEST(TupleCodecTest, RoundTripNulls) {
  TupleCodec codec({TypeId::kInt, TypeId::kString});
  Tuple t({Value(), Value()});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  size_t off = 0;
  Tuple back = codec.Decode(buf.data(), &off);
  EXPECT_TRUE(back.at(0).is_null());
  EXPECT_TRUE(back.at(1).is_null());
}

TEST(TupleCodecTest, EncodedSizeMatchesEncoding) {
  TupleCodec codec({TypeId::kInt, TypeId::kString, TypeId::kDouble});
  Tuple t({Value(int64_t{1}), Value(std::string("abcdef")), Value()});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  EXPECT_EQ(codec.EncodedSize(t), buf.size());
}

TEST(TupleCodecTest, BackToBackDecoding) {
  TupleCodec codec({TypeId::kInt});
  std::vector<uint8_t> buf;
  for (int64_t i = 0; i < 10; ++i) {
    codec.Encode(Tuple({Value(i)}), &buf);
  }
  size_t off = 0;
  for (int64_t i = 0; i < 10; ++i) {
    Tuple t = codec.Decode(buf.data(), &off);
    EXPECT_EQ(t.at(0).as_int(), i);
  }
}

class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, RandomRowsRoundTrip) {
  Rng rng(GetParam());
  TupleCodec codec({TypeId::kInt, TypeId::kDouble, TypeId::kString,
                    TypeId::kInt});
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<Value> vals;
    vals.push_back(rng.Bernoulli(0.1)
                       ? Value()
                       : Value(static_cast<int64_t>(rng.Next())));
    vals.push_back(rng.Bernoulli(0.1) ? Value() : Value(rng.UniformDouble()));
    std::string s;
    for (size_t i = 0; i < rng.Uniform(40); ++i) {
      s += static_cast<char>('a' + rng.Uniform(26));
    }
    vals.push_back(Value(s));
    vals.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
    Tuple t(std::move(vals));
    std::vector<uint8_t> buf;
    codec.Encode(t, &buf);
    size_t off = 0;
    EXPECT_EQ(codec.Decode(buf.data(), &off), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4));

/// Column types of the projected-decode tests: every type, twice, with
/// strings among them so that skipped fields have variable length.
std::vector<TypeId> MixedTypes() {
  return {TypeId::kString, TypeId::kInt,    TypeId::kDouble, TypeId::kString,
          TypeId::kInt,    TypeId::kString, TypeId::kDouble};
}

/// A random row of MixedTypes(): ~15 % NULLs, strings of 0..300 bytes
/// including bytes >= 0x80.
Tuple RandomMixedRow(Rng* rng) {
  std::vector<Value> vals;
  for (TypeId t : MixedTypes()) {
    if (rng->Bernoulli(0.15)) {
      vals.emplace_back();
      continue;
    }
    switch (t) {
      case TypeId::kInt:
        vals.emplace_back(static_cast<int64_t>(rng->Next()));
        break;
      case TypeId::kDouble:
        vals.emplace_back(rng->UniformDouble() * 1e6 - 5e5);
        break;
      case TypeId::kString: {
        std::string s(rng->Uniform(301), '\0');
        for (char& c : s) c = static_cast<char>(rng->Uniform(256));
        vals.emplace_back(std::move(s));
        break;
      }
    }
  }
  return Tuple(std::move(vals));
}

TEST_P(CodecFuzz, ProjectedDecodeMatchesFullDecode) {
  Rng rng(GetParam() + 100);
  TupleCodec codec(MixedTypes());
  const size_t ncols = MixedTypes().size();
  for (int iter = 0; iter < 100; ++iter) {
    Tuple t = RandomMixedRow(&rng);
    std::vector<uint8_t> buf;
    codec.Encode(t, &buf);
    size_t off = 0;
    const Tuple full = codec.Decode(buf.data(), &off);
    ASSERT_EQ(full, t);
    std::vector<Value> got;
    for (size_t c = 0; c < ncols; ++c) {
      codec.DecodeProjected(buf.data(), {c}, &got);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0].is_null(), full.at(c).is_null()) << "column " << c;
      EXPECT_EQ(got[0], full.at(c)) << "column " << c;
      const uint8_t* field = buf.data() + codec.FieldOffset(buf.data(), c);
      EXPECT_EQ(TupleCodec::FieldValue(field, MixedTypes()[c]), full.at(c));
    }
    // Any order, repeats allowed; nothing asked for yields nothing.
    codec.DecodeProjected(buf.data(), {5, 0, 5, 2}, &got);
    EXPECT_EQ(got, (std::vector<Value>{full.at(5), full.at(0), full.at(5),
                                       full.at(2)}));
    codec.DecodeProjected(buf.data(), {}, &got);
    EXPECT_TRUE(got.empty());
  }
}

TEST(TupleCodecTest, FieldReadersAndSizes) {
  TupleCodec codec({TypeId::kInt, TypeId::kString, TypeId::kDouble,
                    TypeId::kString, TypeId::kInt});
  Tuple t({Value(int64_t{-7}), Value(std::string("\x80\xff")), Value(-0.5),
           Value(std::string()), Value()});
  std::vector<uint8_t> buf;
  codec.Encode(t, &buf);
  const uint8_t* rec = buf.data();
  EXPECT_EQ(codec.FieldOffset(rec, 0), 0u);
  EXPECT_EQ(codec.FieldOffset(rec, 1), 9u);
  EXPECT_EQ(codec.FieldOffset(rec, 2), 16u);
  EXPECT_EQ(codec.FieldOffset(rec, 3), 25u);
  EXPECT_EQ(codec.FieldOffset(rec, 4), 30u);
  EXPECT_EQ(TupleCodec::FieldInt(rec), -7);
  EXPECT_EQ(TupleCodec::FieldString(rec + 9), std::string("\x80\xff"));
  EXPECT_EQ(TupleCodec::FieldDouble(rec + 16), -0.5);
  EXPECT_EQ(TupleCodec::FieldString(rec + 25), std::string());
  EXPECT_TRUE(TupleCodec::FieldIsNull(rec + 30));
  EXPECT_EQ(30u + TupleCodec::FieldSize(rec + 30, TypeId::kInt), buf.size());
}

// --------------------------------------------------------------- HeapTable

TEST(HeapTableTest, AppendAndScan) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 100; ++i) heap.Append(Tuple({Value(i)}));
  EXPECT_EQ(heap.num_rows(), 100u);

  auto cur = heap.Scan(nullptr);
  Tuple t;
  int64_t expected = 0;
  while (cur.Next(&t, nullptr)) {
    EXPECT_EQ(t.at(0).as_int(), expected++);
  }
  EXPECT_EQ(expected, 100);
}

TEST(HeapTableTest, FetchByRid) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt, TypeId::kString}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 500; ++i) {
    rids.push_back(heap.Append(
        Tuple({Value(i), Value("row" + std::to_string(i))})));
  }
  for (int64_t i : {0, 123, 499}) {
    auto t = heap.Fetch(rids[static_cast<size_t>(i)], nullptr);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->at(0).as_int(), i);
    EXPECT_EQ(t->at(1).as_string(), "row" + std::to_string(i));
  }
}

TEST(HeapTableTest, FetchBadRidFails) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  heap.Append(Tuple({Value(int64_t{1})}));
  EXPECT_TRUE(heap.Fetch(Rid{9, 0}, nullptr).status().IsNotFound());
  EXPECT_TRUE(heap.Fetch(Rid{0, 9}, nullptr).status().IsNotFound());
}

TEST(HeapTableTest, MultiplePagesAllocated) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kString}), &store);
  for (int i = 0; i < 100; ++i) {
    heap.Append(Tuple({Value(std::string(500, 'x'))}));
  }
  EXPECT_GT(heap.num_pages(), 5u);
  // ~16 rows of 500B fit an 8 KiB page.
  EXPECT_LE(heap.num_pages(), 10u);
}

TEST(HeapTableTest, ScanTouchesEachPageOnce) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kString}), &store);
  for (int i = 0; i < 64; ++i) {
    heap.Append(Tuple({Value(std::string(1000, 'y'))}));
  }
  size_t touches = 0;
  auto cur = heap.Scan([&](PageId) { ++touches; });
  Tuple t;
  while (cur.Next(&t, nullptr)) {
  }
  EXPECT_EQ(touches, heap.num_pages());
}

TEST(HeapTableTest, ScanYieldsValidRids) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 200; ++i) heap.Append(Tuple({Value(i)}));
  auto cur = heap.Scan(nullptr);
  Tuple t;
  Rid rid;
  while (cur.Next(&t, &rid)) {
    auto fetched = heap.Fetch(rid, nullptr);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(*fetched, t);
  }
}

TEST(HeapTableTest, InsertReportsTailPageAndMatchesAppend) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  size_t touches = 0;
  for (int64_t i = 0; i < 300; ++i) {
    auto rid = heap.Insert(Tuple({Value(i)}), [&](PageId) { ++touches; });
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    // Insert lands rows where Append would: the same (page, slot) walk.
    auto fetched = heap.Fetch(*rid, nullptr);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched->at(0).as_int(), i);
  }
  // One tail-page touch per insert (write-path accounting).
  EXPECT_EQ(touches, 300u);
  EXPECT_EQ(heap.num_rows(), 300u);
}

TEST(HeapTableTest, DeleteTombstonesAndScansSkip) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 100; ++i) rids.push_back(heap.Append(Tuple({Value(i)})));

  // Tombstone every third row.
  for (size_t i = 0; i < rids.size(); i += 3) {
    EXPECT_TRUE(heap.IsLive(rids[i]));
    TB_ASSERT_OK(heap.Delete(rids[i], nullptr));
    EXPECT_FALSE(heap.IsLive(rids[i]));
    // The bytes stay but the row is dead to reads.
    EXPECT_TRUE(heap.Fetch(rids[i], nullptr).status().IsNotFound());
  }
  EXPECT_EQ(heap.num_rows(), 66u);
  EXPECT_EQ(heap.num_deleted(), 34u);

  // Double delete and out-of-range rids are NotFound, not corruption.
  EXPECT_TRUE(heap.Delete(rids[0], nullptr).IsNotFound());
  EXPECT_TRUE(heap.Delete(Rid{99, 0}, nullptr).IsNotFound());

  // Scans yield exactly the survivors, in order.
  auto cur = heap.Scan(nullptr);
  Tuple t;
  Rid rid;
  int64_t seen = 0;
  while (cur.Next(&t, &rid)) {
    EXPECT_NE(t.at(0).as_int() % 3, 0) << "tombstoned row leaked into scan";
    ++seen;
  }
  EXPECT_EQ(seen, 66);
}

TEST(HeapTableTest, InsertAfterDeleteStaysAppendOnly) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  std::vector<Rid> rids;
  for (int64_t i = 0; i < 10; ++i) rids.push_back(heap.Append(Tuple({Value(i)})));
  TB_ASSERT_OK(heap.Delete(rids[4], nullptr));
  // The tombstoned slot is never reused: new rows append past the tail,
  // which is the invariant the online index build's scan bound rests on.
  auto rid = heap.Insert(Tuple({Value(int64_t{10})}), nullptr);
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(rids.back() < *rid);
}

TEST(HeapTableTest, DropFreesPages) {
  PageStore store;
  HeapTable heap("t", TupleCodec({TypeId::kInt}), &store);
  for (int64_t i = 0; i < 5000; ++i) heap.Append(Tuple({Value(i)}));
  size_t before = store.allocated_pages();
  EXPECT_GT(before, 0u);
  heap.Drop();
  EXPECT_EQ(store.allocated_pages(), 0u);
  EXPECT_EQ(heap.num_rows(), 0u);
}

// ------------------------------------------------ HeapTable slot directory

/// A row whose encoded length varies with `i` (0..299 payload bytes), so
/// pages hold different slot counts and no record sits at a fixed offset.
Tuple VarRow(int64_t i) {
  return Tuple({Value(i), Value(std::string(static_cast<size_t>(i * 37 % 300),
                                            static_cast<char>('a' + i % 26))),
                Value(-i)});
}

TupleCodec VarCodec() {
  return TupleCodec({TypeId::kInt, TypeId::kString, TypeId::kInt});
}

/// Appends VarRow(first_id) .. VarRow(first_id + n - 1); returns each
/// page's rids, in slot order.
std::vector<std::vector<Rid>> AppendVarRows(HeapTable* heap, int64_t first_id,
                                            int64_t n) {
  std::vector<std::vector<Rid>> by_page;
  for (int64_t i = first_id; i < first_id + n; ++i) {
    Rid rid = heap->Append(VarRow(i));
    if (rid.page_ordinal >= by_page.size()) by_page.resize(rid.page_ordinal + 1);
    EXPECT_EQ(rid.slot, by_page[rid.page_ordinal].size());
    by_page[rid.page_ordinal].push_back(rid);
  }
  return by_page;
}

/// The row id the i-th appended row (first_id-based) carries in column 0.
int64_t RowIdAt(const std::vector<std::vector<Rid>>& by_page, int64_t first_id,
                const Rid& rid) {
  int64_t before = 0;
  for (uint32_t p = 0; p < rid.page_ordinal; ++p) {
    before += static_cast<int64_t>(by_page[p].size());
  }
  return first_id + before + rid.slot;
}

/// Fetches the first, middle and last slot of every page; each must decode
/// to exactly the row appended there (or be NotFound when tombstoned).
void ExpectEdgeSlotsDecode(const HeapTable& heap,
                           const std::vector<std::vector<Rid>>& by_page,
                           int64_t first_id) {
  for (const auto& page : by_page) {
    ASSERT_FALSE(page.empty());
    for (size_t s : {size_t{0}, page.size() / 2, page.size() - 1}) {
      const Rid& rid = page[s];
      SCOPED_TRACE(::testing::Message() << "page " << rid.page_ordinal
                                      << " slot " << rid.slot);
      auto fetched = heap.Fetch(rid, nullptr);
      if (!heap.IsLive(rid)) {
        EXPECT_TRUE(fetched.status().IsNotFound());
        continue;
      }
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      EXPECT_EQ(*fetched, VarRow(RowIdAt(by_page, first_id, rid)));
    }
  }
}

TEST(HeapSlotDirectoryTest, FetchesEdgeSlotsOfEveryPage) {
  PageStore store;
  HeapTable heap("t", VarCodec(), &store);
  auto by_page = AppendVarRows(&heap, 0, 2000);
  ASSERT_GT(by_page.size(), 20u);
  // Variable-length rows: pages hold different slot counts.
  std::set<size_t> slot_counts;
  for (const auto& page : by_page) slot_counts.insert(page.size());
  EXPECT_GT(slot_counts.size(), 1u);
  ExpectEdgeSlotsDecode(heap, by_page, 0);
  // Fetch touches exactly the addressed page, once.
  const Rid last = by_page.back().back();
  std::vector<PageId> touched;
  ASSERT_TRUE(heap.Fetch(last, [&](PageId id) { touched.push_back(id); }).ok());
  EXPECT_EQ(touched, std::vector<PageId>{heap.pages()[last.page_ordinal]});
}

TEST(HeapSlotDirectoryTest, TombstonedSlotsAreNotFoundAndNeighboursDecode) {
  PageStore store;
  HeapTable heap("t", VarCodec(), &store);
  auto by_page = AppendVarRows(&heap, 0, 2000);
  // Tombstone the last slot of even pages, the middle slot of odd pages,
  // and every 7th row.
  std::set<std::pair<uint32_t, uint32_t>> dead;
  for (size_t p = 0; p < by_page.size(); ++p) {
    const auto& page = by_page[p];
    dead.insert({static_cast<uint32_t>(p),
                 static_cast<uint32_t>(p % 2 == 0 ? page.size() - 1
                                                  : page.size() / 2)});
    for (size_t s = 0; s < page.size(); ++s) {
      if (RowIdAt(by_page, 0, page[s]) % 7 == 0) {
        dead.insert({static_cast<uint32_t>(p), static_cast<uint32_t>(s)});
      }
    }
  }
  for (const auto& [p, s] : dead) TB_ASSERT_OK(heap.Delete(Rid{p, s}, nullptr));
  EXPECT_EQ(heap.num_deleted(), dead.size());

  for (const auto& [p, s] : dead) {
    SCOPED_TRACE(::testing::Message() << "page " << p << " slot " << s);
    EXPECT_TRUE(heap.Fetch(Rid{p, s}, nullptr).status().IsNotFound());
    // Both neighbours on the page still decode (or are dead themselves).
    for (int64_t d : {-1, 1}) {
      const int64_t n = static_cast<int64_t>(s) + d;
      if (n < 0 || n >= static_cast<int64_t>(by_page[p].size())) continue;
      const Rid nb{p, static_cast<uint32_t>(n)};
      auto fetched = heap.Fetch(nb, nullptr);
      if (dead.count({p, nb.slot}) != 0) {
        EXPECT_TRUE(fetched.status().IsNotFound());
      } else {
        ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
        EXPECT_EQ(*fetched, VarRow(RowIdAt(by_page, 0, nb)));
      }
    }
  }
  ExpectEdgeSlotsDecode(heap, by_page, 0);
}

TEST(HeapSlotDirectoryTest, DropThenReAppendRebuildsTheDirectory) {
  PageStore store;
  HeapTable heap("t", VarCodec(), &store);
  auto old_pages = AppendVarRows(&heap, 0, 2000);
  TB_ASSERT_OK(heap.Delete(old_pages[0][0], nullptr));
  heap.Drop();
  EXPECT_EQ(heap.num_pages(), 0u);
  EXPECT_TRUE(heap.Fetch(Rid{0, 0}, nullptr).status().IsNotFound());
  // Shifted ids give every page a different slot layout than before.
  auto by_page = AppendVarRows(&heap, 13, 900);
  EXPECT_LT(by_page.size(), old_pages.size());
  EXPECT_EQ(heap.num_deleted(), 0u);
  ExpectEdgeSlotsDecode(heap, by_page, 13);
  // Pages past the new tail are gone.
  EXPECT_TRUE(heap.Fetch(Rid{static_cast<uint32_t>(by_page.size()), 0}, nullptr)
                  .status()
                  .IsNotFound());
}

TEST(HeapSlotDirectoryTest, SlotPastAPartlyFilledTailPageIsNotFound) {
  PageStore store;
  HeapTable heap("t", VarCodec(), &store);
  auto by_page = AppendVarRows(&heap, 0, 1000);
  // Append until a fresh tail page opens, then one row more: the tail page
  // holds two rows and has room for many.
  int64_t next = 1000;
  while (heap.Append(VarRow(next++)).page_ordinal < by_page.size()) {
  }
  heap.Append(VarRow(next++));
  const uint32_t last = static_cast<uint32_t>(heap.num_pages() - 1);
  const uint32_t tail_slots = 2;
  ASSERT_EQ(last, by_page.size());
  EXPECT_TRUE(heap.Fetch(Rid{last, tail_slots - 1}, nullptr).ok());
  EXPECT_TRUE(heap.Fetch(Rid{last, tail_slots}, nullptr).status().IsNotFound());
  EXPECT_TRUE(
      heap.Fetch(Rid{last, tail_slots + 100}, nullptr).status().IsNotFound());
  // A full page's slot count is out of range there too.
  const uint32_t full_slots = static_cast<uint32_t>(by_page[0].size());
  EXPECT_TRUE(heap.Fetch(Rid{0, full_slots}, nullptr).status().IsNotFound());
}

// ------------------------------------------------- HeapTable projections

/// A multi-page heap of random MixedTypes() rows with every fifth row (and
/// all of page 1) tombstoned.
struct ChurnedHeap {
  PageStore store;
  HeapTable heap{"t", TupleCodec(MixedTypes()), &store};

  explicit ChurnedHeap(uint64_t seed, int rows = 600) {
    Rng rng(seed);
    std::vector<Rid> rids;
    for (int i = 0; i < rows; ++i) {
      rids.push_back(heap.Append(RandomMixedRow(&rng)));
    }
    for (size_t i = 0; i < rids.size(); ++i) {
      if (i % 5 == 0 || rids[i].page_ordinal == 1) {
        EXPECT_TRUE(heap.Delete(rids[i], nullptr).ok());
      }
    }
  }
};

TEST(HeapTableTest, ProjectedScansMatchWholeRowScan) {
  ChurnedHeap h(7);
  ASSERT_GT(h.heap.num_pages(), 3u);
  std::vector<Tuple> rows;
  std::vector<Rid> rids;
  std::vector<PageId> full_touches;
  {
    auto cur = h.heap.Scan([&](PageId id) { full_touches.push_back(id); });
    Tuple t;
    Rid rid;
    while (cur.Next(&t, &rid)) {
      rows.push_back(t);
      rids.push_back(rid);
    }
  }
  ASSERT_EQ(rows.size(), h.heap.num_rows());
  EXPECT_EQ(full_touches, h.heap.pages());

  const size_t ncols = MixedTypes().size();
  for (size_t c = 0; c < ncols; ++c) {
    std::vector<PageId> touches;
    auto cur = h.heap.Scan([&](PageId id) { touches.push_back(id); });
    std::vector<Value> vals;
    Rid rid;
    size_t n = 0;
    while (cur.Next({c}, &vals, &rid)) {
      ASSERT_LT(n, rows.size());
      EXPECT_EQ(rid, rids[n]);
      EXPECT_EQ(vals, std::vector<Value>{rows[n].at(c)}) << "column " << c;
      ++n;
    }
    EXPECT_EQ(n, rows.size());
    EXPECT_EQ(touches, full_touches);
  }
  {
    std::vector<PageId> touches;
    auto cur = h.heap.Scan([&](PageId id) { touches.push_back(id); });
    std::vector<Value> vals;
    Rid rid;
    size_t n = 0;
    while (cur.Next({6, 1, 3}, &vals, &rid)) {
      ASSERT_LT(n, rows.size());
      EXPECT_EQ(vals, rows[n].Project({6, 1, 3}).values());
      ++n;
    }
    EXPECT_EQ(n, rows.size());
    EXPECT_EQ(touches, full_touches);
  }
  {
    std::vector<PageId> touches;
    auto cur = h.heap.Scan([&](PageId id) { touches.push_back(id); });
    std::vector<Rid> got;
    Rid rid;
    while (cur.NextRid(&rid)) got.push_back(rid);
    EXPECT_EQ(got, rids);
    EXPECT_EQ(touches, full_touches);
  }
  {
    auto cur = h.heap.Scan(nullptr);
    const uint8_t* rec = nullptr;
    size_t n = 0;
    while (cur.NextRecord(&rec, nullptr)) {
      ASSERT_LT(n, rows.size());
      size_t off = 0;
      EXPECT_EQ(h.heap.codec().Decode(rec, &off), rows[n]);
      ++n;
    }
    EXPECT_EQ(n, rows.size());
  }
}

TEST(HeapTableTest, ProjectedScanFiresHeapScanOncePerPage) {
  ChurnedHeap h(11);
  auto hits_of = [&](const std::function<void(HeapTable::Cursor*)>& drain) {
    // Never fires: the schedule only counts.
    FaultSpec spec;
    spec.point = "storage.heap_scan";
    spec.trigger = FaultSpec::Trigger::kNth;
    spec.nth = uint64_t{1} << 40;
    EXPECT_TRUE(FaultRegistry::Global().Arm(spec).ok());
    auto cur = h.heap.Scan(nullptr);
    drain(&cur);
    uint64_t hits = FaultRegistry::Global().stats("storage.heap_scan").hits;
    FaultRegistry::Global().DisarmAll();
    return hits;
  };
  const uint64_t pages = h.heap.num_pages();
  EXPECT_EQ(hits_of([](HeapTable::Cursor* c) {
              Tuple t;
              while (c->Next(&t, nullptr)) {
              }
            }),
            pages);
  EXPECT_EQ(hits_of([](HeapTable::Cursor* c) {
              std::vector<Value> v;
              while (c->Next({3}, &v, nullptr)) {
              }
            }),
            pages);
  EXPECT_EQ(hits_of([](HeapTable::Cursor* c) {
              Rid r;
              while (c->NextRid(&r)) {
              }
            }),
            pages);
  EXPECT_EQ(hits_of([](HeapTable::Cursor* c) {
              const uint8_t* rec = nullptr;
              while (c->NextRecord(&rec, nullptr)) {
              }
            }),
            pages);
}

}  // namespace
}  // namespace tabbench
