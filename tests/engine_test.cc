#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "core/configurations.h"
#include "engine/database.h"
#include "engine/index_build.h"
#include "test_util.h"

namespace tabbench {
namespace {

using testing::TinyDb;

TEST(EngineTest, CreateTableValidations) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_EQ(db.CreateTable(t).code(), Status::Code::kAlreadyExists);
}

TEST(EngineTest, InsertArityChecked) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8},
               {"b", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_FALSE(db.Insert("t", Tuple(std::vector<Value>{Value(int64_t{1})})).ok());
  EXPECT_TRUE(db.Insert("t", Tuple(std::vector<Value>{Value(int64_t{1}),
                                                    Value(int64_t{2})}))
                  .ok());
  EXPECT_TRUE(db.Insert("missing", Tuple()).IsNotFound());
}

TEST(EngineTest, BufferStatsExposeSharedPoolAccounting) {
  TinyDb tiny = TinyDb::Make(500, 10);
  Database* db = tiny.db.get();
  db->buffer_pool()->Clear();
  BufferPoolStats cold = db->buffer_stats();
  EXPECT_EQ(cold.accesses(), 0u);
  EXPECT_EQ(cold.resident, 0u);
  EXPECT_EQ(cold.capacity, db->options().buffer_pool_pages);

  ASSERT_TRUE(db->Run("SELECT p.city, COUNT(*) FROM people p "
                      "GROUP BY p.city").ok());
  BufferPoolStats after_cold = db->buffer_stats();
  EXPECT_GT(after_cold.misses, 0u);

  // A second, warm run only adds hits.
  ASSERT_TRUE(db->Run("SELECT p.city, COUNT(*) FROM people p "
                      "GROUP BY p.city").ok());
  BufferPoolStats after_warm = db->buffer_stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_GT(after_warm.HitRatio(), after_cold.HitRatio());

  // Clear() starts a new accounting epoch (cold-start runs are comparable).
  db->buffer_pool()->Clear();
  EXPECT_EQ(db->buffer_stats().accesses(), 0u);
}

TEST(EngineTest, RunBeforeFinishLoadFails) {
  Database db;
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d", true, 8}};
  t.primary_key = {"a"};
  ASSERT_TRUE(db.CreateTable(t).ok());
  EXPECT_FALSE(db.Run("SELECT a FROM t").ok());
}

TEST(EngineTest, FinishLoadBuildsPkIndexes) {
  TinyDb tiny = TinyDb::Make(500, 10);
  ConfigView v = tiny.db->CurrentView();
  int pk_count = 0;
  for (const auto& idx : v.indexes) {
    if (idx.def.is_primary) ++pk_count;
  }
  EXPECT_EQ(pk_count, 2);  // people_pk + depts_pk
  EXPECT_NE(tiny.db->FindIndex("people_pk"), nullptr);
}

TEST(EngineTest, ApplyAndResetConfiguration) {
  TinyDb tiny = TinyDb::Make(2000, 20);
  Database* db = tiny.db.get();
  uint64_t base = db->BasePages();
  EXPECT_EQ(db->SecondaryPages(), 0u);

  Configuration one_c = Make1CConfig(db->catalog());
  auto rep = db->ApplyConfiguration(one_c);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->objects.size(), one_c.indexes.size());
  EXPECT_GT(rep->secondary_pages, 0u);
  EXPECT_GT(rep->build_seconds, 0.0);
  EXPECT_EQ(db->SecondaryPages(), rep->secondary_pages);
  EXPECT_EQ(db->BasePages(), base);
  EXPECT_EQ(db->current_config().name, "1C");

  ASSERT_TRUE(db->ResetToPrimary().ok());
  EXPECT_EQ(db->SecondaryPages(), 0u);
  EXPECT_EQ(db->current_config().name, "P");
}

TEST(EngineTest, ReapplyReplacesPreviousConfiguration) {
  TinyDb tiny = TinyDb::Make(1000, 10);
  Database* db = tiny.db.get();
  Configuration a;
  a.name = "A";
  a.indexes.push_back({"ix_a", "people", {"dept"}, false});
  Configuration b;
  b.name = "B";
  b.indexes.push_back({"ix_b", "people", {"city"}, false});
  ASSERT_TRUE(db->ApplyConfiguration(a).ok());
  uint64_t pages_a = db->SecondaryPages();
  ASSERT_TRUE(db->ApplyConfiguration(b).ok());
  EXPECT_EQ(db->FindIndex("ix_a"), nullptr);
  EXPECT_NE(db->FindIndex("ix_b"), nullptr);
  EXPECT_NEAR(static_cast<double>(db->SecondaryPages()),
              static_cast<double>(pages_a), pages_a * 0.9 + 4);
}

TEST(EngineTest, ApplyUnknownTargetFails) {
  TinyDb tiny = TinyDb::Make(100, 5);
  Configuration bad;
  bad.indexes.push_back({"ix", "nope", {"x"}, false});
  EXPECT_FALSE(tiny.db->ApplyConfiguration(bad).ok());
}

TEST(EngineTest, BuildReportTracksPerObjectCosts) {
  TinyDb tiny = TinyDb::Make(3000, 10);
  Configuration cfg;
  cfg.name = "two";
  cfg.indexes.push_back({"ix1", "people", {"dept"}, false});
  cfg.indexes.push_back({"ix2", "people", {"dept", "city", "score"}, false});
  auto rep = tiny.db->ApplyConfiguration(cfg);
  ASSERT_TRUE(rep.ok());
  ASSERT_EQ(rep->objects.size(), 2u);
  // The wider index occupies more pages.
  EXPECT_GT(rep->objects[1].pages, rep->objects[0].pages);
  for (const auto& o : rep->objects) {
    EXPECT_GT(o.build_seconds, 0.0);
    EXPECT_GT(o.pages, 0u);
  }
}

TEST(EngineTest, ViewBuildMaterializesJoin) {
  TinyDb tiny = TinyDb::Make(2000, 20);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "V";
  ViewDef v;
  v.name = "pd";
  v.tables = {"people", "depts"};
  v.joins = {{"people", "dept", "depts", "dept_id"}};
  v.projection = {{"people", "id", "people_id"},
                  {"depts", "region", "depts_region"}};
  cfg.views.push_back(v);
  // Plus an index over the view.
  cfg.indexes.push_back({"ix_pd_region", "pd", {"depts_region"}, false});
  auto rep = db->ApplyConfiguration(cfg);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const HeapTable* view_heap = db->FindHeap("pd");
  ASSERT_NE(view_heap, nullptr);
  // Every person has a dept (FK): one view row per person.
  EXPECT_EQ(view_heap->num_rows(), 2000u);
  EXPECT_NE(db->FindIndex("ix_pd_region"), nullptr);
  ASSERT_TRUE(db->ResetToPrimary().ok());
  EXPECT_EQ(db->FindHeap("pd"), nullptr);
}

TEST(EngineTest, TimedInsertCostGrowsWithIndexCount) {
  TinyDb tiny = TinyDb::Make(4000, 20);
  Database* db = tiny.db.get();

  auto insert_cost = [&](int64_t id) {
    std::vector<Value> row;
    row.emplace_back(id);
    row.emplace_back(int64_t{3});
    row.emplace_back(std::string("cityX"));
    row.emplace_back(int64_t{500});
    auto c = db->TimedInsert("people", Tuple(std::move(row)));
    EXPECT_TRUE(c.ok());
    return c.ok() ? *c : 0.0;
  };

  ASSERT_TRUE(db->ResetToPrimary().ok());
  double cost_p = insert_cost(1000001);
  ASSERT_TRUE(db->ApplyConfiguration(Make1CConfig(db->catalog())).ok());
  double cost_1c = insert_cost(1000002);
  EXPECT_GT(cost_1c, cost_p);
  ASSERT_TRUE(db->ResetToPrimary().ok());
}

TEST(EngineTest, TimedInsertVisibleToQueries) {
  TinyDb tiny = TinyDb::Make(500, 5);
  Database* db = tiny.db.get();
  auto before = db->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 2");
  ASSERT_TRUE(before.ok());
  std::vector<Value> row{Value(int64_t{990001}), Value(int64_t{2}),
                         Value(std::string("cityZ")), Value(int64_t{1})};
  ASSERT_TRUE(db->TimedInsert("people", Tuple(std::move(row))).ok());
  auto after = db->Run("SELECT COUNT(*) FROM people p WHERE p.dept = 2");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0].at(0).as_int(),
            before->rows[0].at(0).as_int() + 1);
}

TEST(EngineTest, CollectStatisticsRefreshesCounts) {
  TinyDb tiny = TinyDb::Make(300, 5);
  Database* db = tiny.db.get();
  EXPECT_EQ(db->stats().FindTable("people")->row_count, 300u);
  for (int64_t i = 0; i < 50; ++i) {
    std::vector<Value> row{Value(int64_t{800000 + i}), Value(int64_t{1}),
                           Value(std::string("c")), Value(int64_t{1})};
    ASSERT_TRUE(db->Insert("people", Tuple(std::move(row))).ok());
  }
  ASSERT_TRUE(db->CollectStatistics().ok());
  EXPECT_EQ(db->stats().FindTable("people")->row_count, 350u);
}

TEST(EngineTest, CurrentViewReflectsBuiltState) {
  TinyDb tiny = TinyDb::Make(2000, 10);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "one";
  cfg.indexes.push_back({"ix_city", "people", {"city"}, false});
  ASSERT_TRUE(db->ApplyConfiguration(cfg).ok());
  ConfigView v = db->CurrentView();
  const PhysicalIndex* found = nullptr;
  for (const auto& idx : v.indexes) {
    if (idx.def.name == "ix_city") found = &idx;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->hypothetical);
  EXPECT_DOUBLE_EQ(found->entries, 2000.0);
  EXPECT_GT(found->distinct_keys, 1.0);
  EXPECT_GT(found->leaf_pages, 0.0);
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

std::map<std::string, uint64_t> SecondaryFingerprints(const Database& db) {
  std::map<std::string, uint64_t> out;
  for (const auto& idx : db.current_config().indexes) {
    if (idx.is_primary) continue;
    auto fp = db.SecondaryIndexFingerprint(idx.name);
    if (fp.ok()) out[idx.name] = *fp;
  }
  return out;
}

// The pinned values below were produced by the whole-row index builder
// (every column of every row decoded into a Tuple, keys sorted with
// CompareKeys). The key-only builders must reproduce its trees and its
// simulated charges bit for bit.
TEST(EngineTest, OneColumnBuildOnMiniNrefPinned) {
  std::unique_ptr<Database> db = testing::MakeMiniNref();
  ASSERT_NE(db, nullptr);
  auto rep = db->ApplyConfiguration(Make1CConfig(db->catalog()));
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(DoubleBits(rep->build_seconds), 0x409aa10275256e70ULL);
  EXPECT_EQ(rep->secondary_pages, 378u);
  const std::map<std::string, uint64_t> expected = {
      {"oc_identical_seq_nref_id_1", 0x5ad588b7a0654fb6ULL},
      {"oc_identical_seq_nref_id_2", 0xa1ca9d1526c74ecfULL},
      {"oc_identical_seq_ordinal", 0x5296f43cce8e4df0ULL},
      {"oc_identical_seq_taxon_id", 0x013abc33e25551d2ULL},
      {"oc_neighboring_seq_length_2", 0x5c4842b34680260bULL},
      {"oc_neighboring_seq_nref_id_1", 0x5755167e14d76634ULL},
      {"oc_neighboring_seq_nref_id_2", 0x132564ac9820fb2cULL},
      {"oc_neighboring_seq_ordinal", 0xda53c26856943d35ULL},
      {"oc_neighboring_seq_overlap_length", 0xf194def63b5487bfULL},
      {"oc_neighboring_seq_taxon_id_2", 0xca76112f136d300eULL},
      {"oc_organism_name", 0x17ce72d94caef26cULL},
      {"oc_organism_nref_id", 0x0b7e4bf4bb48a5b0ULL},
      {"oc_organism_ordinal", 0x8ff380d95efb75d3ULL},
      {"oc_organism_taxon_id", 0x0c6b24a897d19802ULL},
      {"oc_protein_last_updated", 0x396e8c8ea907f25eULL},
      {"oc_protein_length", 0x9be78290ce618cfbULL},
      {"oc_protein_nref_id", 0x23b60038b4f0a566ULL},
      {"oc_protein_p_name", 0x5bfdbad3bfab3302ULL},
      {"oc_source_accession", 0x8c193b6629934d4cULL},
      {"oc_source_nref_id", 0x7b041e6fb2697b5cULL},
      {"oc_source_p_id", 0xf0303c9c039288a6ULL},
      {"oc_source_p_name", 0xce62e250ab7376e1ULL},
      {"oc_source_source", 0xbaf48c19176cb3f9ULL},
      {"oc_source_taxon_id", 0x94bdfd03110b4869ULL},
      {"oc_taxonomy_common_name", 0x71ef5bdf7d6e906dULL},
      {"oc_taxonomy_lineage", 0xb2050f1986ca7384ULL},
      {"oc_taxonomy_nref_id", 0x4ca3c892c3bd5ed5ULL},
      {"oc_taxonomy_species_name", 0x3999284472531fbbULL},
      {"oc_taxonomy_taxon_id", 0x616e78aee278b136ULL},
  };
  EXPECT_EQ(SecondaryFingerprints(*db), expected);
}

// View and composite (string, int) keys, plus the shadow and online
// builders, against the same whole-row builder's values.
TEST(EngineTest, ViewCompositeShadowAndOnlineBuildsPinned) {
  TinyDb tiny = TinyDb::Make(3000, 40);
  Database* db = tiny.db.get();
  Configuration cfg;
  cfg.name = "VC";
  ViewDef v;
  v.name = "pd";
  v.tables = {"people", "depts"};
  v.joins = {{"people", "dept", "depts", "dept_id"}};
  v.projection = {{"people", "city", "people_city"},
                  {"depts", "region", "depts_region"}};
  cfg.views.push_back(v);
  cfg.indexes.push_back(
      {"ix_pd", "pd", {"depts_region", "people_city"}, false});
  cfg.indexes.push_back({"ix_cs", "people", {"city", "score", "dept"}, false});
  auto rep = db->ApplyConfiguration(cfg);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(DoubleBits(rep->build_seconds), 0x3fe5cc7d1bb4918bULL);
  EXPECT_EQ(rep->secondary_pages, 38u);
  const std::map<std::string, uint64_t> expected = {
      {"ix_cs", 0x62bd0ebac40e915dULL},
      {"ix_pd", 0x9e183fa4cd98c441ULL},
  };
  EXPECT_EQ(SecondaryFingerprints(*db), expected);

  BufferPool shadow_pool(db->options().buffer_pool_pages);
  ExecContext shadow_ctx =
      db->MakeSessionContext(&shadow_pool, db->options().cost);
  auto shadow = ShadowIndexBuild(
      *db, {"sh", "people", {"score", "city"}, false}, &shadow_ctx);
  ASSERT_TRUE(shadow.ok()) << shadow.status().ToString();
  EXPECT_EQ(shadow->fingerprint, 0xf51bc1909c4a0c4fULL);
  EXPECT_EQ(DoubleBits(shadow->sim_seconds), 0x3fd3388a8b08dd4eULL);
  EXPECT_EQ(shadow->pages, 13u);

  BufferPool online_pool(db->options().buffer_pool_pages);
  ExecContext online_ctx =
      db->MakeSessionContext(&online_pool, db->options().cost);
  IndexBuildOptions bopts;
  bopts.rows_per_step = 100;
  OnlineIndexBuild build(db, {"ix_online", "people", {"city", "id"}, false},
                         bopts);
  TB_ASSERT_OK(build.Start(&online_ctx));
  while (!build.done()) {
    auto st = build.Step(&online_ctx);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  }
  auto online_fp = db->SecondaryIndexFingerprint("ix_online");
  ASSERT_TRUE(online_fp.ok());
  EXPECT_EQ(*online_fp, 0xa31f6d00b7442b45ULL);
  EXPECT_EQ(DoubleBits(online_ctx.sim_time()), 0x3fd3388a8b08dd4eULL);
}

}  // namespace
}  // namespace tabbench
