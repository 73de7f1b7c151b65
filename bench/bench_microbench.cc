// google-benchmark microbenchmarks of the engine's hot paths: B+-tree
// probes, probe walks and inserts, heap fetch by slot, whole-row vs
// projected heap scans, the timeout check, tuple codec, buffer-pool
// bookkeeping, IN-set materialization (memo miss vs hit), the bulk passes
// (ANALYZE of one table, an index build), and end-to-end
// planning/execution on a small database. These
// guard the wall-clock cost of the simulation itself (the figure benches
// run hundreds of queries).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_support.h"
#include "engine/database.h"
#include "exec/operators.h"
#include "optimizer/planner.h"
#include "sql/binder.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_table.h"
#include "storage/stats_collector.h"
#include "storage/tuple_codec.h"
#include "util/rng.h"

namespace tabbench {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  Rng rng(1);
  uint32_t i = 0;
  for (auto _ : state) {
    Status s = tree.Insert({Value(static_cast<int64_t>(rng.Uniform(1 << 20)))},
                           Rid{i++, 0}, nullptr);
    if (!s.ok()) state.SkipWithError(s.message().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeSeek(benchmark::State& state) {
  PageStore store;
  BTree tree("ix", 1, 8, &store);
  std::vector<std::pair<IndexKey, Rid>> entries;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    entries.emplace_back(IndexKey{Value(i)},
                         Rid{static_cast<uint32_t>(i), 0});
  }
  tree.BulkBuild(std::move(entries));
  Rng rng(2);
  for (auto _ : state) {
    IndexKey key{Value(static_cast<int64_t>(rng.Uniform(
        static_cast<uint64_t>(n))))};
    auto it = tree.SeekPrefix(key, nullptr);
    const IndexKey* k = nullptr;
    Rid r;
    benchmark::DoNotOptimize(it.Next(&k, &r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSeek)->Arg(1000)->Arg(100000)->Arg(1000000);

/// A SeekPrefix followed by a walk of every matching entry: the inner
/// side of an index nested-loop join. range(0) entries share each key;
/// the walk reads each key through the iterator's pointer, copying none.
void BM_BTreeProbeIterate(benchmark::State& state) {
  PageStore store;
  BTree tree("ix", 2, 16, &store);
  const int64_t dups = state.range(0);
  constexpr int64_t kKeys = 1000;
  std::vector<std::pair<IndexKey, Rid>> entries;
  for (int64_t k = 0; k < kKeys; ++k) {
    for (int64_t d = 0; d < dups; ++d) {
      entries.emplace_back(IndexKey{Value(k), Value(d)},
                           Rid{static_cast<uint32_t>(k * dups + d), 0});
    }
  }
  tree.BulkBuild(std::move(entries));
  Rng rng(5);
  int64_t walked = 0;
  for (auto _ : state) {
    IndexKey prefix{Value(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(kKeys))))};
    auto it = tree.SeekPrefix(prefix, nullptr);
    const IndexKey* k = nullptr;
    Rid r;
    int64_t sum = 0;
    while (it.Next(&k, &r)) {
      sum += (*k)[1].as_int();
      ++walked;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(walked);
}
BENCHMARK(BM_BTreeProbeIterate)->ArgName("dups")->Arg(1)->Arg(16)->Arg(128);

/// HeapTable::Fetch of the first vs the last slot of full pages. The slot
/// directory makes both O(1), so the two read the same; a fetch that
/// walked the records before its slot would make last_slot the slow one.
void BM_HeapFetch(benchmark::State& state, bool last_slot) {
  PageStore store;
  HeapTable heap("t",
                 TupleCodec({TypeId::kInt, TypeId::kInt, TypeId::kString}),
                 &store);
  std::vector<std::vector<Rid>> by_page;
  for (int64_t i = 0; i < 20000; ++i) {
    Rid rid = heap.Append(Tuple({Value(i), Value(i % 100),
                                 Value("s" + std::to_string(i % 500))}));
    if (rid.page_ordinal >= by_page.size()) by_page.emplace_back();
    by_page[rid.page_ordinal].push_back(rid);
  }
  by_page.pop_back();  // the tail page is not full
  std::vector<Rid> rids;
  for (const auto& page : by_page) {
    rids.push_back(last_slot ? page.back() : page.front());
  }
  size_t i = 0;
  for (auto _ : state) {
    Result<Tuple> t = heap.Fetch(rids[i], nullptr);
    if (!t.ok()) state.SkipWithError(t.status().message().c_str());
    benchmark::DoNotOptimize(t);
    i = (i + 1) % rids.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_HeapFetch, first_slot, false);
BENCHMARK_CAPTURE(BM_HeapFetch, last_slot, true);

/// An 11-column heap shaped like NREF's neighboring_seq (ints, a double
/// and short strings; 20 000 rows), for the bulk-pass benchmarks.
const HeapTable& WideHeap() {
  static PageStore store;
  static const HeapTable* heap = [] {
    // Leaked like SharedDb's database. NOLINT(tabbench-naked-new)
    auto* h = new HeapTable(  // NOLINT(tabbench-naked-new)
        "wide",
        TupleCodec({TypeId::kInt, TypeId::kString, TypeId::kInt,
                    TypeId::kString, TypeId::kInt, TypeId::kInt,
                    TypeId::kInt, TypeId::kDouble, TypeId::kInt,
                    TypeId::kString, TypeId::kInt}),
        &store);
    Rng rng(6);
    for (int64_t i = 0; i < 20000; ++i) {
      h->Append(Tuple(
          {Value(i), Value("NF" + std::to_string(rng.Uniform(5000))),
           Value(static_cast<int64_t>(rng.Uniform(1000))),
           Value("NF" + std::to_string(rng.Uniform(5000))),
           Value(static_cast<int64_t>(rng.Uniform(300))),
           Value(static_cast<int64_t>(rng.Uniform(300))),
           Value(static_cast<int64_t>(rng.Uniform(50))),
           Value(rng.UniformDouble()),
           Value(static_cast<int64_t>(rng.Uniform(800))),
           Value("taxon" + std::to_string(rng.Uniform(200))),
           Value(static_cast<int64_t>(rng.Uniform(10)))}));
    }
    return h;
  }();
  return *heap;
}

/// A full scan of WideHeap() decoding every column of each row (full) or
/// only column 2 (projected, the other ten skipped by tag and length).
void BM_HeapScanDecode(benchmark::State& state, bool projected) {
  const HeapTable& heap = WideHeap();
  const std::vector<size_t> cols{2};
  for (auto _ : state) {
    auto cursor = heap.Scan(nullptr);
    int64_t sum = 0;
    if (projected) {
      std::vector<Value> vals;
      while (cursor.Next(cols, &vals, nullptr)) sum += vals[0].as_int();
    } else {
      Tuple t;
      while (cursor.Next(&t, nullptr)) sum += t.at(2).as_int();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(heap.num_rows()));
}
BENCHMARK_CAPTURE(BM_HeapScanDecode, full, false);
BENCHMARK_CAPTURE(BM_HeapScanDecode, projected, true);

/// ANALYZE of WideHeap(): one pass per column, all statistics built.
void BM_CollectTableStats(benchmark::State& state) {
  const HeapTable& heap = WideHeap();
  std::vector<std::string> names;
  for (size_t c = 0; c < heap.codec().types().size(); ++c) {
    names.push_back("c" + std::to_string(c));
  }
  for (auto _ : state) {
    TableStats ts = CollectTableStats(heap, names);
    benchmark::DoNotOptimize(ts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(heap.num_rows() * names.size()));
}
BENCHMARK(BM_CollectTableStats);

/// ExecContext::CheckTimeout on a live, untraced context: the check every
/// operator makes per row.
void BM_CheckTimeout(benchmark::State& state) {
  PageStore store;
  BufferPool pool(16);
  ExecContext ctx(&store, &pool, CostParams{});
  for (auto _ : state) {
    Status s = ctx.CheckTimeout();
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckTimeout);

void BM_TupleCodecRoundTrip(benchmark::State& state) {
  TupleCodec codec({TypeId::kInt, TypeId::kInt, TypeId::kString,
                    TypeId::kDouble});
  Tuple t({Value(int64_t{123456}), Value(int64_t{-1}),
           Value(std::string("some medium length payload")), Value(2.5)});
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(t, &buf);
    size_t off = 0;
    Tuple back = codec.Decode(buf.data(), &off);
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleCodecRoundTrip);

void BM_BufferPoolTouch(benchmark::State& state) {
  BufferPool pool(1024);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch(rng.Uniform(4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolTouch);

/// The small table `t(a PK, b, c)` the end-to-end benchmarks run on.
Database* MakeSmallDb() {
  // Deliberately leaked: each caller keeps it in a function-local static
  // shared by all benchmarks, alive until process exit (destruction order
  // vs. benchmark teardown is unspecified). NOLINT(tabbench-naked-new)
  auto* d = new Database();  // NOLINT(tabbench-naked-new)
  TableDef t;
  t.name = "t";
  t.columns = {{"a", TypeId::kInt, "d1", true, 8},
               {"b", TypeId::kInt, "d2", true, 8},
               {"c", TypeId::kString, "d3", true, 12}};
  t.primary_key = {"a"};
  (void)d->CreateTable(t);
  Rng rng(4);
  for (int64_t i = 0; i < 20000; ++i) {
    (void)d->Insert(
        "t", Tuple({Value(i), Value(static_cast<int64_t>(rng.Uniform(100))),
                    Value("s" + std::to_string(rng.Uniform(500)))}));
  }
  (void)d->FinishLoad();
  return d;
}

/// Shared small database for the end-to-end benchmarks.
Database* SharedDb() {
  static Database* db = MakeSmallDb();
  return db;
}

/// The small database with a single-column index on t.c, for the
/// index-only IN-set scan.
Database* IndexedDb() {
  static Database* db = [] {
    Database* d = MakeSmallDb();
    Configuration config;
    config.name = "ix_c";
    config.indexes.push_back({"ix_c", "t", {"c"}, false});
    (void)d->ApplyConfiguration(config);
    return d;
  }();
  return db;
}

/// ApplyConfiguration of one secondary index over the small table t
/// (20 000 rows): the key-only scan, the (key, rid) sort and the bulk
/// build. range(0): 0 = index on the int column b, 1 = on (c, b).
void BM_BuildIndex(benchmark::State& state) {
  Database* db = SharedDb();
  Configuration config;
  config.name = "ix";
  if (state.range(0) == 0) {
    config.indexes.push_back({"ix_b", "t", {"b"}, false});
  } else {
    config.indexes.push_back({"ix_cb", "t", {"c", "b"}, false});
  }
  for (auto _ : state) {
    Result<BuildReport> rep = db->ApplyConfiguration(config);
    if (!rep.ok()) state.SkipWithError(rep.status().message().c_str());
    benchmark::DoNotOptimize(rep);
  }
  if (!db->ResetToPrimary().ok()) state.SkipWithError("reset failed");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db->TableRowCount("t")));
}
BENCHMARK(BM_BuildIndex)->ArgName("composite")->Arg(0)->Arg(1);

/// One `c IN (SELECT c FROM t GROUP BY c HAVING COUNT(*) < 40)` set
/// (~40 rows per value, so about half the values qualify). A miss scans
/// and counts all 20 000 rows; a hit replays the memoized scan's charges
/// without decoding or hashing a row. range(0): 0 = heap scan, 1 =
/// index-only scan of ix_c.
void BM_MaterializeInSet(benchmark::State& state, bool hit) {
  Database* db = IndexedDb();
  InSetSpec spec;
  spec.table = "t";
  spec.column = "c";
  spec.column_pos = 2;
  spec.cmp = '<';
  spec.k = 40;
  if (state.range(0) == 1) spec.index_name = "ix_c";
  InSetMemo* memo = spec.index_name.empty()
                        ? db->FindHeap("t")->in_set_memo()
                        : db->FindIndex("ix_c")->btree->in_set_memo();
  BufferPool pool(db->options().buffer_pool_pages);
  for (auto _ : state) {
    if (!hit) memo->Clear();
    ExecContext ctx = db->MakeSessionContext(&pool, db->options().cost);
    Result<InSet> set = MaterializeInSet(spec, *db, &ctx);
    if (!set.ok()) state.SkipWithError(set.status().message().c_str());
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(db->TableRowCount("t")));
}
BENCHMARK_CAPTURE(BM_MaterializeInSet, miss, false)
    ->ArgName("index_only")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_MaterializeInSet, hit, true)
    ->ArgName("index_only")
    ->Arg(0)
    ->Arg(1);

void BM_ParseBindPlan(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string sql =
      "SELECT t.b, COUNT(*) FROM t WHERE t.c = 's17' GROUP BY t.b";
  for (auto _ : state) {
    auto plan = db->Plan(sql);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseBindPlan);

void BM_ExecuteAggregate(benchmark::State& state) {
  Database* db = SharedDb();
  const std::string sql =
      "SELECT t.b, COUNT(*) FROM t WHERE t.c = 's17' GROUP BY t.b";
  for (auto _ : state) {
    auto res = db->Run(sql);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteAggregate);

}  // namespace
}  // namespace tabbench

// Custom main instead of BENCHMARK_MAIN(): `--bench-json <path>` is
// stripped before google-benchmark parses flags, then the end-to-end
// aggregate query's throughput is measured directly (single thread, so
// speedup_vs_serial is 1 by definition) as this binary's perf-trajectory
// point.
int main(int argc, char** argv) {
  const std::string bench_json =
      tabbench::bench::TakeBenchJsonArg(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!bench_json.empty()) {
    tabbench::Database* db = tabbench::SharedDb();
    const std::string sql =
        "SELECT t.b, COUNT(*) FROM t WHERE t.c = 's17' GROUP BY t.b";
    constexpr int kReps = 20;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto res = db->Run(sql);
      if (!res.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    tabbench::bench::BenchJsonReport report;
    report.name = "microbench_execute_aggregate";
    report.wall_seconds = wall;
    report.queries_per_second = wall > 0.0 ? kReps / wall : 0.0;
    report.speedup_vs_serial = 1.0;
    report.thread_count = 1;
    tabbench::Status st =
        tabbench::bench::WriteBenchJsonReport(bench_json, report);
    if (!st.ok()) {
      std::fprintf(stderr, "bench-json write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%.0f queries/s)\n", bench_json.c_str(),
                report.queries_per_second);
  }
  return 0;
}
