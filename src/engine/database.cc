#include "engine/database.h"

#include <algorithm>

#include "optimizer/planner.h"
#include "sql/parser.h"
#include "storage/stats_collector.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace tabbench {

Database::Database(DatabaseOptions options)
    : options_(options), pool_(options.buffer_pool_pages) {}

Database::~Database() = default;

Status Database::CreateTable(const TableDef& def) {
  TB_RETURN_IF_ERROR(catalog_.AddTable(def));
  std::vector<TypeId> types;
  for (const auto& c : def.columns) types.push_back(c.type);
  tables_[def.name] = std::make_unique<HeapTable>(
      def.name, TupleCodec(std::move(types)), &store_);
  return Status::OK();
}

Status Database::Insert(const std::string& table, Tuple row) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  const TableDef* def = catalog_.FindTable(table);
  if (row.size() != def->num_columns()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu want %zu",
                  table.c_str(), row.size(), def->num_columns()));
  }
  it->second->Append(row);
  return Status::OK();
}

Status Database::FinishLoad() {
  TB_FAULT_POINT("engine.finish_load");
  TB_RETURN_IF_ERROR(CollectStatistics());
  // Automatic PK indexes: present in every configuration (the paper's P).
  pk_indexes_.clear();
  for (const auto& def : catalog_.tables()) {
    if (def.primary_key.empty()) continue;
    IndexDef idx;
    idx.name = def.name + "_pk";
    idx.target = def.name;
    idx.columns = def.primary_key;
    idx.is_primary = true;
    ExecContext ctx(&pool_, options_.cost);
    TB_RETURN_IF_ERROR(BuildIndex(idx, &ctx, &pk_indexes_));
  }
  current_config_.name = "P";
  current_config_.indexes.clear();
  current_config_.views.clear();
  return Status::OK();
}

Status Database::CollectStatistics() {
  for (const auto& [name, heap] : tables_) {
    const TableDef* def = catalog_.FindTable(name);
    std::vector<std::string> cols;
    for (const auto& c : def->columns) cols.push_back(c.name);
    stats_.tables[name] = CollectTableStats(*heap, cols);
  }
  stats_ready_ = true;
  mutations_since_stats_.clear();
  return Status::OK();
}

IndexKey Database::ExtractKey(const std::vector<int>& key_cols,
                              const Tuple& row) {
  IndexKey key;
  key.reserve(key_cols.size());
  for (int pos : key_cols) key.push_back(row.at(static_cast<size_t>(pos)));
  return key;
}

Result<double> Database::TimedInsert(const std::string& table, Tuple row,
                                     Rid* out_rid) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  const TableDef* def = catalog_.FindTable(table);
  if (row.size() != def->num_columns()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu want %zu",
                  table.c_str(), row.size(), def->num_columns()));
  }
  HeapTable* heap = it->second.get();
  ExecContext ctx(&pool_, options_.cost);
  // Single-row DML is random I/O throughout.
  PageTouchFn touch = [&ctx](PageId id) { ctx.TouchPageRandom(id); };

  // Heap append: touches (and possibly allocates) the tail page.
  size_t pages_before = heap->num_pages();
  Rid rid;
  TB_ASSIGN_OR_RETURN(rid, heap->Insert(row, touch));
  if (heap->num_pages() != pages_before) ctx.ChargeIoPages(1);  // page write
  ctx.ChargeTuples(1);

  // Index maintenance on every index of this table (PK + secondary).
  auto maintain = [&](std::vector<std::unique_ptr<BuiltIndex>>* indexes)
      -> Status {
    for (auto& bi : *indexes) {
      if (bi->def.target != table) continue;
      TB_RETURN_IF_ERROR(
          bi->btree->Insert(ExtractKey(bi->info.key_cols, row), rid, touch));
      ctx.ChargeTuples(1);
      // A leaf write accompanies every maintained index entry.
      ctx.ChargeIoPages(1);
    }
    return Status::OK();
  };
  TB_RETURN_IF_ERROR(maintain(&pk_indexes_));
  TB_RETURN_IF_ERROR(maintain(&secondary_indexes_));

  ++mutations_since_stats_[table];
  TableMutation m;
  m.kind = TableMutation::Kind::kInsert;
  m.table = table;
  m.rid = rid;
  m.row = std::move(row);
  NotifyMutation(m);
  if (out_rid != nullptr) *out_rid = rid;
  return ctx.sim_time();
}

Result<double> Database::TimedDelete(const std::string& table,
                                     const Rid& rid) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  HeapTable* heap = it->second.get();
  ExecContext ctx(&pool_, options_.cost);
  PageTouchFn touch = [&ctx](PageId id) { ctx.TouchPageRandom(id); };

  // The old values are needed to find the row's index entries.
  Tuple row;
  TB_ASSIGN_OR_RETURN(row, heap->Fetch(rid, touch));
  TB_RETURN_IF_ERROR(heap->Delete(rid, touch));
  ctx.ChargeTuples(1);
  ctx.ChargeIoPages(1);  // tombstone write

  auto maintain = [&](std::vector<std::unique_ptr<BuiltIndex>>* indexes)
      -> Status {
    for (auto& bi : *indexes) {
      if (bi->def.target != table) continue;
      TB_RETURN_IF_ERROR(
          bi->btree->Delete(ExtractKey(bi->info.key_cols, row), rid, touch));
      ctx.ChargeTuples(1);
      ctx.ChargeIoPages(1);
    }
    return Status::OK();
  };
  TB_RETURN_IF_ERROR(maintain(&pk_indexes_));
  TB_RETURN_IF_ERROR(maintain(&secondary_indexes_));

  ++mutations_since_stats_[table];
  TableMutation m;
  m.kind = TableMutation::Kind::kDelete;
  m.table = table;
  m.old_rid = rid;
  m.old_row = std::move(row);
  NotifyMutation(m);
  return ctx.sim_time();
}

Result<double> Database::TimedUpdate(const std::string& table, const Rid& rid,
                                     Tuple new_row, Rid* out_new_rid) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table " + table);
  const TableDef* def = catalog_.FindTable(table);
  if (new_row.size() != def->num_columns()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch updating %s: got %zu want %zu",
                  table.c_str(), new_row.size(), def->num_columns()));
  }
  HeapTable* heap = it->second.get();
  ExecContext ctx(&pool_, options_.cost);
  PageTouchFn touch = [&ctx](PageId id) { ctx.TouchPageRandom(id); };

  Tuple old_row;
  TB_ASSIGN_OR_RETURN(old_row, heap->Fetch(rid, touch));
  TB_RETURN_IF_ERROR(heap->Delete(rid, touch));
  size_t pages_before = heap->num_pages();
  Rid new_rid;
  TB_ASSIGN_OR_RETURN(new_rid, heap->Insert(new_row, touch));
  if (heap->num_pages() != pages_before) ctx.ChargeIoPages(1);
  ctx.ChargeIoPages(1);  // tombstone write
  ctx.ChargeTuples(1);

  auto maintain = [&](std::vector<std::unique_ptr<BuiltIndex>>* indexes)
      -> Status {
    for (auto& bi : *indexes) {
      if (bi->def.target != table) continue;
      TB_RETURN_IF_ERROR(bi->btree->Update(
          ExtractKey(bi->info.key_cols, old_row), rid,
          ExtractKey(bi->info.key_cols, new_row), new_rid, touch));
      ctx.ChargeTuples(1);
      ctx.ChargeIoPages(1);
    }
    return Status::OK();
  };
  TB_RETURN_IF_ERROR(maintain(&pk_indexes_));
  TB_RETURN_IF_ERROR(maintain(&secondary_indexes_));

  ++mutations_since_stats_[table];
  TableMutation m;
  m.kind = TableMutation::Kind::kUpdate;
  m.table = table;
  m.rid = new_rid;
  m.row = std::move(new_row);
  m.old_rid = rid;
  m.old_row = std::move(old_row);
  NotifyMutation(m);
  if (out_new_rid != nullptr) *out_new_rid = new_rid;
  return ctx.sim_time();
}

uint64_t Database::AddMutationObserver(
    const std::string& table, std::function<void(const TableMutation&)> fn) {
  MutationObserver ob;
  ob.token = next_observer_token_++;
  ob.table = table;
  ob.fn = std::move(fn);
  mutation_observers_.push_back(std::move(ob));
  return mutation_observers_.back().token;
}

void Database::RemoveMutationObserver(uint64_t token) {
  for (auto it = mutation_observers_.begin(); it != mutation_observers_.end();
       ++it) {
    if (it->token == token) {
      mutation_observers_.erase(it);
      return;
    }
  }
}

void Database::NotifyMutation(const TableMutation& m) {
  for (const auto& ob : mutation_observers_) {
    if (ob.table == m.table) ob.fn(m);
  }
}

uint64_t Database::MutationsSinceStats(const std::string& table) const {
  auto it = mutations_since_stats_.find(table);
  return it == mutations_since_stats_.end() ? 0 : it->second;
}

uint64_t Database::TotalMutationsSinceStats() const {
  uint64_t total = 0;
  for (const auto& [table, n] : mutations_since_stats_) total += n;
  return total;
}

Status Database::CollectStatisticsCharged(ExecContext* ctx) {
  // ANALYZE pays a sequential scan of every base heap.
  for (const auto& [name, heap] : tables_) {
    for (PageId pid : heap->pages()) ctx->TouchPage(pid);
    ctx->ChargeTuples(heap->num_rows());
  }
  return CollectStatistics();
}

// ----------------------------------------------------------------- queries

Result<QueryResult> Database::Run(const std::string& sql) {
  TB_FAULT_POINT("engine.query");
  if (!stats_ready_) {
    return Status::Internal("statistics not collected; call FinishLoad()");
  }
  PhysicalPlan plan;
  TB_ASSIGN_OR_RETURN(plan, Plan(sql));
  ExecContext ctx(&pool_, options_.cost);
  return ExecutePlan(plan, *this, &ctx);
}

ExecContext Database::MakeSessionContext(BufferPool* session_pool,
                                         CostParams params) const {
  return ExecContext(session_pool, params);
}

Result<QueryResult> Database::RunWithContext(const std::string& sql,
                                             ExecContext* ctx) const {
  TB_FAULT_POINT("engine.query");
  if (!stats_ready_) {
    return Status::Internal("statistics not collected; call FinishLoad()");
  }
  PhysicalPlan plan;
  TB_ASSIGN_OR_RETURN(plan, Plan(sql));
  return ExecutePlan(plan, *this, ctx);
}

Result<Database::AnalyzedRun> Database::RunAnalyze(const std::string& sql) {
  TB_FAULT_POINT("engine.query");
  if (!stats_ready_) {
    return Status::Internal("statistics not collected; call FinishLoad()");
  }
  AnalyzedRun out;
  TB_ASSIGN_OR_RETURN(out.plan, Plan(sql));
  ExecContext ctx(&pool_, options_.cost);
  TB_ASSIGN_OR_RETURN(out.result, ExecutePlanAnalyze(&out.plan, *this, &ctx));
  return out;
}

Result<PhysicalPlan> Database::Plan(const std::string& sql) const {
  BoundQuery q;
  TB_ASSIGN_OR_RETURN(q, ParseAndBind(sql, catalog_));
  ConfigView view = CurrentView();
  return PlanQuery(q, view);
}

Result<double> Database::Estimate(const std::string& sql) const {
  PhysicalPlan plan;
  TB_ASSIGN_OR_RETURN(plan, Plan(sql));
  return plan.est_cost;
}

Result<double> Database::HypotheticalEstimate(
    const std::string& sql, const Configuration& hypothetical,
    const HypotheticalRules& rules) const {
  BoundQuery q;
  TB_ASSIGN_OR_RETURN(q, ParseAndBind(sql, catalog_));
  ConfigView base = CurrentView();
  DatabaseStats degraded;
  if (rules.uniform_value_assumption) {
    degraded = DegradeToUniform(stats_);
    base.stats = &degraded;
  }
  ConfigView hyp;
  TB_ASSIGN_OR_RETURN(hyp, MakeHypotheticalView(hypothetical, base, rules));
  return EstimateCost(q, hyp);
}

ConfigView Database::CurrentView() const {
  ConfigView view;
  view.catalog = &catalog_;
  view.stats = &stats_;
  view.params = options_.cost;
  auto add = [&view](const BuiltIndex& bi) {
    PhysicalIndex pi;
    pi.def = bi.def;
    pi.physical_name = bi.def.name;
    pi.height = static_cast<double>(bi.btree->height());
    pi.leaf_pages = static_cast<double>(bi.btree->num_leaf_pages());
    pi.entries = std::max<double>(1.0, static_cast<double>(bi.btree->num_entries()));
    pi.distinct_keys =
        std::max<double>(1.0, static_cast<double>(bi.btree->num_distinct_keys()));
    pi.clustering_factor = static_cast<double>(bi.btree->clustering_factor());
    pi.hypothetical = false;
    pi.allow_index_only = true;
    view.indexes.push_back(std::move(pi));
  };
  for (const auto& bi : pk_indexes_) add(*bi);
  for (const auto& bi : secondary_indexes_) add(*bi);
  for (const auto& bv : views_) {
    PhysicalView pv;
    pv.def = bv->def;
    pv.physical_name = bv->def.name;
    pv.rows = std::max<double>(1.0, static_cast<double>(bv->heap->num_rows()));
    pv.pages = std::max<double>(1.0, static_cast<double>(bv->heap->num_pages()));
    pv.hypothetical = false;
    view.views.push_back(std::move(pv));
  }
  return view;
}

// ---------------------------------------------------------------- plumbing

uint64_t Database::BasePages() const {
  uint64_t pages = 0;
  for (const auto& [name, heap] : tables_) pages += heap->num_pages();
  for (const auto& bi : pk_indexes_) pages += bi->btree->num_pages();
  return pages;
}

uint64_t Database::SecondaryPages() const {
  uint64_t pages = 0;
  for (const auto& bi : secondary_indexes_) pages += bi->btree->num_pages();
  for (const auto& bv : views_) pages += bv->heap->num_pages();
  return pages;
}

uint64_t Database::TableRowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second->num_rows();
}

const HeapTable* Database::FindHeap(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  for (const auto& bv : views_) {
    if (bv->def.name == name) return bv->heap.get();
  }
  return nullptr;
}

const Database::BuiltIndex* Database::FindBuiltIndex(
    const std::string& name) const {
  for (const auto& bi : pk_indexes_) {
    if (bi->def.name == name) return bi.get();
  }
  for (const auto& bi : secondary_indexes_) {
    if (bi->def.name == name) return bi.get();
  }
  return nullptr;
}

const IndexInfo* Database::FindIndex(const std::string& name) const {
  const BuiltIndex* bi = FindBuiltIndex(name);
  return bi == nullptr ? nullptr : &bi->info;
}

Result<const HeapTable*> Database::GetHeap(const std::string& name) const {
  const HeapTable* h = FindHeap(name);
  if (h == nullptr) return Status::NotFound("heap " + name);
  return h;
}

}  // namespace tabbench
