#include "engine/index_build.h"

#include <algorithm>
#include <cmath>

#include "util/fault_injection.h"

namespace tabbench {

const char* IndexBuildStateName(IndexBuildState s) {
  switch (s) {
    case IndexBuildState::kPending:
      return "pending";
    case IndexBuildState::kScanning:
      return "scanning";
    case IndexBuildState::kBackfilling:
      return "backfilling";
    case IndexBuildState::kCatchingUp:
      return "catching-up";
    case IndexBuildState::kLive:
      return "live";
    case IndexBuildState::kDropping:
      return "dropping";
    case IndexBuildState::kDropped:
      return "dropped";
    case IndexBuildState::kAborted:
      return "aborted";
  }
  return "?";
}

namespace {
template <typename T>
int Compare3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Value::Compare, inline, for two values of a column of type `t`.
int CompareAs(const Value& a, const Value& b, TypeId t) {
  const bool a_null = a.is_null(), b_null = b.is_null();
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
  switch (t) {
    case TypeId::kInt:
      return Compare3(a.as_int(), b.as_int());
    case TypeId::kDouble:
      return Compare3(a.as_double(), b.as_double());
    case TypeId::kString:
      return a.as_string().compare(b.as_string());
  }
  return 0;
}
}  // namespace

void SortIndexEntries(const HeapTable& heap, const std::vector<int>& key_cols,
                      double key_width, ExecContext* ctx,
                      std::vector<std::pair<IndexKey, Rid>>* entries) {
  double n = static_cast<double>(entries->size());
  if (n > 1) {
    ctx->ChargeHashOps(static_cast<uint64_t>(n * std::log2(n)));
    double bytes = n * (key_width + 8.0);
    double pages = bytes / static_cast<double>(kPageSize);
    if (pages > static_cast<double>(ctx->params().work_mem_pages)) {
      ctx->ChargeIoPages(static_cast<uint64_t>(2.0 * pages));
    }
  }
  std::vector<TypeId> types;
  for (int pos : key_cols) {
    types.push_back(heap.codec().types()[static_cast<size_t>(pos)]);
  }
  // Every key has one value per key column, so CompareKeys' shorter-first
  // rule never applies; (key, rid) is a total order, so the sorted result
  // is unique.
  std::sort(entries->begin(), entries->end(),
            [&types](const auto& a, const auto& b) {
              for (size_t i = 0; i < types.size(); ++i) {
                int c = CompareAs(a.first[i], b.first[i], types[i]);
                if (c != 0) return c < 0;
              }
              return a.second < b.second;
            });
}

OnlineIndexBuild::OnlineIndexBuild(Database* db, IndexDef def,
                                   IndexBuildOptions options)
    : db_(db), def_(std::move(def)), options_(options) {}

OnlineIndexBuild::~OnlineIndexBuild() { DetachObserver(); }

Status OnlineIndexBuild::EnterState(IndexBuildState s) {
  state_ = s;
  if (hook_) {
    TB_RETURN_IF_ERROR(hook_(s, side_log_.size()));
  }
  return Status::OK();
}

void OnlineIndexBuild::DetachObserver() {
  if (observing_) {
    db_->RemoveMutationObserver(observer_token_);
    observing_ = false;
  }
}

void OnlineIndexBuild::OnMutation(const TableMutation& m) {
  SideLogEntry e;
  e.kind = m.kind;
  switch (m.kind) {
    case TableMutation::Kind::kInsert:
      e.key = Database::ExtractKey(key_cols_, m.row);
      e.rid = m.rid;
      break;
    case TableMutation::Kind::kDelete:
      e.old_key = Database::ExtractKey(key_cols_, m.old_row);
      e.old_rid = m.old_rid;
      break;
    case TableMutation::Kind::kUpdate:
      e.old_key = Database::ExtractKey(key_cols_, m.old_row);
      e.old_rid = m.old_rid;
      e.key = Database::ExtractKey(key_cols_, m.row);
      e.rid = m.rid;
      break;
  }
  side_log_.push_back(std::move(e));
}

Status OnlineIndexBuild::Start(ExecContext* /*ctx*/) {
  if (state_ != IndexBuildState::kPending) {
    return Status::InvalidArgument("index build already started");
  }
  TB_RETURN_IF_ERROR(EnterState(IndexBuildState::kPending));
  if (db_->FindIndex(def_.name) != nullptr) {
    return Status::AlreadyExists("index " + def_.name);
  }
  Database::IndexKeySpec spec;
  TB_ASSIGN_OR_RETURN(spec, db_->ResolveIndexKey(def_));
  key_cols_ = std::move(spec.key_cols);
  scan_cols_.assign(key_cols_.begin(), key_cols_.end());
  key_width_ = spec.key_width;
  heap_ = db_->FindHeap(def_.target);
  if (heap_ == nullptr) {
    return Status::NotFound("index target " + def_.target);
  }

  // Snapshot the scan bound: the heap is append-only, so any row at
  // rid >= bound was written after this instant and reaches the tree only
  // through the side log — each row has exactly one source.
  if (heap_->num_pages() == 0) {
    scan_bound_ = Rid{0, 0};
  } else {
    size_t last = heap_->num_pages() - 1;
    const Page* tail = db_->store_.GetPage(heap_->pages()[last]);
    scan_bound_ = Rid{static_cast<uint32_t>(last),
                      static_cast<uint32_t>(tail->num_slots)};
  }
  observer_token_ = db_->AddMutationObserver(
      def_.target, [this](const TableMutation& m) { OnMutation(m); });
  observing_ = true;

  cursor_.emplace(heap_->Scan([this](PageId id) { ctx_->TouchPage(id); }));
  snapshot_.reserve(heap_->num_rows());
  tree_ = std::make_unique<BTree>(
      def_.name, def_.columns.size(),
      static_cast<size_t>(std::max(4.0, key_width_)), &db_->store_);
  return EnterState(IndexBuildState::kScanning);
}

Result<IndexBuildState> OnlineIndexBuild::Step(ExecContext* ctx) {
  ctx_ = ctx;
  Status s = Status::OK();
  switch (state_) {
    case IndexBuildState::kScanning:
      s = StepScan(ctx);
      break;
    case IndexBuildState::kBackfilling:
      s = StepBackfill(ctx);
      break;
    case IndexBuildState::kCatchingUp:
      s = StepCatchUp(ctx);
      break;
    default:
      return Status::InvalidArgument(
          std::string("index build not steppable in state ") +
          IndexBuildStateName(state_));
  }
  ctx_ = nullptr;
  TB_RETURN_IF_ERROR(s);
  return state_;
}

Status OnlineIndexBuild::StepScan(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.scan");
  IndexKey key;
  Rid rid;
  for (uint64_t i = 0; i < options_.rows_per_step; ++i) {
    if (!cursor_->Next(scan_cols_, &key, &rid)) break;
    if (!(rid < scan_bound_)) break;  // past the snapshot: side-log territory
    ctx->ChargeTuples(1);
    snapshot_.emplace_back(std::move(key), rid);
    if (i + 1 == options_.rows_per_step) return Status::OK();  // quantum spent
  }
  cursor_.reset();
  return EnterState(IndexBuildState::kBackfilling);
}

Status OnlineIndexBuild::StepBackfill(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.backfill");
  SortIndexEntries(*heap_, key_cols_, key_width_, ctx, &snapshot_);
  tree_->BulkBuild(std::move(snapshot_));
  snapshot_.clear();
  ctx->ChargeIoPages(tree_->num_pages());  // writing out the tree
  return EnterState(IndexBuildState::kCatchingUp);
}

Status OnlineIndexBuild::StepCatchUp(ExecContext* ctx) {
  TB_FAULT_POINT("engine.index_build.catchup");
  PageTouchFn touch = [ctx](PageId id) { ctx->TouchPageRandom(id); };
  for (uint64_t i = 0;
       i < options_.rows_per_step && side_log_applied_ < side_log_.size();
       ++i, ++side_log_applied_) {
    const SideLogEntry& e = side_log_[side_log_applied_];
    ctx->ChargeTuples(1);
    switch (e.kind) {
      case TableMutation::Kind::kInsert:
        TB_RETURN_IF_ERROR(tree_->Insert(e.key, e.rid, touch));
        ctx->ChargeIoPages(1);
        break;
      case TableMutation::Kind::kDelete: {
        // The scan may never have seen this row (tombstoned before the
        // cursor arrived, or born and killed inside the side log): a miss
        // is a no-op, not corruption.
        Status s = tree_->Delete(e.old_key, e.old_rid, touch);
        if (!s.ok() && !s.IsNotFound()) return s;
        ctx->ChargeIoPages(1);
        break;
      }
      case TableMutation::Kind::kUpdate: {
        Status s = tree_->Delete(e.old_key, e.old_rid, touch);
        if (!s.ok() && !s.IsNotFound()) return s;
        TB_RETURN_IF_ERROR(tree_->Insert(e.key, e.rid, touch));
        ctx->ChargeIoPages(1);
        break;
      }
    }
  }
  if (side_log_applied_ < side_log_.size()) return Status::OK();

  // Side log drained: install atomically. Workload ops only run between
  // Step() quanta (the runner is the only mutator), so nothing can slip
  // into the log between the check above and the install below.
  TB_FAULT_POINT("engine.index_build.install");
  TB_RETURN_IF_ERROR(db_->InstallSecondaryIndex(def_, std::move(tree_),
                                                std::vector<int>(key_cols_)));
  DetachObserver();
  return EnterState(IndexBuildState::kLive);
}

Status OnlineIndexBuild::Abort() {
  if (done() || state_ == IndexBuildState::kPending) {
    state_ = IndexBuildState::kAborted;
    return Status::OK();
  }
  DetachObserver();
  cursor_.reset();
  snapshot_.clear();
  side_log_.clear();
  side_log_applied_ = 0;
  if (tree_ != nullptr) {
    tree_->Drop();
    tree_.reset();
  }
  return EnterState(IndexBuildState::kAborted);
}

Result<ShadowIndexBuildResult> ShadowIndexBuild(const Database& db,
                                                const IndexDef& def,
                                                ExecContext* ctx) {
  double start = ctx->sim_time();
  Database::IndexKeySpec spec;
  TB_ASSIGN_OR_RETURN(spec, db.ResolveIndexKey(def));
  const HeapTable* heap = db.FindHeap(def.target);
  if (heap == nullptr) return Status::NotFound("index target " + def.target);

  std::vector<std::pair<IndexKey, Rid>> entries;
  entries.reserve(heap->num_rows());
  const std::vector<size_t> cols(spec.key_cols.begin(), spec.key_cols.end());
  auto cursor = heap->Scan([ctx](PageId id) { ctx->TouchPage(id); });
  IndexKey key;
  Rid rid;
  uint64_t seen = 0;
  while (cursor.Next(cols, &key, &rid)) {
    ctx->ChargeTuples(1);
    // Shadow builds run as cancellable background jobs: poll so a watchdog
    // cancel or shard kill tears the scan down promptly.
    if ((++seen & 0x3ff) == 0) TB_RETURN_IF_ERROR(ctx->CheckTimeout());
    entries.emplace_back(std::move(key), rid);
  }
  SortIndexEntries(*heap, spec.key_cols, spec.key_width, ctx, &entries);

  // Private store: the shadow tree never touches the database's pages, so
  // a cancelled or killed job leaves no trace to clean up.
  PageStore shadow_store;
  ShadowIndexBuildResult out;
  out.entries = static_cast<uint64_t>(entries.size());
  {
    BTree tree(def.name + ".shadow", def.columns.size(),
               static_cast<size_t>(std::max(4.0, spec.key_width)),
               &shadow_store);
    tree.BulkBuild(std::move(entries));
    ctx->ChargeIoPages(tree.num_pages());
    out.pages = tree.num_pages();
    out.height = tree.height();
    out.fingerprint = tree.Fingerprint();
    tree.Drop();
  }
  out.sim_seconds = ctx->sim_time() - start;
  return out;
}

}  // namespace tabbench
