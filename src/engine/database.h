#ifndef TABBENCH_ENGINE_DATABASE_H_
#define TABBENCH_ENGINE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "exec/exec_context.h"
#include "exec/plan_executor.h"
#include "optimizer/config_view.h"
#include "optimizer/whatif.h"
#include "sql/binder.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_table.h"
#include "storage/page_store.h"
#include "stats/table_stats.h"
#include "util/status.h"

namespace tabbench {

struct DatabaseOptions {
  /// Buffer-pool capacity. The default keeps the paper's regime: raw data an
  /// order of magnitude larger than memory (Section 3.2.1).
  size_t buffer_pool_pages = 1536;
  CostParams cost;
};

/// One built object of a configuration (Table 1 accounting).
struct ObjectBuild {
  std::string name;
  enum class Kind { kIndex, kView } kind = Kind::kIndex;
  uint64_t pages = 0;
  double build_seconds = 0.0;
};

/// Result of applying a configuration: per-object and total build cost.
struct BuildReport {
  std::vector<ObjectBuild> objects;
  double build_seconds = 0.0;
  /// Pages of secondary indexes + materialized views (excludes base data
  /// and PK indexes).
  uint64_t secondary_pages = 0;
};

/// One committed write against a base table, as seen by a mutation
/// observer (an online index build capturing its side log). For an update,
/// the row moved: the heap is append-only, so the new version lives at a
/// fresh Rid and `old_rid`/`old_row` describe the tombstoned version.
struct TableMutation {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };
  Kind kind = Kind::kInsert;
  std::string table;
  Rid rid;        // inserted / new-version row (insert, update)
  Tuple row;      // its values
  Rid old_rid;    // deleted / old-version row (delete, update)
  Tuple old_row;  // its values
};

/// The RDBMS facade: storage, statistics, optimizer, executor, and
/// physical-design state, behind one handle. This is the "system" that the
/// benchmark configures and measures.
class Database : public ObjectResolver {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ------------------------------------------------------------- schema/load
  Status CreateTable(const TableDef& def);
  /// Bulk append during initial load (not timed).
  Status Insert(const std::string& table, Tuple row);
  /// Creates the automatic primary-key indexes (the P configuration's only
  /// indexes) and collects statistics. Call once after loading.
  Status FinishLoad();

  /// Timed single-row insert: appends to the heap and maintains every index
  /// on the table, charging I/O/CPU to a fresh context sharing the buffer
  /// pool. Returns simulated seconds (the Section 4.4 experiment). `rid`
  /// (optional) receives the new row's address.
  Result<double> TimedInsert(const std::string& table, Tuple row,
                             Rid* rid = nullptr);

  /// Timed single-row delete: tombstones the heap row and removes its entry
  /// from every index on the table. NotFound if `rid` is dead or out of
  /// range. Same clock contract as TimedInsert.
  Result<double> TimedDelete(const std::string& table, const Rid& rid);

  /// Timed single-row update: tombstone + re-append (the heap is
  /// append-only), with every index entry moved from the old (key, rid) to
  /// the new. `new_rid` (optional) receives the row's new address — updates
  /// physically relocate rows, which is what decays index clustering under
  /// churn. Same clock contract as TimedInsert.
  Result<double> TimedUpdate(const std::string& table, const Rid& rid,
                             Tuple new_row, Rid* new_rid = nullptr);

  // -------------------------------------------------------- mutation plumbing
  /// Registers an observer for committed writes against `table` (an online
  /// index build capturing its side log). Returns a token for removal.
  /// Observers fire after the heap and every installed index were updated.
  uint64_t AddMutationObserver(const std::string& table,
                               std::function<void(const TableMutation&)> fn);
  void RemoveMutationObserver(uint64_t token);

  /// Writes against `table` (and all tables) committed since statistics
  /// were last collected — the staleness signal the stats_refresh policy
  /// trips on, and the divergence knob behind the paper's E-vs-A gap.
  uint64_t MutationsSinceStats(const std::string& table) const;
  uint64_t TotalMutationsSinceStats() const;

  /// CollectStatistics with the work charged to `ctx`: a sequential scan of
  /// every heap (page touches + per-row CPU), the cost a real ANALYZE pays.
  /// Resets the staleness counters.
  Status CollectStatisticsCharged(ExecContext* ctx);

  // ----------------------------------------------------------- configurations
  /// Builds `config` on top of the primary-key baseline, dropping any
  /// previously applied secondary configuration first. Views are
  /// materialized by executing their defining join; indexes are bulk-built
  /// from a scan + sort. All work is charged to simulated time.
  Result<BuildReport> ApplyConfiguration(const Configuration& config);

  /// Drops all secondary indexes and views (back to P).
  Status ResetToPrimary();

  // ------------------------------------------------- online index lifecycle
  /// Resolved key layout of an index over a base table: heap column
  /// positions and the estimated encoded key width (fanout sizing).
  struct IndexKeySpec {
    std::vector<int> key_cols;
    double key_width = 0.0;
  };
  Result<IndexKeySpec> ResolveIndexKey(const IndexDef& def) const;

  /// Installs a finished secondary index (an online build reaching `live`):
  /// wires it into the planner's view and appends its def to the current
  /// configuration. AlreadyExists if the name is taken.
  Status InstallSecondaryIndex(IndexDef def, std::unique_ptr<BTree> btree,
                               std::vector<int> key_cols);

  /// Drops one secondary index by name (the online drop lifecycle; also
  /// removes it from the current configuration). Charges the page frees to
  /// `ctx` when non-null. Fault point: `engine.index_build.drop`.
  Status DropSecondaryIndex(const std::string& name, ExecContext* ctx);

  /// Content+shape fingerprint (BTree::Fingerprint) of a built secondary
  /// index — what the kill-resume harness compares between an interrupted
  /// and an uninterrupted build. NotFound if no such index is built.
  Result<uint64_t> SecondaryIndexFingerprint(const std::string& name) const;

  const Configuration& current_config() const { return current_config_; }

  // ------------------------------------------------------------------ queries
  /// Parses, binds, optimizes against the current configuration, and
  /// executes. The buffer pool stays warm across calls (queries run
  /// back-to-back as in the paper's workload runs).
  Result<QueryResult> Run(const std::string& sql);

  /// Builds an ExecContext whose page accounting goes to `session_pool` — a
  /// session's private buffer-pool view — instead of the shared pool.
  ExecContext MakeSessionContext(BufferPool* session_pool,
                                 CostParams params) const;

  /// Like Run, but executes in the caller-provided context (private session
  /// pool, per-job deadline/cancellation, optional trace recording). Purely
  /// read-only with respect to the database: many threads may call this
  /// concurrently — each with its own context — as long as no DDL,
  /// configuration change, or insert runs at the same time. This is the
  /// execution path of the concurrent WorkloadService (src/service/) and of
  /// the parallel workload runners (src/core/runner.h).
  Result<QueryResult> RunWithContext(const std::string& sql,
                                     ExecContext* ctx) const;

  /// Optimizes only; returns the chosen plan with E(q, C_current).
  /// Read-only and safe to call concurrently (planning consults only the
  /// catalog, statistics, and built-structure metadata).
  Result<PhysicalPlan> Plan(const std::string& sql) const;

  /// EXPLAIN ANALYZE: executes and returns both the result and the plan
  /// annotated with measured per-operator cardinalities (the paper's
  /// missing "observe" step, Section 6).
  struct AnalyzedRun {
    QueryResult result;
    PhysicalPlan plan;
  };
  Result<AnalyzedRun> RunAnalyze(const std::string& sql);

  /// E(q, C_current): the optimizer's estimate in the built configuration.
  /// Concurrency-safe like Plan().
  Result<double> Estimate(const std::string& sql) const;

  /// H(q, C_h, C_current): what-if estimate of a configuration that is NOT
  /// built, derived per `rules` (Section 5 of the paper). Concurrency-safe
  /// like Plan().
  Result<double> HypotheticalEstimate(const std::string& sql,
                                      const Configuration& hypothetical,
                                      const HypotheticalRules& rules) const;

  /// Planner view of the currently built configuration, with measured
  /// index/view statistics.
  ConfigView CurrentView() const;

  // ----------------------------------------------------------------- plumbing
  Catalog* mutable_catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }
  const DatabaseStats& stats() const { return stats_; }
  BufferPool* buffer_pool() { return &pool_; }
  const BufferPool& buffer_pool() const { return pool_; }
  /// Hit/miss accounting of the shared pool since the last Clear().
  BufferPoolStats buffer_stats() const { return pool_.stats(); }
  const DatabaseOptions& options() const { return options_; }

  /// Pages of base heaps + primary-key indexes (the P footprint).
  uint64_t BasePages() const;
  /// Pages of currently built secondary indexes + views.
  uint64_t SecondaryPages() const;
  uint64_t TableRowCount(const std::string& table) const;

  /// Re-collects statistics (after inserts).
  Status CollectStatistics();

  // ObjectResolver:
  const HeapTable* FindHeap(const std::string& name) const override;
  const IndexInfo* FindIndex(const std::string& name) const override;

 private:
  /// The online build drives private pieces directly: it allocates its tree
  /// in store_ and extracts keys with ExtractKey for its side log.
  friend class OnlineIndexBuild;

  struct BuiltIndex {
    IndexDef def;
    std::unique_ptr<BTree> btree;
    IndexInfo info;
  };
  struct BuiltView {
    ViewDef def;
    std::unique_ptr<HeapTable> heap;
    std::vector<TypeId> types;
  };

  Status BuildIndex(const IndexDef& def, ExecContext* ctx,
                    std::vector<std::unique_ptr<BuiltIndex>>* out);
  Status BuildView(const ViewDef& def, ExecContext* ctx,
                   std::vector<std::unique_ptr<BuiltView>>* out);
  Result<const HeapTable*> GetHeap(const std::string& name) const;
  const BuiltIndex* FindBuiltIndex(const std::string& name) const;

  /// Extracts this index's key from a full heap row.
  static IndexKey ExtractKey(const std::vector<int>& key_cols,
                             const Tuple& row);
  void NotifyMutation(const TableMutation& m);

  DatabaseOptions options_;
  Catalog catalog_;
  PageStore store_;
  BufferPool pool_;
  std::map<std::string, std::unique_ptr<HeapTable>> tables_;
  DatabaseStats stats_;
  bool stats_ready_ = false;

  struct MutationObserver {
    uint64_t token = 0;
    std::string table;
    std::function<void(const TableMutation&)> fn;
  };
  std::vector<MutationObserver> mutation_observers_;
  uint64_t next_observer_token_ = 1;
  std::map<std::string, uint64_t> mutations_since_stats_;

  std::vector<std::unique_ptr<BuiltIndex>> pk_indexes_;
  std::vector<std::unique_ptr<BuiltIndex>> secondary_indexes_;
  std::vector<std::unique_ptr<BuiltView>> views_;
  Configuration current_config_;
};

}  // namespace tabbench

#endif  // TABBENCH_ENGINE_DATABASE_H_
