#include "core/mutation_workload.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace tabbench {
namespace {

/// Fixed Zipf rank domain; ranks fold onto the (changing) live-row set so
/// the sampler is built once instead of per draw.
constexpr size_t kZipfDomain = 4096;

/// Doubles in journal records are recomputed on resume and must match the
/// original bit for bit — an epsilon compare would hide real divergence.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Deterministic synthetic row for `def` (one rng draw per column).
Tuple GenRow(const TableDef& def, Rng* rng) {
  std::vector<Value> vals;
  vals.reserve(def.columns.size());
  for (const auto& col : def.columns) {
    switch (col.type) {
      case TypeId::kInt:
        vals.emplace_back(static_cast<int64_t>(rng->Uniform(1'000'000)));
        break;
      case TypeId::kDouble:
        vals.emplace_back(rng->UniformDouble() * 1000.0);
        break;
      case TypeId::kString:
        vals.emplace_back("m" + std::to_string(rng->Uniform(100'000)));
        break;
    }
  }
  return Tuple(std::move(vals));
}

/// Append-or-verify journal sink. While a loaded journal still has
/// unconsumed records (resume's re-execution phase) each recomputed record
/// is checked bit-for-bit against the journaled one; after the prefix is
/// exhausted, records append (and fsync) live. The op stream is
/// deterministic, so "the k-th record" is the same object in either mode.
class JournalSink {
 public:
  JournalSink(RunJournalWriter* writer, const RunJournal* loaded)
      : writer_(writer), loaded_(loaded) {}

  Status Op(const JournalQueryRecord& rec) {
    if (loaded_ != nullptr && next_op_ < loaded_->records.size()) {
      const JournalQueryRecord& want = loaded_->records[next_op_];
      if (want.query_index != rec.query_index ||
          !BitEqual(want.seconds, rec.seconds) ||
          want.timed_out != rec.timed_out || want.failed != rec.failed ||
          want.has_estimate != rec.has_estimate ||
          !BitEqual(want.estimate, rec.estimate)) {
        return Status::DataLoss(
            "resume divergence at op " + std::to_string(rec.query_index) +
            ": recomputed outcome does not match the journal (journaled " +
            FormatDouble(want.seconds) + "s, recomputed " +
            FormatDouble(rec.seconds) + "s)");
      }
      ++next_op_;
      return Status::OK();
    }
    if (writer_ == nullptr) return Status::OK();
    return writer_->Append(rec);
  }

  Status Build(const JournalIndexBuildRecord& rec) {
    if (loaded_ != nullptr && next_build_ < loaded_->index_builds.size()) {
      const JournalIndexBuildRecord& want =
          loaded_->index_builds[next_build_];
      if (want.build_id != rec.build_id || want.state != rec.state ||
          want.op_index != rec.op_index ||
          want.side_log_entries != rec.side_log_entries ||
          !BitEqual(want.clock_seconds, rec.clock_seconds) ||
          want.index_name != rec.index_name || want.target != rec.target ||
          want.columns != rec.columns) {
        return Status::DataLoss(
            "resume divergence at build transition " +
            std::to_string(next_build_) + " (" + rec.index_name +
            " entering state " + std::to_string(int(rec.state)) + ")");
      }
      ++next_build_;
      return Status::OK();
    }
    if (writer_ == nullptr) return Status::OK();
    return writer_->Append(rec);
  }

  /// True once every loaded record and transition has been re-verified.
  bool PrefixDone() const {
    return loaded_ == nullptr || (next_op_ >= loaded_->records.size() &&
                                  next_build_ >= loaded_->index_builds.size());
  }
  size_t verified_ops() const { return next_op_; }

 private:
  RunJournalWriter* writer_;
  const RunJournal* loaded_;
  size_t next_op_ = 0;
  size_t next_build_ = 0;
};

/// One in-flight online build/drop and its bookkeeping.
struct ActiveBuild {
  const IndexBuildRequest* req = nullptr;
  uint32_t build_id = 0;
  std::unique_ptr<OnlineIndexBuild> build;
  bool started = false;
  bool dropped = false;
  uint64_t steps_taken = 0;
  IndexBuildOutcome outcome;
};

JournalHeader MakeHeader(Database* db, const MutationWorkloadSpec& spec,
                         const MutationWorkloadOptions& opts) {
  JournalHeader h;
  h.query_count = spec.num_ops;
  h.repetitions = 1;
  h.collect_estimates = opts.collect_estimates;
  h.cold_start = true;  // the runner always clears the pool at start
  h.fault_scope_salt = opts.fault_scope_salt;
  h.timeout_seconds = db->options().cost.timeout_seconds;
  h.sql = spec.read_pool;
  h.metadata = opts.journal_metadata;
  h.metadata["mutation_seed"] = std::to_string(spec.seed);
  h.metadata["mutation_table"] = spec.table;
  h.metadata["mutation_fractions"] = FormatDouble(spec.insert_fraction) + "/" +
                                     FormatDouble(spec.update_fraction) + "/" +
                                     FormatDouble(spec.delete_fraction);
  h.metadata["mutation_zipf_theta"] = FormatDouble(spec.zipf_theta);
  h.metadata["stats_refresh"] = std::to_string(opts.stats_refresh);
  std::string builds;
  for (const auto& b : opts.builds) {
    if (!builds.empty()) builds += ";";
    builds += b.def.name + "@" + std::to_string(b.start_op);
    if (b.then_drop) builds += "-drop@" + std::to_string(b.drop_op);
  }
  h.metadata["mutation_builds"] = builds;
  return h;
}

Status CheckHeaderCompatible(const JournalHeader& have,
                             const JournalHeader& want) {
  auto mismatch = [](const std::string& what) {
    return Status::InvalidArgument(
        "journal was written under different run options (" + what +
        "); refusing to resume");
  };
  if (have.query_count != want.query_count) return mismatch("num_ops");
  if (have.fault_scope_salt != want.fault_scope_salt) {
    return mismatch("fault_scope_salt");
  }
  if (have.collect_estimates != want.collect_estimates) {
    return mismatch("collect_estimates");
  }
  if (have.sql != want.sql) return mismatch("read_pool");
  for (const char* key :
       {"mutation_seed", "mutation_table", "mutation_fractions",
        "mutation_zipf_theta", "stats_refresh", "mutation_builds"}) {
    auto h = have.metadata.find(key);
    auto w = want.metadata.find(key);
    if (h == have.metadata.end() || w == want.metadata.end() ||
        h->second != w->second) {
      return mismatch(key);
    }
  }
  return Status::OK();
}

/// Legal forward edges of the build/drop state machine (audit + hook).
bool LegalTransition(uint8_t from, uint8_t to) {
  auto f = static_cast<IndexBuildState>(from);
  auto t = static_cast<IndexBuildState>(to);
  if (t == IndexBuildState::kAborted) return true;
  switch (f) {
    case IndexBuildState::kPending:
      return t == IndexBuildState::kScanning;
    case IndexBuildState::kScanning:
      return t == IndexBuildState::kBackfilling;
    case IndexBuildState::kBackfilling:
      return t == IndexBuildState::kCatchingUp;
    case IndexBuildState::kCatchingUp:
      return t == IndexBuildState::kLive;
    case IndexBuildState::kLive:
      return t == IndexBuildState::kDropping;
    case IndexBuildState::kDropping:
      return t == IndexBuildState::kDropped;
    default:
      return false;
  }
}

}  // namespace

Result<MutationWorkloadResult> RunMutationWorkload(
    Database* db, const MutationWorkloadSpec& spec,
    const MutationWorkloadOptions& opts) {
  double frac_sum = spec.insert_fraction + spec.update_fraction +
                    spec.delete_fraction;
  if (spec.insert_fraction < 0 || spec.update_fraction < 0 ||
      spec.delete_fraction < 0 || frac_sum > 1.0 + 1e-9) {
    return Status::InvalidArgument("mutation fractions must be >= 0, sum <= 1");
  }
  const TableDef* tdef = db->catalog().FindTable(spec.table);
  if (tdef == nullptr) {
    return Status::NotFound("mutation table " + spec.table);
  }
  const HeapTable* heap = db->FindHeap(spec.table);
  if (heap == nullptr) {
    return Status::NotFound("mutation table heap " + spec.table);
  }
  if (frac_sum < 1.0 - 1e-9 && spec.read_pool.empty()) {
    return Status::InvalidArgument(
        "read fraction > 0 requires a non-empty read_pool");
  }

  // ---- journal setup: fresh, or verify-and-continue -----------------------
  RunJournal loaded;
  bool verifying = false;
  std::unique_ptr<RunJournalWriter> writer;
  JournalHeader header = MakeHeader(db, spec, opts);
  if (!opts.journal_path.empty()) {
    struct stat st;
    bool exists = ::stat(opts.journal_path.c_str(), &st) == 0;
    if (opts.resume && exists) {
      TB_ASSIGN_OR_RETURN(loaded, LoadRunJournal(opts.journal_path));
      TB_RETURN_IF_ERROR(CheckHeaderCompatible(loaded.header, header));
      verifying = true;
      TB_ASSIGN_OR_RETURN(writer,
                          RunJournalWriter::OpenAppend(opts.journal_path,
                                                       loaded));
    } else {
      TB_ASSIGN_OR_RETURN(writer,
                          RunJournalWriter::Create(opts.journal_path, header));
    }
  }
  JournalSink sink(writer.get(), verifying ? &loaded : nullptr);

  // ---- deterministic run state -------------------------------------------
  // Cold pool: a resumed run re-executes on a freshly rebuilt database, so
  // the original must not depend on pre-run pool contents either.
  db->buffer_pool()->Clear();
  Rng rng(spec.seed);
  ZipfSampler zipf(kZipfDomain, spec.zipf_theta);
  std::vector<Rid> live;  // append order = age order (back = youngest)
  {
    live.reserve(heap->num_rows());
    auto cursor = heap->Scan(nullptr);
    Rid rid;
    while (cursor.NextRid(&rid)) live.push_back(rid);
  }

  MutationWorkloadResult out;
  out.ops.reserve(spec.num_ops);
  uint32_t ops_journaled = 0;
  double total = 0.0;

  // ---- builds -------------------------------------------------------------
  std::vector<ActiveBuild> builds;
  builds.reserve(opts.builds.size());
  for (size_t b = 0; b < opts.builds.size(); ++b) {
    ActiveBuild ab;
    ab.req = &opts.builds[b];
    ab.build_id = static_cast<uint32_t>(b);
    ab.outcome.name = ab.req->def.name;
    builds.push_back(std::move(ab));
  }

  Status hook_error;  // first journal failure seen inside a hook
  auto journal_transition = [&](const ActiveBuild& ab, IndexBuildState st,
                                uint64_t side_log) -> Status {
    JournalIndexBuildRecord rec;
    rec.build_id = ab.build_id;
    rec.state = static_cast<uint8_t>(st);
    rec.op_index = ops_journaled;
    rec.side_log_entries = side_log;
    rec.clock_seconds = total;
    rec.index_name = ab.req->def.name;
    rec.target = ab.req->def.target;
    rec.columns = ab.req->def.columns;
    return sink.Build(rec);
  };

  auto step_ctx = [&]() {
    return db->MakeSessionContext(db->buffer_pool(), db->options().cost);
  };

  // Steps every unfinished build once; `rounds` > 1 after a read batch so
  // build progress per op is the same whether reads were batched or not.
  auto step_builds = [&](uint64_t rounds) -> Status {
    for (uint64_t r = 0; r < rounds; ++r) {
      for (auto& ab : builds) {
        if (!ab.started || ab.build == nullptr || ab.build->done()) continue;
        ExecContext ctx = step_ctx();
        FaultScope scope(opts.fault_scope_salt ^
                         (0x9E3779B97F4A7C15ULL * (ab.build_id + 1)) ^
                         ab.steps_taken);
        ++ab.steps_taken;
        auto st = ab.build->Step(&ctx);
        double spent = ctx.sim_time();
        total += spent;
        out.maintenance_seconds += spent;
        ab.outcome.build_seconds += spent;
        ab.outcome.side_log_peak =
            std::max(ab.outcome.side_log_peak, ab.build->side_log_size());
        if (!st.ok()) {
          // An injected fault aborts this build; the run itself continues
          // (deterministically — the schedule is fixed).
          TB_RETURN_IF_ERROR(ab.build->Abort());
          if (!hook_error.ok()) return hook_error;
          ab.outcome.final_state = IndexBuildState::kAborted;
          continue;
        }
        if (!hook_error.ok()) return hook_error;
        ab.outcome.final_state = *st;
        if (*st == IndexBuildState::kLive && ab.outcome.fingerprint == 0) {
          TB_ASSIGN_OR_RETURN(ab.outcome.fingerprint,
                              db->SecondaryIndexFingerprint(ab.req->def.name));
        }
      }
    }
    return Status::OK();
  };

  auto start_due_builds = [&](uint32_t op) -> Status {
    for (auto& ab : builds) {
      if (ab.started || std::min(ab.req->start_op, spec.num_ops) != op) {
        continue;
      }
      ab.started = true;
      ab.build = std::make_unique<OnlineIndexBuild>(db, ab.req->def,
                                                    ab.req->build);
      ab.build->set_transition_hook(
          [&ab, &journal_transition, &hook_error](IndexBuildState st,
                                                  uint64_t side_log) {
            Status s = journal_transition(ab, st, side_log);
            if (!s.ok() && hook_error.ok()) hook_error = s;
            return s;
          });
      ExecContext ctx = step_ctx();
      Status s = ab.build->Start(&ctx);
      double spent = ctx.sim_time();
      total += spent;
      out.maintenance_seconds += spent;
      ab.outcome.build_seconds += spent;
      if (!s.ok()) {
        TB_RETURN_IF_ERROR(ab.build->Abort());
        if (!hook_error.ok()) return hook_error;
        ab.outcome.final_state = IndexBuildState::kAborted;
        continue;
      }
      if (!hook_error.ok()) return hook_error;
      ab.outcome.final_state = ab.build->state();
    }
    return Status::OK();
  };

  auto drop_due_builds = [&](uint32_t op, bool at_end) -> Status {
    for (auto& ab : builds) {
      if (!ab.req->then_drop || ab.dropped) continue;
      if (!at_end && ab.req->drop_op != op) continue;
      if (ab.build == nullptr ||
          ab.outcome.final_state != IndexBuildState::kLive) {
        if (at_end) continue;  // build never finished; nothing to drop
        return Status::InvalidArgument(
            "drop_op " + std::to_string(op) + " for " + ab.req->def.name +
            " but the build is not live");
      }
      TB_RETURN_IF_ERROR(
          journal_transition(ab, IndexBuildState::kDropping,
                             ab.build->side_log_size()));
      ExecContext ctx = step_ctx();
      {
        FaultScope scope(opts.fault_scope_salt ^
                         (0xC2B2AE3D27D4EB4FULL * (ab.build_id + 1)));
        TB_RETURN_IF_ERROR(db->DropSecondaryIndex(ab.req->def.name, &ctx));
      }
      double spent = ctx.sim_time();
      total += spent;
      out.maintenance_seconds += spent;
      ab.outcome.build_seconds += spent;
      ab.dropped = true;
      ab.outcome.final_state = IndexBuildState::kDropped;
      TB_RETURN_IF_ERROR(
          journal_transition(ab, IndexBuildState::kDropped, 0));
    }
    return Status::OK();
  };

  // ---- read batching ------------------------------------------------------
  std::vector<std::string> batch_sql;
  std::vector<uint32_t> batch_ops;  // global op index per batch entry
  auto flush_reads = [&]() -> Status {
    if (batch_sql.empty()) return Status::OK();
    RunOptions ro;
    ro.repetitions = 1;
    ro.collect_estimates = opts.collect_estimates;
    ro.cold_start = false;  // mid-run: the pool is part of the state
    ro.fault_scope_salt = opts.fault_scope_salt + batch_ops.front();
    WorkloadResult wr;
    if (opts.pool != nullptr) {
      ParallelOptions par;
      par.pool = opts.pool;
      par.window = opts.window;
      TB_ASSIGN_OR_RETURN(wr,
                          RunWorkloadParallel(db, batch_sql, par, ro));
    } else {
      TB_ASSIGN_OR_RETURN(wr, RunWorkload(db, batch_sql, ro));
    }
    for (size_t i = 0; i < batch_sql.size(); ++i) {
      MutationOpOutcome oo;
      oo.kind = MutationOpKind::kRead;
      oo.seconds = wr.timings[i].seconds;
      oo.failed = wr.timings[i].failed;
      if (opts.collect_estimates && i < wr.estimates.size()) {
        oo.has_estimate = true;
        oo.estimate = wr.estimates[i];
      }
      total += oo.seconds;
      out.read_seconds += oo.seconds;
      ++out.reads;

      JournalQueryRecord rec;
      rec.query_index = batch_ops[i];
      rec.seconds = oo.seconds;
      rec.timed_out = wr.timings[i].timed_out;
      rec.failed = oo.failed;
      rec.has_estimate = oo.has_estimate;
      rec.estimate = oo.estimate;
      TB_RETURN_IF_ERROR(sink.Op(rec));
      ++ops_journaled;
      out.ops.push_back(oo);
    }
    uint64_t rounds = batch_sql.size();
    batch_sql.clear();
    batch_ops.clear();
    return step_builds(rounds);
  };

  // ---- main loop ----------------------------------------------------------
  const double p_ins = spec.insert_fraction;
  const double p_upd = p_ins + spec.update_fraction;
  const double p_del = p_upd + spec.delete_fraction;

  for (uint32_t op = 0; op < spec.num_ops; ++op) {
    // Build lifecycle points are sequence points: flush pending reads first
    // so op interleaving is identical in serial and parallel mode.
    bool build_boundary = false;
    for (const auto& ab : builds) {
      if (!ab.started && std::min(ab.req->start_op, spec.num_ops) == op) {
        build_boundary = true;
      }
      if (ab.req->then_drop && !ab.dropped && ab.req->drop_op == op) {
        build_boundary = true;
      }
    }
    if (build_boundary) {
      TB_RETURN_IF_ERROR(flush_reads());
      TB_RETURN_IF_ERROR(drop_due_builds(op, /*at_end=*/false));
      TB_RETURN_IF_ERROR(start_due_builds(op));
    }

    double draw = rng.UniformDouble();
    MutationOpKind kind = draw < p_ins   ? MutationOpKind::kInsert
                          : draw < p_upd ? MutationOpKind::kUpdate
                          : draw < p_del ? MutationOpKind::kDelete
                                         : MutationOpKind::kRead;
    if ((kind == MutationOpKind::kUpdate ||
         kind == MutationOpKind::kDelete) &&
        live.empty()) {
      kind = MutationOpKind::kInsert;
    }

    if (kind == MutationOpKind::kRead) {
      size_t which = static_cast<size_t>(rng.Uniform(spec.read_pool.size()));
      batch_sql.push_back(spec.read_pool[which]);
      batch_ops.push_back(op);
      continue;
    }

    // Mutations execute at sequence points, on this thread, in op order.
    TB_RETURN_IF_ERROR(flush_reads());
    MutationOpOutcome oo;
    oo.kind = kind;
    {
      FaultScope scope(opts.fault_scope_salt + op);
      switch (kind) {
        case MutationOpKind::kInsert: {
          Tuple row = GenRow(*tdef, &rng);
          Rid rid;
          auto r = db->TimedInsert(spec.table, std::move(row), &rid);
          if (r.ok()) {
            oo.seconds = *r;
            live.push_back(rid);
          } else {
            oo.failed = true;
          }
          ++out.inserts;
          break;
        }
        case MutationOpKind::kUpdate: {
          size_t rank = zipf.Sample(&rng);
          size_t idx = live.size() - 1 - (rank % live.size());
          Tuple row = GenRow(*tdef, &rng);
          Rid new_rid;
          auto r = db->TimedUpdate(spec.table, live[idx], std::move(row),
                                   &new_rid);
          if (r.ok()) {
            oo.seconds = *r;
            live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
            live.push_back(new_rid);  // the new version is the youngest row
          } else {
            oo.failed = true;
            // A fault may have landed after the heap tombstone: the victim
            // rid is unreliable either way, so retire it from the live set
            // (identically in every run — the schedule is fixed).
            live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
          }
          ++out.updates;
          break;
        }
        case MutationOpKind::kDelete: {
          size_t rank = zipf.Sample(&rng);
          size_t idx = live.size() - 1 - (rank % live.size());
          auto r = db->TimedDelete(spec.table, live[idx]);
          if (r.ok()) {
            oo.seconds = *r;
          } else {
            oo.failed = true;
          }
          live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
          ++out.deletes;
          break;
        }
        case MutationOpKind::kRead:
          break;  // unreachable
      }
    }
    total += oo.seconds;
    out.maintenance_seconds += oo.seconds;

    // stats_refresh: the ANALYZE the churn eventually forces, charged to
    // the op that tripped it.
    if (opts.stats_refresh > 0 &&
        db->TotalMutationsSinceStats() >= opts.stats_refresh) {
      ExecContext ctx = step_ctx();
      TB_RETURN_IF_ERROR(db->CollectStatisticsCharged(&ctx));
      oo.seconds += ctx.sim_time();
      total += ctx.sim_time();
      out.maintenance_seconds += ctx.sim_time();
      ++out.analyze_runs;
    }

    JournalQueryRecord rec;
    rec.query_index = op;
    rec.seconds = oo.seconds;
    rec.failed = oo.failed;
    TB_RETURN_IF_ERROR(sink.Op(rec));
    ++ops_journaled;
    out.ops.push_back(oo);
    TB_RETURN_IF_ERROR(step_builds(1));
  }

  TB_RETURN_IF_ERROR(flush_reads());
  TB_RETURN_IF_ERROR(start_due_builds(spec.num_ops));

  // Drain unfinished builds: the workload is over, so each step can only
  // shrink the remaining work; bound the loop defensively anyway.
  for (uint64_t guard = 0; guard < 1u << 22; ++guard) {
    bool any = false;
    for (const auto& ab : builds) {
      if (ab.started && ab.build != nullptr && !ab.build->done()) any = true;
    }
    if (!any) break;
    TB_RETURN_IF_ERROR(step_builds(1));
  }
  TB_RETURN_IF_ERROR(drop_due_builds(spec.num_ops, /*at_end=*/true));

  if (verifying && !sink.PrefixDone()) {
    return Status::DataLoss(
        "journal holds more records than the run produced (" +
        std::to_string(loaded.records.size()) + " ops journaled, " +
        std::to_string(sink.verified_ops()) + " verified)");
  }

  // ---- summary ------------------------------------------------------------
  out.total_seconds = total;
  out.final_staleness = db->TotalMutationsSinceStats();
  double gap_sum = 0.0;
  uint64_t gap_n = 0;
  for (const auto& oo : out.ops) {
    if (oo.kind != MutationOpKind::kRead || oo.failed || !oo.has_estimate) {
      continue;
    }
    if (oo.estimate > 0.0 && oo.seconds > 0.0) {
      gap_sum += std::fabs(std::log2(oo.estimate / oo.seconds));
      ++gap_n;
    }
  }
  out.mean_abs_log2_gap = gap_n > 0 ? gap_sum / static_cast<double>(gap_n)
                                    : 0.0;
  for (auto& ab : builds) out.build_outcomes.push_back(std::move(ab.outcome));
  return out;
}

Result<RunJournal> AuditMutationJournal(const std::string& path) {
  RunJournal j;
  TB_ASSIGN_OR_RETURN(j, LoadRunJournal(path));
  // No lost op: records are exactly 0..n-1, in order, no more than the
  // header promised.
  if (j.records.size() > j.header.query_count) {
    return Status::DataLoss("journal holds " +
                            std::to_string(j.records.size()) +
                            " op records but the header promised at most " +
                            std::to_string(j.header.query_count));
  }
  for (size_t i = 0; i < j.records.size(); ++i) {
    if (j.records[i].query_index != i) {
      return Status::DataLoss("op record " + std::to_string(i) +
                              " carries index " +
                              std::to_string(j.records[i].query_index) +
                              "; a record was lost or reordered");
    }
  }
  // Build transitions: legal state machine per build, op anchors and clock
  // monotone (per build and globally, since appends follow op order).
  std::map<uint32_t, const JournalIndexBuildRecord*> last_of;
  uint32_t prev_op = 0;
  for (const auto& rec : j.index_builds) {
    if (rec.index_name.empty() || rec.target.empty()) {
      return Status::DataLoss("build transition with empty name/target");
    }
    if (rec.op_index > j.records.size()) {
      return Status::DataLoss(
          "build transition for " + rec.index_name + " anchored at op " +
          std::to_string(rec.op_index) + " but only " +
          std::to_string(j.records.size()) + " op records exist");
    }
    if (rec.op_index < prev_op) {
      return Status::DataLoss("build transitions out of append order");
    }
    prev_op = rec.op_index;
    auto it = last_of.find(rec.build_id);
    if (it == last_of.end()) {
      if (rec.state != static_cast<uint8_t>(IndexBuildState::kPending)) {
        return Status::DataLoss("build " + std::to_string(rec.build_id) +
                                " does not begin at `pending`");
      }
    } else {
      const JournalIndexBuildRecord& prev = *it->second;
      if (!LegalTransition(prev.state, rec.state)) {
        return Status::DataLoss(
            "illegal transition " + std::to_string(int(prev.state)) + " -> " +
            std::to_string(int(rec.state)) + " for build " +
            std::to_string(rec.build_id));
      }
      if (rec.op_index < prev.op_index ||
          rec.clock_seconds < prev.clock_seconds) {
        return Status::DataLoss("non-monotone anchors for build " +
                                std::to_string(rec.build_id));
      }
      if (rec.index_name != prev.index_name || rec.target != prev.target ||
          rec.columns != prev.columns) {
        return Status::DataLoss("build " + std::to_string(rec.build_id) +
                                " changed identity mid-stream");
      }
    }
    last_of[rec.build_id] = &rec;
  }
  return j;
}

}  // namespace tabbench
