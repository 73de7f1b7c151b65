// mutation_churn: RunMutationWorkload on `protein` — 30 % inserts, 15 %
// updates, 15 % deletes, 40 % reads drawn from a fixed NREF2J sample, update
// and delete victims Zipf(0.8)-skewed, every op journaled with fsync, one
// online index build (started early, dropped late) and a stats_refresh
// ANALYZE. Read runs fan out on an nproc thread pool. It uses storage and
// core the way the protocols do not: B+-tree and heap writes, journal
// fsync, index-build steps and ANALYZE beside trace-replayed reads, so a
// read-path gain that costs writes shows here.
//
// A run repeats streams of kOps ops on one database until the time budget is
// spent or --max-streams streams have run; stream k's op seed is derived from
// (seed, k). round_s is the median stream's wall time and ops_per_s kOps
// over it. Every stream's journal must pass AuditMutationJournal and its
// online build must reach `live` and be dropped; run.py passes the number of
// recorded streams as --max-streams and compares each stream's op counts,
// ANALYZE count and index fingerprint at install time with the values
// recorded for (seed mod kVariants, k).
//
// A traced run makes stream 0 on one fresh database untraced and again on a
// second fresh database through the per-op public calls (TimedInsert/
// TimedUpdate/TimedDelete, RunWorkloadParallel per read run,
// OnlineIndexBuild::Step, CollectStatisticsCharged,
// RunJournalWriter::Append), and checks that both give bit-identical
// per-op simulated seconds, totals and index fingerprints.

#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/mutation_workload.h"
#include "core/nref_families.h"
#include "core/sampling.h"
#include "datagen/nref_gen.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace tabperf {
namespace {

using namespace tabbench;

constexpr int kSetups = 3;
constexpr uint64_t kVariants = 4;
constexpr uint32_t kOps = 300;
constexpr size_t kReadPool = 20;
constexpr uint64_t kStatsRefresh = 120;
const char* const kTable = "protein";
const char* const kIndex = "ix_churn_length";

MutationWorkloadSpec Spec(uint64_t seed, uint32_t stream,
                          const std::vector<std::string>& reads) {
  MutationWorkloadSpec spec;
  spec.seed = (seed % kVariants) * 1000 + stream + 1;
  spec.num_ops = kOps;
  spec.table = kTable;
  spec.insert_fraction = 0.30;
  spec.update_fraction = 0.15;
  spec.delete_fraction = 0.15;
  spec.zipf_theta = 0.8;
  spec.read_pool = reads;
  return spec;
}

IndexBuildRequest Build() {
  IndexBuildRequest req;
  req.def.name = kIndex;
  req.def.target = kTable;
  req.def.columns = {"length"};
  req.start_op = kOps / 10;
  req.then_drop = true;
  req.drop_op = kOps * 9 / 10;
  return req;
}

struct StreamOutcome {
  MutationWorkloadResult result;
  double wall_s = 0.0;
  bool audit_ok = false;
  size_t journal_records = 0;
  std::string audit_error;
};

Result<StreamOutcome> RunStream(Database* db, const MutationWorkloadSpec& spec,
                                ThreadPool* pool, const std::string& path) {
  ::unlink(path.c_str());
  MutationWorkloadOptions opts;
  opts.journal_path = path;
  opts.stats_refresh = kStatsRefresh;
  opts.builds.push_back(Build());
  opts.pool = pool;
  StreamOutcome out;
  const auto t0 = Clock::now();
  TB_ASSIGN_OR_RETURN(out.result, RunMutationWorkload(db, spec, opts));
  out.wall_s = SecondsSince(t0);
  Result<RunJournal> audit = AuditMutationJournal(path);
  out.audit_ok = audit.ok();
  if (audit.ok()) {
    out.journal_records = audit->records.size();
  } else {
    out.audit_error = audit.status().ToString();
  }
  ::unlink(path.c_str());
  return out;
}

// ------------------------------------------------------------ traced replay
// The same op stream as RunMutationWorkload (core/mutation_workload.cc),
// driven through one public call per layer. The draw order of the Rng, the
// order of every addition to the simulated clock and the sequence points of
// the build are those of the library's loop; the comparison with the
// untraced stream is what proves it.

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

struct TracedStream {
  std::vector<double> op_seconds;
  double total = 0.0;
  uint64_t analyze_runs = 0;
  uint64_t fingerprint = 0;
  IndexBuildState final_state = IndexBuildState::kPending;
};

Result<TracedStream> RunStreamTraced(Database* db,
                                     const MutationWorkloadSpec& spec,
                                     ThreadPool* pool, const std::string& path,
                                     Tracer* t) {
  const TableDef* tdef = db->catalog().FindTable(spec.table);
  const HeapTable* heap = db->FindHeap(spec.table);
  if (tdef == nullptr || heap == nullptr) {
    return Status::NotFound("table " + spec.table);
  }
  const IndexBuildRequest req = Build();
  JournalHeader header;
  header.query_count = spec.num_ops;
  header.timeout_seconds = db->options().cost.timeout_seconds;
  header.sql = spec.read_pool;
  ::unlink(path.c_str());
  std::unique_ptr<RunJournalWriter> journal;
  TB_ASSIGN_OR_RETURN(journal, RunJournalWriter::Create(path, header));

  TracedStream out;
  db->buffer_pool()->Clear();
  Rng rng(spec.seed);
  ZipfSampler zipf(4096, spec.zipf_theta);
  std::vector<Rid> live;
  {
    auto cursor = heap->Scan(nullptr);
    Tuple row;
    Rid rid;
    while (cursor.Next(&row, &rid)) live.push_back(rid);
  }
  uint32_t journaled = 0;
  double& total = out.total;
  auto ctx = [&]() {
    return db->MakeSessionContext(db->buffer_pool(), db->options().cost);
  };
  auto append = [&](const JournalQueryRecord& rec) -> Status {
    Tracer::Scope span(t, "util.journal_append");
    return journal->Append(rec);
  };
  auto transition = [&](IndexBuildState st, uint64_t side_log) -> Status {
    JournalIndexBuildRecord rec;
    rec.state = static_cast<uint8_t>(st);
    rec.op_index = journaled;
    rec.side_log_entries = side_log;
    rec.clock_seconds = total;
    rec.index_name = req.def.name;
    rec.target = req.def.target;
    rec.columns = req.def.columns;
    Tracer::Scope span(t, "util.journal_append");
    return journal->Append(rec);
  };

  std::unique_ptr<OnlineIndexBuild> build;
  bool dropped = false;
  auto step_builds = [&](uint64_t rounds) -> Status {
    for (uint64_t r = 0; r < rounds; ++r) {
      if (build == nullptr || build->done()) continue;
      ExecContext c = ctx();
      Result<IndexBuildState> st = [&]() {
        Tracer::Scope span(t, "engine.index_build_step");
        return build->Step(&c);
      }();
      total += c.sim_time();
      TB_RETURN_IF_ERROR(st.status());
      out.final_state = *st;
      if (*st == IndexBuildState::kLive && out.fingerprint == 0) {
        TB_ASSIGN_OR_RETURN(out.fingerprint,
                            db->SecondaryIndexFingerprint(req.def.name));
      }
    }
    return Status::OK();
  };

  std::vector<std::string> batch;
  std::vector<uint32_t> batch_ops;
  auto flush_reads = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    RunOptions ro;
    ro.cold_start = false;
    ro.fault_scope_salt = batch_ops.front();
    ParallelOptions par;
    par.pool = pool;
    WorkloadResult wr;
    {
      Tracer::Scope span(t, "core.read_run");
      TB_ASSIGN_OR_RETURN(wr, RunWorkloadParallel(db, batch, par, ro));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      total += wr.timings[i].seconds;
      out.op_seconds.push_back(wr.timings[i].seconds);
      JournalQueryRecord rec;
      rec.query_index = batch_ops[i];
      rec.seconds = wr.timings[i].seconds;
      rec.timed_out = wr.timings[i].timed_out;
      rec.failed = wr.timings[i].failed;
      TB_RETURN_IF_ERROR(append(rec));
      ++journaled;
    }
    const uint64_t rounds = batch.size();
    batch.clear();
    batch_ops.clear();
    return step_builds(rounds);
  };

  const double p_ins = spec.insert_fraction;
  const double p_upd = p_ins + spec.update_fraction;
  const double p_del = p_upd + spec.delete_fraction;
  for (uint32_t op = 0; op < spec.num_ops; ++op) {
    t->set_request(op + 1);
    if (op == req.start_op || op == req.drop_op) {
      TB_RETURN_IF_ERROR(flush_reads());
    }
    if (op == req.drop_op) {
      if (out.final_state != IndexBuildState::kLive) {
        return Status::Internal("index build not live at its drop op");
      }
      TB_RETURN_IF_ERROR(
          transition(IndexBuildState::kDropping, build->side_log_size()));
      ExecContext c = ctx();
      {
        Tracer::Scope span(t, "engine.index_drop");
        TB_RETURN_IF_ERROR(db->DropSecondaryIndex(req.def.name, &c));
      }
      total += c.sim_time();
      dropped = true;
      out.final_state = IndexBuildState::kDropped;
      TB_RETURN_IF_ERROR(transition(IndexBuildState::kDropped, 0));
    }
    if (op == req.start_op) {
      build = std::make_unique<OnlineIndexBuild>(db, req.def, req.build);
      build->set_transition_hook(transition);
      ExecContext c = ctx();
      {
        Tracer::Scope span(t, "engine.index_build_step");
        TB_RETURN_IF_ERROR(build->Start(&c));
      }
      total += c.sim_time();
      out.final_state = build->state();
    }

    const double draw = rng.UniformDouble();
    MutationOpKind kind = draw < p_ins   ? MutationOpKind::kInsert
                          : draw < p_upd ? MutationOpKind::kUpdate
                          : draw < p_del ? MutationOpKind::kDelete
                                         : MutationOpKind::kRead;
    if (kind != MutationOpKind::kInsert && kind != MutationOpKind::kRead &&
        live.empty()) {
      kind = MutationOpKind::kInsert;
    }
    if (kind == MutationOpKind::kRead) {
      batch.push_back(spec.read_pool[rng.Uniform(spec.read_pool.size())]);
      batch_ops.push_back(op);
      continue;
    }
    TB_RETURN_IF_ERROR(flush_reads());
    double seconds = 0.0;
    if (kind == MutationOpKind::kInsert) {
      Tuple row = GenRow(*tdef, &rng);
      Rid rid;
      Tracer::Scope span(t, "storage.insert");
      TB_ASSIGN_OR_RETURN(seconds,
                          db->TimedInsert(spec.table, std::move(row), &rid));
      live.push_back(rid);
    } else if (kind == MutationOpKind::kUpdate) {
      const size_t rank = zipf.Sample(&rng);
      const size_t idx = live.size() - 1 - (rank % live.size());
      Tuple row = GenRow(*tdef, &rng);
      Rid new_rid;
      Tracer::Scope span(t, "storage.update");
      TB_ASSIGN_OR_RETURN(seconds, db->TimedUpdate(spec.table, live[idx],
                                                   std::move(row), &new_rid));
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
      live.push_back(new_rid);
    } else {
      const size_t rank = zipf.Sample(&rng);
      const size_t idx = live.size() - 1 - (rank % live.size());
      Tracer::Scope span(t, "storage.delete");
      TB_ASSIGN_OR_RETURN(seconds, db->TimedDelete(spec.table, live[idx]));
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
    total += seconds;
    if (db->TotalMutationsSinceStats() >= kStatsRefresh) {
      ExecContext c = ctx();
      {
        Tracer::Scope span(t, "stats.collect");
        TB_RETURN_IF_ERROR(db->CollectStatisticsCharged(&c));
      }
      seconds += c.sim_time();
      total += c.sim_time();
      ++out.analyze_runs;
    }
    out.op_seconds.push_back(seconds);
    JournalQueryRecord rec;
    rec.query_index = op;
    rec.seconds = seconds;
    TB_RETURN_IF_ERROR(append(rec));
    ++journaled;
    TB_RETURN_IF_ERROR(step_builds(1));
  }
  t->set_request(0);
  TB_RETURN_IF_ERROR(flush_reads());
  if (build == nullptr || !dropped) {
    return Status::Internal("index build did not run to its drop");
  }
  ::unlink(path.c_str());
  return out;
}

JsonObject StreamClaims(const StreamOutcome& s) {
  const MutationWorkloadResult& r = s.result;
  const IndexBuildOutcome* b =
      r.build_outcomes.empty() ? nullptr : &r.build_outcomes.front();
  size_t failed_ops = 0;
  for (const MutationOpOutcome& o : r.ops) failed_ops += o.failed ? 1 : 0;
  JsonObject j;
  j.Int("inserts", static_cast<int64_t>(r.inserts))
      .Int("updates", static_cast<int64_t>(r.updates))
      .Int("deletes", static_cast<int64_t>(r.deletes))
      .Int("reads", static_cast<int64_t>(r.reads))
      .Int("analyze_runs", static_cast<int64_t>(r.analyze_runs))
      .Int("failed_ops", static_cast<int64_t>(failed_ops))
      .Str("index_fingerprint",
           b == nullptr ? "" : std::to_string(b->fingerprint))
      .Str("index_final_state",
           b == nullptr ? "" : IndexBuildStateName(b->final_state));
  return j;
}

}  // namespace

RunOutput RunChurn(const Args& args, Tracer* tracer, Calibration* cal) {
  RunOutput out;
  std::vector<double> setup_s;
  auto db_or = SetUpNref(kSetups, &setup_s, tracer);
  if (!db_or.ok()) {
    out.fatal = "set-up failed: " + db_or.status().ToString();
    return out;
  }
  std::unique_ptr<Database> db = db_or.TakeValue();
  cal->Sample();
  auto sampled = SampleFamily(GenerateNref2J(db->catalog(), db->stats()),
                              db.get(), kReadPool, /*seed=*/77);
  if (!sampled.ok()) {
    out.fatal = "sampling failed: " + sampled.status().ToString();
    return out;
  }
  const std::vector<std::string> reads = sampled->Sql();
  ThreadPool pool(std::max<size_t>(1, std::thread::hardware_concurrency()));
  const std::string journal =
      args.out_dir + "/churn-" + std::to_string(args.seed) + ".tbj";

  std::vector<StreamOutcome> streams;
  const auto t0 = Clock::now();
  do {
    // Fresh statistics before every stream (not timed): each stream then
    // trips exactly one stats_refresh ANALYZE instead of one or two
    // depending on the previous stream's leftover, so streams do equal work.
    if (Status st = db->CollectStatistics(); !st.ok()) {
      out.fatal = "statistics failed: " + st.ToString();
      return out;
    }
    const MutationWorkloadSpec spec =
        Spec(args.seed, static_cast<uint32_t>(streams.size()), reads);
    Result<StreamOutcome> s = RunStream(db.get(), spec, &pool, journal);
    if (!s.ok()) {
      out.fatal = "mutation stream failed: " + s.status().ToString();
      return out;
    }
    streams.push_back(s.TakeValue());
    cal->Sample();
  } while (tracer == nullptr && SecondsSince(t0) < args.seconds &&
           (args.max_streams == 0 || streams.size() < args.max_streams));

  std::vector<std::string> rounds, claims;
  for (size_t k = 0; k < streams.size(); ++k) {
    const StreamOutcome& s = streams[k];
    rounds.push_back(JsonObject().Nums("steps_s", {s.wall_s}).ToString());
    out.attempted += s.result.ops.size();
    for (const MutationOpOutcome& o : s.result.ops) out.failed += o.failed;
    out.Check(s.audit_ok, "stream " + std::to_string(k) +
                              " journal audit failed: " + s.audit_error);
    out.Check(s.journal_records == kOps,
              "stream " + std::to_string(k) + " journaled " +
                  std::to_string(s.journal_records) + " of " +
                  std::to_string(kOps) + " ops");
    claims.push_back(StreamClaims(s).ToString());
  }
  out.raw.Int("variant", static_cast<int64_t>(args.seed % kVariants))
      .Nums("setup_s", setup_s)
      .Raw("rounds", JsonArray(rounds))
      .Ints("run_steps", {0})
      .Int("ops_per_round", kOps)
      .Raw("claims", JsonArray(claims));

  if (tracer != nullptr) {
    // Stream 0 again, on a database in the state the untraced stream 0
    // started from.
    db.reset();
    auto fresh = GenerateNref(NrefScaleOptions{});
    if (!fresh.ok()) {
      out.fatal = "second set-up failed: " + fresh.status().ToString();
      return out;
    }
    db = fresh.TakeValue();
    const auto tt0 = Clock::now();
    Result<TracedStream> tr = RunStreamTraced(
        db.get(), Spec(args.seed, 0, reads), &pool, journal, tracer);
    const double traced_s = SecondsSince(tt0);
    if (!tr.ok()) {
      out.fatal = "traced stream failed: " + tr.status().ToString();
      return out;
    }
    const MutationWorkloadResult& u = streams.front().result;
    out.attempted += tr->op_seconds.size();
    bool same_ops = u.ops.size() == tr->op_seconds.size();
    for (size_t i = 0; same_ops && i < u.ops.size(); ++i) {
      same_ops = u.ops[i].seconds == tr->op_seconds[i];
    }
    out.Check(same_ops, "traced per-op simulated seconds differ");
    out.Check(u.total_seconds == tr->total,
              "traced simulated total differs: " +
                  std::to_string(u.total_seconds) + " vs " +
                  std::to_string(tr->total));
    out.Check(u.analyze_runs == tr->analyze_runs,
              "traced ANALYZE count differs");
    out.Check(!u.build_outcomes.empty() &&
                  u.build_outcomes.front().fingerprint == tr->fingerprint,
              "traced index fingerprint differs");
    JsonObject tj;
    tj.Num("untraced_pass_s", streams.front().wall_s)
        .Num("traced_pass_s", traced_s)
        .Num("sim_total_s", tr->total);
    out.raw.Obj("traced", tj);
  }
  return out;
}

}  // namespace tabperf
