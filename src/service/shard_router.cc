#include "service/shard_router.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <utility>

#include "util/fault_injection.h"
#include "util/retry.h"

namespace tabbench {

namespace {

/// Wrappers so the chaos hooks are real TB_FAULT_POINT sites: the macro
/// returns the injected Status from a Status-returning function, and the
/// analyzer's fault-coverage pass counts the sites by the macro token.

/// Fires = bounce this submission at the router door (before admission).
Status RouteFaultPoint() {
  TB_FAULT_POINT("service.shard.route");
  return Status::OK();
}

/// Fires = chaos-kill the submission's currently assigned shard before the
/// routing decision, as if it died mid-run.
Status QuarantineFaultPoint() {
  TB_FAULT_POINT("service.shard.quarantine");
  return Status::OK();
}

std::future<Result<QueryResult>> ReadyFuture(Status status) {
  std::promise<Result<QueryResult>> prom;
  prom.set_value(std::move(status));
  return prom.get_future();
}

}  // namespace

double RetryAfterHintSeconds(const Status& status) {
  static constexpr char kKey[] = "retry_after_seconds=";
  const std::string& msg = status.message();
  const size_t pos = msg.find(kKey);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(msg.c_str() + pos + sizeof(kKey) - 1, nullptr);
}

ShardRouter::ShardRouter(const Database* db, ShardRouterOptions options)
    : db_(db),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &own_clock_),
      shards_([&] {
        std::vector<std::unique_ptr<Shard>> v;
        const size_t n = std::max<size_t>(1, options_.shards);
        v.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          ShardOptions so = options_.shard;
          if (!options_.journal_dir.empty()) {
            so.service.journal_path = options_.journal_dir + "/shard-" +
                                      std::to_string(i + 1) + ".tbj";
          }
          v.push_back(std::make_unique<Shard>(
              db, static_cast<uint32_t>(i + 1), so));
        }
        return v;
      }()) {
  {
    MutexLock lock(&mu_);
    shard_completions_.assign(shards_.size(), 0);
  }
  if (!options_.journal_dir.empty()) {
    JournalHeader header;
    header.metadata["writer"] = "shard-router";
    header.metadata["shards"] = std::to_string(shards_.size());
    auto writer =
        RunJournalWriter::Create(options_.journal_dir + "/router.tbj", header);
    if (writer.ok()) {
      journal_ = writer.TakeValue();
    } else {
      MutexLock lock(&mu_);
      journal_status_ = writer.status();
    }
  }
  size_t workers = options_.router_workers;
  if (workers == 0) {
    size_t shard_workers = 0;
    for (const auto& s : shards_) shard_workers += s->service()->num_workers();
    workers = 2 * shard_workers;
    if (options_.max_in_flight > 0) {
      workers = std::min(workers, options_.max_in_flight);
    }
    workers = std::max<size_t>(2, workers);
  }
  // Unbounded queue: admission control is the router's own in-flight cap,
  // so an admitted job must never be bounced by its own dispatcher pool.
  pool_ = std::make_unique<ThreadPool>(ThreadPool::Options{workers, 0});
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::Shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  // Everything below is idempotent and blocks until drained, so a second
  // caller (destructor after an explicit Shutdown) waits rather than racing.
  pool_->Shutdown();
  for (const auto& s : shards_) s->Shutdown();
}

size_t ShardRouter::HomeIndex(uint64_t domain) const {
  // splitmix64 finalizer: cheap, well-mixed, and stable across runs — the
  // domain -> home mapping is part of the deterministic-replay contract.
  uint64_t z = domain + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<size_t>(z % shards_.size());
}

uint32_t ShardRouter::HomeShardId(uint64_t domain) const {
  return static_cast<uint32_t>(HomeIndex(domain) + 1);
}

uint32_t ShardRouter::DomainShardId(uint64_t domain) const {
  MutexLock lock(&mu_);
  auto it = domains_.find(domain);
  if (it == domains_.end() || !it->second.initialized) {
    return static_cast<uint32_t>(HomeIndex(domain) + 1);
  }
  return static_cast<uint32_t>(it->second.shard + 1);
}

void ShardRouter::LogLocked(const char* kind, uint32_t shard_id,
                            uint64_t domain, std::string detail,
                            std::vector<JournalServiceEvent>* out_events) {
  JournalServiceEvent ev;
  ev.sequence = next_decision_seq_++;
  ev.clock_seconds = clock_->Now();
  ev.shard_id = shard_id;
  ev.domain = domain;
  ev.kind = kind;
  ev.detail = std::move(detail);
  if (decisions_.size() >= options_.max_decisions && !decisions_.empty()) {
    decisions_.erase(decisions_.begin());
  }
  decisions_.push_back(ev);
  if (out_events != nullptr) out_events->push_back(std::move(ev));
}

void ShardRouter::SweepQuarantinesLocked(
    double now, std::vector<JournalServiceEvent>* out_events) {
  for (const auto& s : shards_) {
    if (s->MaybeOpenProbeWindow(now)) {
      LogLocked("probe-window", s->id(), 0, "quarantine cooldown elapsed",
                out_events);
    }
  }
}

void ShardRouter::EvaluateShardLocked(
    size_t index, std::vector<JournalServiceEvent>* out_events) {
  Shard* s = shards_[index].get();
  const Shard::Transition t = s->EvaluateHealth(clock_->Now());
  if (!t.changed) return;
  if (t.to == ShardHealth::kQuarantined) {
    ++stats_.quarantines;
    LogLocked("quarantine", s->id(), 0, t.reason, out_events);
  } else if (t.to == ShardHealth::kDegraded) {
    ++stats_.degrades;
    LogLocked("degrade", s->id(), 0, t.reason, out_events);
  } else {
    ++stats_.recoveries;
    LogLocked("recover", s->id(), 0, t.reason, out_events);
  }
}

void ShardRouter::KillShardLocked(size_t index, const std::string& reason,
                                  std::vector<JournalServiceEvent>* out_events) {
  Shard* s = shards_[index].get();
  s->Kill(clock_->Now());
  ++stats_.kills;
  ++stats_.quarantines;
  LogLocked("kill", s->id(), 0, reason, out_events);
}

ShardRouter::Target ShardRouter::AcquireTargetLocked(
    uint64_t domain, int priority,
    std::vector<JournalServiceEvent>* out_events) {
  const double now = clock_->Now();
  SweepQuarantinesLocked(now, out_events);
  DomainState& ds = domains_[domain];
  const size_t home = HomeIndex(domain);
  if (!ds.initialized) {
    ds.initialized = true;
    ds.shard = home;
  }
  // Chaos: an armed quarantine fault kills the domain's currently assigned
  // shard right before the decision, as if it crashed mid-run. Evaluated on
  // the submitter's thread so @nth schedules replay deterministically.
  if (Status f = QuarantineFaultPoint(); !f.ok()) {
    KillShardLocked(ds.shard, "fault injection: " + f.ToString(), out_events);
  }

  Target t;
  Shard* home_sh = shards_[home].get();
  // Recovery probing: domains homed on a recovering shard steer a bounded
  // quota of their jobs back onto it. Probes run sessionless (a cold
  // private session) so a failing probe leaves the domain's warm session on
  // its sibling untouched.
  if (home_sh->health() == ShardHealth::kRecovering && home_sh->AdmitProbe()) {
    ++stats_.probes;
    LogLocked("probe", home_sh->id(), domain, "steering probe to home shard",
              out_events);
    t.shard_index = home;
    t.probe = true;
    return t;
  }

  if (shards_[home]->serving()) {
    if (ds.shard != home) {
      ++stats_.rehomes;
      LogLocked("rehome", home_sh->id(), domain,
                "home shard re-admitted; moving domain back from shard " +
                    std::to_string(ds.shard + 1),
                out_events);
      ds.shard = home;
    }
  } else if (!shards_[ds.shard]->serving()) {
    // Neither home nor the current assignment serves: scan deterministically
    // from the home slot for the first serving sibling.
    size_t pick = shards_.size();
    for (size_t i = 1; i < shards_.size(); ++i) {
      const size_t c = (home + i) % shards_.size();
      if (shards_[c]->serving()) {
        pick = c;
        break;
      }
    }
    if (pick == shards_.size()) {
      t.status = Status::Unavailable(
          "no serving shard for domain " + std::to_string(domain) +
          "; retry_after_seconds=" +
          std::to_string(options_.shed_retry_after_seconds));
      return t;
    }
    ++stats_.reroutes;
    LogLocked("reroute", shards_[pick]->id(), domain,
              "shard " + std::to_string(ds.shard + 1) +
                  " not serving; domain moved",
              out_events);
    ds.shard = pick;
  }

  Shard* chosen = shards_[ds.shard].get();
  // Ladder step 1: a degraded shard sheds its lowest-priority load.
  if (priority < options_.shed_below_priority &&
      chosen->health() == ShardHealth::kDegraded) {
    ++stats_.shed;
    t.status = Status::Unavailable(
        "shard " + std::to_string(chosen->id()) +
        " degraded; shedding priority " + std::to_string(priority) +
        "; retry_after_seconds=" +
        std::to_string(options_.shed_retry_after_seconds));
    return t;
  }

  t.shard_index = ds.shard;
  if (options_.use_domain_sessions) {
    if (ds.session == kNoSession || ds.session_shard != ds.shard) {
      if (ds.session != kNoSession) {
        // Best-effort: the old shard drains the session once its accepted
        // jobs finish; a quarantined shard still honors the close.
        (void)shards_[ds.session_shard]->service()->CloseSession(ds.session);
      }
      ds.session = chosen->service()->OpenSession();
      ds.session_shard = ds.shard;
    }
    t.session = ds.session;
  }
  return t;
}

std::future<Result<QueryResult>> ShardRouter::Submit(std::string sql,
                                                     SubmitOptions options) {
  if (Status f = RouteFaultPoint(); !f.ok()) {
    MutexLock lock(&mu_);
    ++stats_.rejected;
    return ReadyFuture(std::move(f));
  }
  std::vector<JournalServiceEvent> events;
  Target target;
  uint64_t ordinal = 0;
  {
    MutexLock lock(&mu_);
    if (shutdown_.load(std::memory_order_relaxed)) {
      ++stats_.rejected;
      return ReadyFuture(Status::Unavailable("router is shutting down"));
    }
    if (options_.max_in_flight > 0 && in_flight_ >= options_.max_in_flight) {
      ++stats_.rejected;
      return ReadyFuture(Status::Unavailable(
          "router at capacity (" + std::to_string(in_flight_) +
          " in flight); retry_after_seconds=" +
          std::to_string(options_.shed_retry_after_seconds)));
    }
    target = AcquireTargetLocked(options.domain, options.priority, &events);
    if (target.status.ok()) {
      ordinal = next_ordinal_++;
      ++in_flight_;
      ++stats_.submitted;
    }
  }
  AppendEvents(events);
  // Shed / no serving shard: turned away *before* admission, so the
  // no-lost-job invariant does not cover it (and clients see the
  // retry-after hint).
  if (!target.status.ok()) return ReadyFuture(target.status);

  auto prom = std::make_shared<std::promise<Result<QueryResult>>>();
  std::future<Result<QueryResult>> fut = prom->get_future();
  Status dispatched = pool_->Submit(
      [this, sql = std::move(sql), options = std::move(options), target,
       ordinal, prom]() mutable {
        RunJob(std::move(sql), std::move(options), target, ordinal, prom);
      });
  if (!dispatched.ok()) {
    // Shutdown raced the admission: the job *was* admitted, so it still
    // gets its journaled terminal outcome and a resolved future.
    if (target.probe) ReportProbe(shards_[target.shard_index].get(), false);
    {
      MutexLock lock(&mu_);
      --in_flight_;
      ++stats_.completed;
    }
    JournalOutcome(ordinal, Result<QueryResult>(dispatched), 0, 0, 0.0);
    prom->set_value(std::move(dispatched));
  }
  return fut;
}

void ShardRouter::RunJob(
    std::string sql, SubmitOptions options, Target target, uint64_t ordinal,
    std::shared_ptr<std::promise<Result<QueryResult>>> promise) {
  const double start_wall = wall_.Now();
  Result<QueryResult> final_res =
      Status::Unavailable("no dispatch attempt ran");
  uint32_t served_by = 0;
  uint32_t attempts = 0;
  const size_t max_attempts = options_.max_failover_attempts > 0
                                  ? options_.max_failover_attempts
                                  : shards_.size() + 1;
  bool have_target = true;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (!have_target) {
      std::vector<JournalServiceEvent> events;
      {
        MutexLock lock(&mu_);
        // INT_MAX priority: an already-admitted job is never shed while
        // failing over — shedding is a front-door policy.
        target = AcquireTargetLocked(options.domain, INT_MAX, &events);
      }
      AppendEvents(events);
      if (!target.status.ok()) {
        final_res = target.status;
        break;
      }
    }
    have_target = false;
    Shard* shard = shards_[target.shard_index].get();
    if (options.job.cancel.cancelled()) {
      final_res = Status::Cancelled("cancelled before dispatch");
      if (target.probe) ReportProbe(shard, false);
      break;
    }
    ++attempts;
    const uint64_t epoch_before = shard->kill_epoch();
    // Per-attempt token: a chaos kill of this shard cancels the attempt
    // without touching the client's token, so the job can fail over.
    CancellationToken attempt_cancel;
    shard->RegisterAttempt(ordinal, attempt_cancel);
    JobOptions jopts = options.job;
    jopts.cancel = attempt_cancel;
    jopts.session = target.probe ? kNoSession : target.session;
    std::future<Result<QueryResult>> fut =
        shard->service()->SubmitQuery(sql, jopts);
    Result<QueryResult> r = fut.get();  // no router locks held
    shard->UnregisterAttempt(ordinal);
    const bool shard_died = shard->kill_epoch() != epoch_before;
    if (target.probe) {
      ReportProbe(shard, r.ok() && !r->failed && !r->timed_out);
    }
    if (r.ok()) {
      final_res = std::move(r);
      served_by = shard->id();
      break;
    }
    const Status& st = r.status();
    if (st.IsCancelled() && options.job.cancel.cancelled()) {
      final_res = std::move(r);  // genuine client cancel: terminal
      break;
    }
    const bool retryable = (st.IsCancelled() && shard_died) ||
                           st.IsTransient() || st.IsNotFound();
    if (retryable) {
      if (st.IsNotFound()) {
        // The shard no longer knows the domain's session; drop the cached
        // binding so the next acquire opens a fresh one.
        MutexLock lock(&mu_);
        auto it = domains_.find(options.domain);
        if (it != domains_.end()) it->second.session = kNoSession;
      }
      {
        MutexLock lock(&mu_);
        ++stats_.failovers;
      }
      continue;
    }
    final_res = std::move(r);  // timeout / internal / ... : terminal
    break;
  }

  const double wall = wall_.Now() - start_wall;
  Shard* latency_shard =
      served_by > 0 ? shards_[served_by - 1].get() : nullptr;
  if (latency_shard != nullptr) latency_shard->RecordLatency(wall);
  std::vector<JournalServiceEvent> events;
  {
    MutexLock lock(&mu_);
    --in_flight_;
    ++stats_.completed;
    if (latency_shard != nullptr) {
      const uint64_t n = ++shard_completions_[served_by - 1];
      if (options_.eval_every == 0 || n % options_.eval_every == 0) {
        EvaluateShardLocked(served_by - 1, &events);
      }
    }
  }
  AppendEvents(events);
  JournalOutcome(ordinal, final_res, attempts, served_by, wall);
  promise->set_value(std::move(final_res));
}

void ShardRouter::ReportProbe(Shard* shard, bool success) {
  std::vector<JournalServiceEvent> events;
  {
    MutexLock lock(&mu_);
    const Shard::ProbeVerdict verdict =
        shard->FinishProbe(success, clock_->Now());
    if (verdict == Shard::ProbeVerdict::kReadmitted) {
      ++stats_.readmissions;
      LogLocked("readmit", shard->id(), 0, "probe quota met", &events);
    } else if (verdict == Shard::ProbeVerdict::kRequarantined) {
      ++stats_.requarantines;
      LogLocked("requarantine", shard->id(), 0, "probe failed", &events);
    }
  }
  AppendEvents(events);
}

void ShardRouter::KillShard(size_t index) {
  if (index >= shards_.size()) return;
  std::vector<JournalServiceEvent> events;
  {
    MutexLock lock(&mu_);
    KillShardLocked(index, "chaos kill", &events);
  }
  AppendEvents(events);
}

Status ShardRouter::StallShard(size_t index, CancellationToken release) {
  if (index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  WorkloadService* svc = shards_[index]->service();
  const size_t workers = svc->num_workers();
  for (size_t i = 0; i < workers; ++i) {
    TB_RETURN_IF_ERROR(svc->SubmitRaw([release] {
      // Parked until the chaos harness releases the stall; cancel-aware so
      // Shutdown can always drain the shard.
      (void)SleepWithCancellation(3600.0, release, std::nullopt);
    }));
  }
  std::vector<JournalServiceEvent> events;
  {
    MutexLock lock(&mu_);
    LogLocked("stall", shards_[index]->id(), 0,
              "wedged " + std::to_string(workers) + " workers", &events);
  }
  AppendEvents(events);
  return Status::OK();
}

void ShardRouter::Tick() {
  std::vector<JournalServiceEvent> events;
  {
    MutexLock lock(&mu_);
    SweepQuarantinesLocked(clock_->Now(), &events);
    for (size_t i = 0; i < shards_.size(); ++i) {
      EvaluateShardLocked(i, &events);
    }
  }
  AppendEvents(events);
}

RouterStats ShardRouter::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

std::vector<JournalServiceEvent> ShardRouter::decisions() const {
  MutexLock lock(&mu_);
  return decisions_;
}

Status ShardRouter::journal_status() const {
  MutexLock lock(&mu_);
  if (!journal_status_.ok()) return journal_status_;
  return Status::OK();
}

void ShardRouter::AppendEvents(
    const std::vector<JournalServiceEvent>& events) {
  if (journal_ == nullptr || events.empty()) return;
  for (const JournalServiceEvent& ev : events) {
    Status s = journal_->Append(ev);
    if (!s.ok()) {
      MutexLock lock(&mu_);
      if (journal_status_.ok()) journal_status_ = s;
      return;
    }
  }
}

void ShardRouter::JournalOutcome(uint64_t ordinal,
                                 const Result<QueryResult>& final_res,
                                 uint32_t attempts, uint32_t served_by,
                                 double wall) {
  if (journal_ == nullptr) return;
  JournalQueryRecord rec;
  rec.query_index = static_cast<uint32_t>(ordinal);
  rec.attempts = std::max<uint32_t>(1, attempts);
  rec.shard_id = served_by;
  JournalAttempt att;
  if (final_res.ok()) {
    rec.seconds = final_res->sim_seconds;
    rec.timed_out = final_res->timed_out;
    rec.failed = final_res->failed;
    att.code = Status::Code::kOk;
    att.timed_out = final_res->timed_out;
  } else {
    rec.seconds = wall;
    rec.failed = true;
    rec.timed_out = final_res.status().IsTimeout();
    att.code = final_res.status().code();
    att.message = final_res.status().message();
  }
  rec.attempt_log.push_back(std::move(att));
  Status s = journal_->Append(rec);
  if (!s.ok()) {
    MutexLock lock(&mu_);
    if (journal_status_.ok()) journal_status_ = s;
  }
}

}  // namespace tabbench
