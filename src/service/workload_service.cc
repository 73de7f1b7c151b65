#include "service/workload_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "storage/buffer_pool.h"
#include "util/fault_injection.h"

namespace tabbench {

namespace {

/// A future already holding `status` (admission rejections, dead sessions).
template <typename T>
std::future<Result<T>> ReadyFuture(Status status) {
  std::promise<Result<T>> p;
  p.set_value(Result<T>(std::move(status)));
  return p.get_future();
}

/// Drops a fault latched after an attempt's last safe point so it cannot
/// leak into the next attempt (the runner does the same at its attempt
/// boundaries).
void DropStaleLatchedFault() {
  if (FaultInjectionArmed()) (void)FaultRegistry::TakePending();
}

/// Seed for the FaultScope of query `idx` of job `ordinal`. The shift
/// keeps distinct jobs' query seeds from colliding for workloads of up to
/// ~1M queries; schedules stay deterministic per (job, query) pair.
uint64_t JobScopeSeed(uint64_t ordinal, size_t idx) {
  return (ordinal << 20) ^ static_cast<uint64_t>(idx);
}

std::optional<std::chrono::steady_clock::time_point> WallDeadline(
    const JobOptions& options) {
  if (options.wall_timeout_seconds <= 0.0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(options.wall_timeout_seconds));
}

/// The later point at which the watchdog force-cancels the job: the wall
/// budget scaled by the grace factor, leaving the cooperative checks first
/// claim on the budget itself.
std::optional<std::chrono::steady_clock::time_point> GraceDeadline(
    const JobOptions& options, const WatchdogOptions& wd) {
  if (options.wall_timeout_seconds <= 0.0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(options.wall_timeout_seconds *
                                           std::max(wd.grace_factor, 0.0)));
}

/// One query's retry loop: transient errors sleep the policy's backoff in
/// wall-clock time and try again; the sleep returns kCancelled/kTimeout
/// promptly when the token fires or the wall budget expires mid-backoff.
/// The caller opens the FaultScope spanning all attempts.
Result<QueryResult> ExecuteWithRetry(
    Session* session, const std::string& sql, const JobOptions& options,
    const std::optional<std::chrono::steady_clock::time_point>& wall_deadline,
    uint64_t* retries) {
  for (int attempt = 1;; ++attempt) {
    auto res = session->Execute(sql, options.deadline_seconds, options.cancel);
    DropStaleLatchedFault();
    if (res.ok()) return res;
    if (!options.retry.ShouldRetry(res.status(), attempt)) return res;
    Status slept = SleepWithCancellation(options.retry.BackoffSeconds(attempt),
                                         options.cancel, wall_deadline);
    if (!slept.ok()) return slept;
    ++*retries;
  }
}

/// The cost a censored (failed) query is charged: the paper's timeout,
/// tightened by whichever simulated-seconds deadline governed the query.
double CensoredSeconds(const Database* db, const Session* session,
                       double deadline_override) {
  double t = db->options().cost.timeout_seconds;
  double deadline = deadline_override > 0.0
                        ? deadline_override
                        : session->options().deadline_seconds;
  if (deadline > 0.0) t = std::min(t, deadline);
  return t;
}

}  // namespace

WorkloadService::WorkloadService(const Database* db, ServiceOptions options)
    : db_(db),
      options_(options),
      breaker_(options.breaker),
      watchdog_(options.watchdog),
      // Admission control lives at the service level (max_in_flight), so
      // the pool queue itself is unbounded: every admitted job is owed a
      // fulfilled future and must reach a worker.
      pool_(ThreadPool::Options{options.workers, 0}) {
  if (!options_.journal_path.empty()) {
    JournalHeader header;
    header.metadata["writer"] = "workload-service";
    if (options_.shard_id != 0) {
      header.metadata["shard"] = std::to_string(options_.shard_id);
    }
    auto writer = RunJournalWriter::Create(options_.journal_path, header);
    if (writer.ok()) {
      journal_ = writer.TakeValue();
    } else {
      MutexLock lock(&mu_);
      journal_status_ = writer.status();
    }
  }
}

WorkloadService::~WorkloadService() { Shutdown(); }

bool WorkloadService::AdmitLocked() {
  if (shutdown_) {
    ++stats_.rejected;
    return false;
  }
  if (options_.max_in_flight > 0 && in_flight_ >= options_.max_in_flight) {
    ++stats_.rejected;
    return false;
  }
  ++in_flight_;
  ++stats_.submitted;
  return true;
}

Status WorkloadService::Dispatch(SessionId id, std::function<void()> job) {
  // The breaker guards the admission path ahead of capacity accounting: an
  // open domain's submissions bounce without consuming in-flight budget or
  // worker time. (Lock order is always mu_ -> breaker's internal mutex,
  // never the reverse — the breaker calls nothing back.)
  if (!breaker_.Allow(id)) {
    MutexLock lock(&mu_);
    ++stats_.rejected;
    ++stats_.breaker_rejections;
    return Status::Unavailable("circuit breaker open for this fault domain");
  }
  MutexLock lock(&mu_);
  if (id == kNoSession) {
    if (!AdmitLocked()) {
      breaker_.Abandon(id);
      return Status::Unavailable("service at capacity");
    }
    // Holding mu_ across Submit is what makes the shutdown_ check
    // authoritative: Shutdown() flips the flag under mu_ before shutting
    // the pool, so an admitted job always reaches a live pool.
    return pool_.Submit(std::move(job));
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->closing) {
    breaker_.Abandon(id);
    return Status::NotFound("no such session");
  }
  if (!AdmitLocked()) {
    breaker_.Abandon(id);
    return Status::Unavailable("service at capacity");
  }
  SessionState* st = it->second.get();
  st->jobs.push_back(std::move(job));
  if (!st->running) {
    st->running = true;
    return pool_.Submit([this, id] { DrainSession(id); });
  }
  return Status::OK();
}

void WorkloadService::DrainSession(SessionId id) {
  // The drain terminates without a cancellation poll by construction: the
  // session queue only shrinks once Shutdown() stops admission, and each
  // job body carries its own watchdog/cancellation. Polling here would
  // drop accepted jobs whose futures must still resolve.
  // NOLINTNEXTLINE(tabbench-cancellation-poll)
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(&mu_);
      auto it = sessions_.find(id);
      if (it == sessions_.end()) return;
      SessionState* st = it->second.get();
      if (st->jobs.empty()) {
        st->running = false;
        if (st->closing) sessions_.erase(it);
        return;
      }
      job = std::move(st->jobs.front());
      st->jobs.pop_front();
    }
    job();
  }
}

void WorkloadService::FinishJob(SessionId domain, const Status& status,
                                size_t timeouts, uint64_t retries,
                                uint64_t failures, bool watchdog_fired) {
  const bool user_cancelled = !status.ok() && status.IsCancelled();
  bool opened = false;
  if (status.ok()) {
    breaker_.RecordSuccess(domain);
  } else if (user_cancelled) {
    // Cancellation is a user action, not a health signal: release any
    // half-open probe slot this job held, with no verdict either way.
    breaker_.Abandon(domain);
  } else {
    // Everything else — hard errors, exhausted retries, watchdog/wall
    // timeouts — is the breaker's food: a domain that keeps producing
    // these should stop being admitted.
    opened = breaker_.RecordFailure(domain);
  }
  MutexLock lock(&mu_);
  --in_flight_;
  ++stats_.completed;
  if (user_cancelled) ++stats_.cancelled;
  stats_.query_timeouts += timeouts;
  stats_.retries += retries;
  stats_.failures += failures;
  if (watchdog_fired) ++stats_.watchdog_cancels;
  if (opened) ++stats_.breaker_opens;
}

void WorkloadService::JournalOutcome(double seconds, bool timed_out,
                                     bool failed, uint32_t attempts,
                                     const BufferPoolStats& before,
                                     const BufferPoolStats& after) {
  if (journal_ == nullptr) return;
  JournalQueryRecord rec;
  rec.shard_id = options_.shard_id;
  rec.query_index = journal_index_.fetch_add(1, std::memory_order_relaxed);
  rec.seconds = seconds;
  rec.timed_out = timed_out;
  rec.failed = failed;
  rec.attempts = attempts;
  rec.pool_hit_delta = after.hits - before.hits;
  rec.pool_miss_delta = after.misses - before.misses;
  Status appended = journal_->Append(rec);
  if (!appended.ok()) {
    MutexLock lock(&mu_);
    if (journal_status_.ok()) journal_status_ = appended;
  }
}

std::future<Result<QueryResult>> WorkloadService::SubmitQuery(
    std::string sql, JobOptions options) {
  auto prom = std::make_shared<std::promise<Result<QueryResult>>>();
  std::future<Result<QueryResult>> fut = prom->get_future();

  Session* strand_session = nullptr;
  if (options.session != kNoSession) {
    MutexLock lock(&mu_);
    auto it = sessions_.find(options.session);
    if (it == sessions_.end() || it->second->closing) {
      return ReadyFuture<QueryResult>(Status::NotFound("no such session"));
    }
    strand_session = &it->second->session;
  }

  const uint64_t ordinal = job_ordinal_.fetch_add(1, std::memory_order_relaxed);
  auto job = [this, sql = std::move(sql), options, strand_session, prom,
              ordinal] {
    uint64_t retries = 0;
    bool watchdog_fired = false;
    Result<QueryResult> r = [&]() -> Result<QueryResult> {
      if (options.cancel.cancelled()) {
        return Status::Cancelled("cancelled before execution");
      }
      auto wall_deadline = WallDeadline(options);
      JobOptions eff = options;
      std::optional<uint64_t> watch;
      if (wall_deadline.has_value()) {
        // The watchdog owns a private exec token: a deadline fire stays
        // distinguishable from the submitter's cancel, which the watchdog
        // forwards onto the same token every tick.
        eff.cancel = CancellationToken();
        watch = watchdog_.Watch(GraceDeadline(options, options_.watchdog),
                                eff.cancel, options.cancel);
      }
      FaultScope scope(JobScopeSeed(ordinal, 0));
      auto run = [&](Session* session) -> Result<QueryResult> {
        BufferPoolStats before = session->pool()->stats();
        auto res =
            ExecuteWithRetry(session, sql, eff, wall_deadline, &retries);
        if (watch.has_value()) {
          watchdog_fired = watchdog_.Release(*watch);
          if (!res.ok() && res.status().IsCancelled() && watchdog_fired &&
              !options.cancel.cancelled()) {
            // The watchdog fired for the wall budget, not for the user:
            // the budget's contract is Timeout.
            res = Status::Timeout(
                "wall-clock budget exhausted mid-attempt (watchdog)");
          }
        }
        if (res.ok()) {
          JournalOutcome(res->sim_seconds, res->timed_out, res->failed,
                         static_cast<uint32_t>(retries) + 1, before,
                         session->pool()->stats());
        } else if (!res.status().IsCancelled() && !res.status().IsTimeout()) {
          JournalOutcome(0.0, false, true,
                         static_cast<uint32_t>(retries) + 1, before,
                         session->pool()->stats());
        }
        return res;
      };
      if (strand_session != nullptr) return run(strand_session);
      Session ephemeral(db_, options_.session);
      return run(&ephemeral);
    }();
    FinishJob(options.session, r.status(), r.ok() && r->timed_out ? 1 : 0,
              retries, 0, watchdog_fired);
    prom->set_value(std::move(r));
  };

  Status dispatched = Dispatch(options.session, std::move(job));
  if (!dispatched.ok()) return ReadyFuture<QueryResult>(dispatched);
  return fut;
}

std::future<Result<std::vector<QueryResult>>> WorkloadService::SubmitWorkload(
    std::vector<std::string> sql, JobOptions options) {
  auto prom =
      std::make_shared<std::promise<Result<std::vector<QueryResult>>>>();
  auto fut = prom->get_future();

  Session* strand_session = nullptr;
  if (options.session != kNoSession) {
    MutexLock lock(&mu_);
    auto it = sessions_.find(options.session);
    if (it == sessions_.end() || it->second->closing) {
      return ReadyFuture<std::vector<QueryResult>>(
          Status::NotFound("no such session"));
    }
    strand_session = &it->second->session;
  }

  const uint64_t ordinal = job_ordinal_.fetch_add(1, std::memory_order_relaxed);
  auto job = [this, sql = std::move(sql), options, strand_session, prom,
              ordinal] {
    size_t timeouts = 0;
    uint64_t retries = 0;
    uint64_t failures = 0;
    bool watchdog_fired = false;
    Result<std::vector<QueryResult>> r =
        [&]() -> Result<std::vector<QueryResult>> {
      Session ephemeral(db_, options_.session);
      Session* session =
          strand_session != nullptr ? strand_session : &ephemeral;
      auto wall_deadline = WallDeadline(options);
      JobOptions eff = options;
      std::optional<uint64_t> watch;
      if (wall_deadline.has_value()) {
        // One watch spans the whole job — the wall budget is per job, and
        // the watchdog forwards the submitter's cancel onto the private
        // exec token every tick.
        eff.cancel = CancellationToken();
        watch = watchdog_.Watch(GraceDeadline(options, options_.watchdog),
                                eff.cancel, options.cancel);
      }
      Status aborted = Status::OK();
      std::vector<QueryResult> out;
      out.reserve(sql.size());
      for (size_t i = 0; i < sql.size(); ++i) {
        if (options.cancel.cancelled() || eff.cancel.cancelled()) {
          aborted = Status::Cancelled("workload cancelled");
          break;
        }
        // One scope per query spanning all its attempts, so fire-on-Nth
        // schedules converge across retries instead of re-firing.
        FaultScope scope(JobScopeSeed(ordinal, i));
        const uint64_t retries_before = retries;
        BufferPoolStats before = session->pool()->stats();
        auto qr =
            ExecuteWithRetry(session, sql[i], eff, wall_deadline, &retries);
        const uint32_t attempts =
            static_cast<uint32_t>(retries - retries_before) + 1;
        if (!qr.ok()) {
          Status st = qr.status();
          // Cancellation and the wall budget abort the job; everything
          // else is isolated as a censored placeholder — the workload
          // always completes, like the runner's failure isolation.
          if (st.IsCancelled() || st.IsTimeout()) {
            aborted = st;
            break;
          }
          QueryResult censored;
          censored.timed_out = true;
          censored.failed = true;
          censored.sim_seconds =
              CensoredSeconds(db_, session, options.deadline_seconds);
          ++timeouts;
          ++failures;
          JournalOutcome(censored.sim_seconds, true, true, attempts, before,
                         session->pool()->stats());
          out.push_back(std::move(censored));
          continue;
        }
        if (qr->timed_out) ++timeouts;
        JournalOutcome(qr->sim_seconds, qr->timed_out, qr->failed, attempts,
                       before, session->pool()->stats());
        out.push_back(qr.TakeValue());
      }
      if (watch.has_value()) {
        watchdog_fired = watchdog_.Release(*watch);
        if (!aborted.ok() && aborted.IsCancelled() && watchdog_fired &&
            !options.cancel.cancelled()) {
          aborted = Status::Timeout(
              "wall-clock budget exhausted mid-attempt (watchdog)");
        }
      }
      if (!aborted.ok()) return aborted;
      return out;
    }();
    FinishJob(options.session, r.status(), timeouts, retries, failures,
              watchdog_fired);
    prom->set_value(std::move(r));
  };

  Status dispatched = Dispatch(options.session, std::move(job));
  if (!dispatched.ok()) {
    return ReadyFuture<std::vector<QueryResult>>(dispatched);
  }
  return fut;
}

std::future<Result<ShadowIndexBuildResult>> WorkloadService::SubmitIndexBuild(
    IndexDef def, JobOptions options) {
  auto prom = std::make_shared<std::promise<Result<ShadowIndexBuildResult>>>();
  auto fut = prom->get_future();

  // Builds are always sessionless: the shadow tree lives in a private store
  // and the scan prices into a private pool, so strand affinity buys
  // nothing and a cold pool keeps the cost (and fingerprint) deterministic.
  const uint64_t ordinal = job_ordinal_.fetch_add(1, std::memory_order_relaxed);
  auto job = [this, def = std::move(def), options, prom, ordinal] {
    bool watchdog_fired = false;
    Result<ShadowIndexBuildResult> r = [&]() -> Result<ShadowIndexBuildResult> {
      if (options.cancel.cancelled()) {
        return Status::Cancelled("cancelled before execution");
      }
      auto wall_deadline = WallDeadline(options);
      JobOptions eff = options;
      std::optional<uint64_t> watch;
      if (wall_deadline.has_value()) {
        eff.cancel = CancellationToken();
        // The Release below is guarded by watch.has_value(), which is true
        // exactly when this branch ran; the analyzer cannot correlate the
        // two conditions. NOLINTNEXTLINE(tabbench-release-on-path)
        watch = watchdog_.Watch(GraceDeadline(options, options_.watchdog),
                                eff.cancel, options.cancel);
      }
      FaultScope scope(JobScopeSeed(ordinal, 0));
      Session ephemeral(db_, options_.session);
      CostParams params = db_->options().cost;
      if (options.deadline_seconds > 0 &&
          options.deadline_seconds < params.timeout_seconds) {
        params.timeout_seconds = options.deadline_seconds;
      }
      ExecContext ctx = db_->MakeSessionContext(ephemeral.pool(), params);
      ctx.set_cancellation_token(eff.cancel);
      BufferPoolStats before = ephemeral.pool()->stats();
      auto res = ShadowIndexBuild(*db_, def, &ctx);
      if (watch.has_value()) {
        watchdog_fired = watchdog_.Release(*watch);
        if (!res.ok() && res.status().IsCancelled() && watchdog_fired &&
            !options.cancel.cancelled()) {
          res = Status::Timeout(
              "wall-clock budget exhausted mid-attempt (watchdog)");
        }
      }
      if (res.ok()) {
        JournalOutcome(res->sim_seconds, false, false, 1, before,
                       ephemeral.pool()->stats());
      } else if (!res.status().IsCancelled() && !res.status().IsTimeout()) {
        JournalOutcome(0.0, false, true, 1, before,
                       ephemeral.pool()->stats());
      }
      return res;
    }();
    FinishJob(kNoSession, r.status(), 0, 0, 0, watchdog_fired);
    prom->set_value(std::move(r));
  };

  Status dispatched = Dispatch(kNoSession, std::move(job));
  if (!dispatched.ok()) return ReadyFuture<ShadowIndexBuildResult>(dispatched);
  return fut;
}

SessionId WorkloadService::OpenSession(SessionOptions options) {
  MutexLock lock(&mu_);
  if (shutdown_) return kNoSession;
  SessionId id = next_session_++;
  sessions_.emplace(id, std::make_unique<SessionState>(db_, options));
  return id;
}

Status WorkloadService::CloseSession(SessionId id) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  SessionState* st = it->second.get();
  if (st->running || !st->jobs.empty()) {
    st->closing = true;  // destroyed once the strand drains
  } else {
    sessions_.erase(it);
  }
  return Status::OK();
}

Result<double> WorkloadService::SessionClock(SessionId id) const {
  MutexLock lock(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return Status::NotFound("no such session");
  return it->second->session.clock_seconds();
}

ServiceStats WorkloadService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

uint64_t WorkloadService::in_flight() const {
  MutexLock lock(&mu_);
  return in_flight_;
}

Status WorkloadService::SubmitRaw(std::function<void()> task) {
  MutexLock lock(&mu_);
  if (shutdown_) return Status::Unavailable("service is shutting down");
  return pool_.Submit(std::move(task));
}

Status WorkloadService::journal_status() const {
  MutexLock lock(&mu_);
  return journal_status_;
}

void WorkloadService::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  pool_.Shutdown();  // drains every accepted job; their futures resolve
  watchdog_.Stop();  // after the drain: jobs release their watches first
}

}  // namespace tabbench
