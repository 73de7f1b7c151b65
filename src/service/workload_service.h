#ifndef TABBENCH_SERVICE_WORKLOAD_SERVICE_H_
#define TABBENCH_SERVICE_WORKLOAD_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/index_build.h"
#include "service/circuit_breaker.h"
#include "service/session.h"
#include "util/thread_pool.h"
#include "service/watchdog.h"
#include "storage/buffer_pool.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/run_journal.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// Handle to a service session. 0 is "no session".
using SessionId = uint64_t;
inline constexpr SessionId kNoSession = 0;

struct ServiceOptions {
  /// Worker threads; 0 means hardware concurrency.
  size_t workers = 0;
  /// Admission-control cap on jobs in flight (queued + running). Further
  /// submissions are rejected with Unavailable until load drains. 0 = no cap.
  size_t max_in_flight = 64;
  /// Defaults for sessions the service creates (both OpenSession and the
  /// ephemeral cold session a sessionless job runs on).
  SessionOptions session;
  /// Watchdog (service/watchdog.h) enforcing per-job wall-clock budgets
  /// *mid-attempt*: a job whose wall_timeout_seconds elapses — scaled by
  /// watchdog.grace_factor — is force-cancelled through a private exec
  /// token even inside an attempt, and its future holds Status::Timeout.
  /// Without it the budget was only checked between retry attempts, so one
  /// long attempt could overrun it unboundedly.
  WatchdogOptions watchdog;
  /// Admission circuit breaker (service/circuit_breaker.h), one state
  /// machine per fault domain — the job's session id; sessionless jobs
  /// share domain 0. Disabled by default (failure_threshold = 0).
  CircuitBreakerOptions breaker;
  /// When non-empty, every executed query's outcome (timing, flags,
  /// attempts, pool deltas) is appended + fsync'd to a run journal
  /// (util/run_journal.h) at this path: a durable audit trail of what the
  /// service actually served. Service journals carry no charge traces, so
  /// they are not resumable — checkpoint/resume is the runners' journal.
  std::string journal_path;
  /// Identity stamped into every journal record this service writes
  /// (JournalQueryRecord::shard_id), so a post-hoc audit over a sharded
  /// deployment's journals can attribute each outcome to the worker shard
  /// that served it. 0 (default) marks an unsharded service.
  uint32_t shard_id = 0;
};

/// Per-job execution knobs.
struct JobOptions {
  /// Simulated-seconds deadline folded into the paper's 30-minute timeout
  /// as min(timeout, deadline); a trip is reported as a timed-out result,
  /// the `t_out` convention. <= 0 uses the session/database default.
  double deadline_seconds = -1.0;
  /// Cooperative cancellation; polled at every executor safe point. A
  /// cancelled job's future holds Status::Cancelled.
  CancellationToken cancel;
  /// Session to run on. kNoSession runs on a fresh cold private session
  /// (deterministic in isolation); a real session id gives warm-cache
  /// continuity, with the service serializing that session's jobs in
  /// submission order.
  SessionId session = kNoSession;
  /// Transient-error retry (Status::IsTransient). Between attempts the
  /// worker sleeps the policy's backoff in *wall-clock* time via
  /// SleepWithCancellation, so a cancellation or the wall budget below
  /// interrupts the sleep promptly. Default: no retry.
  RetryPolicy retry;
  /// Wall-clock budget for the whole job, including backoff sleeps; a
  /// backoff that would outlive it aborts the job with Status::Timeout
  /// (this is a *real-time* budget, distinct from the simulated-seconds
  /// deadline above). <= 0 disables.
  double wall_timeout_seconds = -1.0;
};

/// Service-level counters (monotone since construction).
struct ServiceStats {
  uint64_t submitted = 0;  // accepted jobs (queries count 1, workloads 1)
  uint64_t completed = 0;
  uint64_t rejected = 0;   // admission-control rejections
  uint64_t cancelled = 0;  // jobs that finished with Status::Cancelled
  uint64_t query_timeouts = 0;  // executed queries reported timed_out
  uint64_t retries = 0;    // extra execution attempts after transient errors
  /// Workload queries whose retries were exhausted and that were isolated
  /// as censored placeholder results (each also counts a query_timeout).
  uint64_t failures = 0;
  /// Submissions bounced because their fault domain's breaker was open
  /// (each also counts in `rejected`).
  uint64_t breaker_rejections = 0;
  /// closed/half-open -> open breaker transitions.
  uint64_t breaker_opens = 0;
  /// Jobs the watchdog force-cancelled for overrunning their wall budget
  /// mid-attempt.
  uint64_t watchdog_cancels = 0;
};

/// The concurrent query-serving front of the engine: a thread-pool-backed
/// service that accepts single queries or whole workloads against one
/// Database and hands back futures.
///
/// Responsibilities:
///  - scheduling: a fixed worker pool; per-session FIFO strands so one
///    session's jobs never interleave (its pool view stays deterministic)
///    while different sessions run fully in parallel;
///  - deadlines: per-job simulated-seconds deadlines folded into the
///    paper's per-query timeout;
///  - cancellation: cooperative tokens threaded into ExecContext;
///  - admission control: an in-flight cap with graceful Unavailable
///    rejection instead of unbounded queueing.
///
/// The database must stay read-only (no DDL / ApplyConfiguration / inserts)
/// while jobs are in flight; the service itself only ever executes queries.
class WorkloadService {
 public:
  explicit WorkloadService(const Database* db, ServiceOptions options = {});
  ~WorkloadService();

  WorkloadService(const WorkloadService&) = delete;
  WorkloadService& operator=(const WorkloadService&) = delete;

  /// Submits one query. The returned future holds the QueryResult, or
  /// Unavailable (rejected / shutting down), Cancelled, or a genuine
  /// execution error. Timeouts are successful results with timed_out set.
  /// With JobOptions::retry, transient errors are retried with backoff and
  /// the future holds the *final* attempt's error if they never clear.
  std::future<Result<QueryResult>> SubmitQuery(std::string sql,
                                               JobOptions options = {});

  /// Submits a whole workload as one job: the queries run back-to-back on
  /// one session (warm cache across queries, like the sequential runner),
  /// producing per-query results in workload order. A query whose retries
  /// are exhausted does not abort the workload: it is isolated as a
  /// censored placeholder result (timed_out + failed, priced at the
  /// effective timeout — the paper's t_out convention) and the remaining
  /// queries still run. Only cancellation and the wall budget abort.
  std::future<Result<std::vector<QueryResult>>> SubmitWorkload(
      std::vector<std::string> sql, JobOptions options = {});

  /// Submits a *shadow* index build (engine/index_build.h) as a background
  /// job: the full scan + sort cost is paid into a private session's pool
  /// and clock, the tree is built in a private store and discarded — the
  /// database itself stays read-only, so builds coexist with query traffic.
  /// The job runs under the same admission control, breaker, watchdog, and
  /// outcome journal as queries; the result's fingerprint is deterministic,
  /// which is how the sharded chaos audit proves a build replayed after a
  /// shard kill produced the identical index. Cancellation and the wall
  /// budget abort via the build's cooperative polls.
  std::future<Result<ShadowIndexBuildResult>> SubmitIndexBuild(
      IndexDef def, JobOptions options = {});

  /// Creates a session with its own buffer-pool view and simulated clock.
  SessionId OpenSession(SessionOptions options) TB_EXCLUDES(mu_);
  SessionId OpenSession() { return OpenSession(options_.session); }

  /// Closes a session. Jobs already accepted for it still run; the session
  /// is destroyed once they drain. New submissions to it are rejected.
  Status CloseSession(SessionId id) TB_EXCLUDES(mu_);

  /// Accumulated simulated seconds of a session's queries, or NotFound.
  Result<double> SessionClock(SessionId id) const TB_EXCLUDES(mu_);

  ServiceStats stats() const TB_EXCLUDES(mu_);
  size_t num_workers() const { return pool_.num_workers(); }

  /// Jobs currently accepted but not finished (queued on strands or the
  /// pool + running) — the queue-depth signal the shard health machine and
  /// the degradation ladder read.
  uint64_t in_flight() const TB_EXCLUDES(mu_);

  /// Chaos hook: occupies one worker with `task`, bypassing admission
  /// control, the breaker, and the journal. The overload harness uses it to
  /// wedge a shard's workers (a "stalled shard") so queued jobs pile up
  /// behind it; `task` must be cancellation-aware or the service cannot
  /// drain on Shutdown. Unavailable after Shutdown.
  Status SubmitRaw(std::function<void()> task) TB_EXCLUDES(mu_);

  /// OK while the outcome journal (ServiceOptions::journal_path) is healthy
  /// or disabled; otherwise the first error that hit it (creation failure,
  /// failed append). Journal errors never fail queries — the service keeps
  /// serving and surfaces the problem here.
  Status journal_status() const TB_EXCLUDES(mu_);

  /// Stops accepting work, drains accepted jobs, joins workers. Idempotent;
  /// also run by the destructor.
  void Shutdown() TB_EXCLUDES(mu_);

 private:
  struct SessionState {
    explicit SessionState(const Database* db, SessionOptions opts)
        : session(db, opts) {}
    Session session;
    std::deque<std::function<void()>> jobs;  // pending, FIFO
    bool running = false;  // a worker is draining this strand
    bool closing = false;  // destroy once drained
  };

  /// Admission check + accounting; returns false (and bumps `rejected`)
  /// when the job must be turned away.
  bool AdmitLocked() TB_REQUIRES(mu_);
  /// Enqueues `job` on the session's strand (scheduling a drain if idle)
  /// or directly on the pool for sessionless jobs. Returns Unavailable on
  /// admission rejection, NotFound for a dead session.
  Status Dispatch(SessionId id, std::function<void()> job) TB_EXCLUDES(mu_);
  /// Runs a session's pending jobs in FIFO order until its queue empties.
  void DrainSession(SessionId id) TB_EXCLUDES(mu_);
  /// Job epilogue: feeds the breaker (success / failure / abandoned for
  /// user cancels), then updates counters. `status` is the job's final
  /// status *after* any watchdog Cancelled->Timeout remap.
  void FinishJob(SessionId domain, const Status& status, size_t timeouts,
                 uint64_t retries, uint64_t failures, bool watchdog_fired)
      TB_EXCLUDES(mu_);
  /// Appends one executed query's outcome to the service journal (no-op
  /// when journaling is off; append errors land in journal_status()).
  void JournalOutcome(double seconds, bool timed_out, bool failed,
                      uint32_t attempts, const BufferPoolStats& before,
                      const BufferPoolStats& after) TB_EXCLUDES(mu_);

  const Database* db_;
  /// Immutable after construction; read from worker threads bare.
  const ServiceOptions options_;
  CircuitBreaker breaker_;
  Watchdog watchdog_;
  /// Created once in the constructor, then only read (the writer itself is
  /// internally synchronized); null when journaling is off or creation
  /// failed.
  std::unique_ptr<RunJournalWriter> journal_;
  std::atomic<uint32_t> journal_index_{0};
  ThreadPool pool_;
  /// Per-job ordinal seeding the job's FaultScope, so every job draws a
  /// distinct deterministic fault schedule regardless of which worker or
  /// session runs it.
  std::atomic<uint64_t> job_ordinal_{1};

  /// Outermost lock of the service: Dispatch calls into the breaker and
  /// the pool while holding it, never the reverse. The declared order is
  /// checked two ways: Clang's -Wthread-safety build, and tools/analyze's
  /// lock-order pass, which unions these edges with the acquisition edges
  /// it observes and fails CI on any cycle.
  mutable Mutex mu_
      TB_ACQUIRED_BEFORE("CircuitBreaker::mu_", "ThreadPool::mu_",
                         "Watchdog::mu_");
  bool shutdown_ TB_GUARDED_BY(mu_) = false;
  uint64_t in_flight_ TB_GUARDED_BY(mu_) = 0;
  SessionId next_session_ TB_GUARDED_BY(mu_) = 1;
  /// The map (membership, strand queues, flags) is guarded by mu_. The
  /// Session object *inside* a SessionState is deliberately not: exactly one
  /// drain job touches it at a time (the strand invariant), outside mu_.
  std::map<SessionId, std::unique_ptr<SessionState>> sessions_
      TB_GUARDED_BY(mu_);
  ServiceStats stats_ TB_GUARDED_BY(mu_);
  Status journal_status_ TB_GUARDED_BY(mu_);
};

}  // namespace tabbench

#endif  // TABBENCH_SERVICE_WORKLOAD_SERVICE_H_
