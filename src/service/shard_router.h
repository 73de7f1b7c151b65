#ifndef TABBENCH_SERVICE_SHARD_ROUTER_H_
#define TABBENCH_SERVICE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "service/shard.h"
#include "service/workload_service.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/run_journal.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace tabbench {

/// Options for the sharded serving layer.
struct ShardRouterOptions {
  /// Worker shards; each owns a WorkloadService slice (thread pool, circuit
  /// breaker, watchdog, journal). Minimum 1.
  size_t shards = 2;
  /// Template for every shard (per-shard workers, breaker, watchdog, health
  /// thresholds). Per-shard journal paths and shard ids are derived.
  ShardOptions shard;
  /// Router dispatcher threads: each in-flight job occupies one while it
  /// blocks on its shard future. 0 sizes the pool at twice the summed shard
  /// workers (capped by max_in_flight when that is set).
  size_t router_workers = 0;
  /// Router-level admission cap on jobs in flight. A submission accepted
  /// under this cap is *admitted* — the no-lost-job invariant (a journaled
  /// terminal outcome per admitted job) starts here. 0 = no cap.
  size_t max_in_flight = 256;
  /// Directory for the audit journals: `router.tbj` (terminal outcomes +
  /// routing decisions) and `shard-<id>.tbj` (per-shard served queries).
  /// Empty disables journaling.
  std::string journal_dir;
  /// Clock for quarantine cooldowns and decision timestamps; tests inject a
  /// ManualServiceClock for deterministic replay. Not owned; null uses a
  /// steady wall clock owned by the router.
  ServiceClock* clock = nullptr;
  /// Route each domain's jobs onto a long-lived session on its current
  /// shard (warm-cache affinity). When false every job runs sessionless.
  bool use_domain_sessions = true;
  /// Ladder step 1: when a job's target shard is degraded, submissions with
  /// priority below this are shed with kUnavailable and a machine-readable
  /// retry hint (RetryAfterHintSeconds). Default priority is 1, so priority
  /// 0 marks sheddable background work out of the box.
  int shed_below_priority = 1;
  /// The hint embedded in shed rejections.
  double shed_retry_after_seconds = 0.05;
  /// Re-evaluate a shard's health every this many of its completions
  /// (Tick() forces a pass). 0 evaluates on every completion.
  uint64_t eval_every = 16;
  /// Dispatch attempts per job across shards before the job fails with the
  /// last error. 0 = number of shards + 1.
  size_t max_failover_attempts = 0;
  /// In-memory decision log bound (oldest entries dropped past it); the
  /// journal keeps the full stream.
  size_t max_decisions = 65536;
};

/// Per-submission routing knobs.
struct SubmitOptions {
  /// Session-affinity domain: all jobs sharing a domain run on the same
  /// shard (and, with use_domain_sessions, the same warm session) until the
  /// health machine moves the domain. Millions of client sessions hash down
  /// onto a bounded domain space upstream of the router.
  uint64_t domain = 0;
  /// Shedding priority (higher survives longer); see shed_below_priority.
  int priority = 1;
  /// Per-job execution knobs forwarded to the serving shard. `cancel` stays
  /// the *client's* token: the router wraps each dispatch attempt in its own
  /// token so a chaos shard kill cancels the attempt, not the job.
  JobOptions job;
};

/// Router counters (monotone since construction).
struct RouterStats {
  uint64_t submitted = 0;       // admitted jobs
  uint64_t completed = 0;       // admitted jobs resolved (any status)
  uint64_t rejected = 0;        // admission-cap / shutdown / fault bounces
  uint64_t shed = 0;            // ladder step 1 rejections
  uint64_t failovers = 0;       // dispatch attempts moved to a sibling
  uint64_t kills = 0;           // chaos kills (KillShard + injected)
  uint64_t quarantines = 0;     // transitions into kQuarantined
  uint64_t degrades = 0;        // transitions into kDegraded
  uint64_t recoveries = 0;      // degraded -> healthy via signals
  uint64_t reroutes = 0;        // domains moved off a non-serving shard
  uint64_t rehomes = 0;         // domains moved back to their home shard
  uint64_t probes = 0;          // probe jobs admitted to recovering shards
  uint64_t readmissions = 0;    // recovering -> healthy (quota met)
  uint64_t requarantines = 0;   // recovering -> quarantined (probe failed)
};

/// Parses the machine-readable hint ("retry_after_seconds=<x>") that shed
/// and capacity rejections embed in their status message; 0 when absent.
double RetryAfterHintSeconds(const Status& status);

/// The sharded front door of the serving layer: routes every submission to
/// a worker shard by session-domain affinity, fails admitted jobs over to
/// sibling shards when their shard dies under them, and walks the graceful
/// degradation ladder as per-shard health decays:
///
///   step 1  degraded shards shed low-priority load with kUnavailable and a
///           retry-after hint;
///   step 2  quarantined shards serve nothing — their domains re-route to
///           siblings — until a cooldown plus a quota of successful probes
///           re-admits them.
///
/// Invariants (audited by the chaos tests over the router journal):
///   - no lost admitted job: every submission the router admits resolves
///     its future AND appends exactly one terminal-outcome record;
///   - deterministic replay: with a ManualServiceClock, serialized
///     submissions, and a fixed fault schedule, two runs produce identical
///     decision logs (sequence, kind, shard, domain).
///
/// Chaos hooks: KillShard / the `service.shard.quarantine` fault point
/// quarantine a shard and cancel everything it is serving (the router fails
/// those jobs over); StallShard wedges a shard's workers so the queue-depth
/// signal escalates; `service.shard.route` bounces submissions at the door.
class ShardRouter {
 public:
  ShardRouter(const Database* db, ShardRouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Submits one query. The future resolves with the QueryResult or the
  /// terminal error after any failover attempts; Unavailable rejections
  /// (capacity, shedding, no serving shard) may carry a retry-after hint.
  std::future<Result<QueryResult>> Submit(std::string sql,
                                          SubmitOptions options = {})
      TB_EXCLUDES(mu_);

  size_t num_shards() const { return shards_.size(); }
  /// Introspection for tests and the overload harness.
  Shard* shard(size_t index) { return shards_[index].get(); }
  ShardHealth shard_health(size_t index) const {
    return shards_[index]->health();
  }
  /// Static home shard of a domain (1-based id); pure hash, never moves.
  uint32_t HomeShardId(uint64_t domain) const;
  /// Current routing assignment of a domain (1-based id; home if unseen).
  uint32_t DomainShardId(uint64_t domain) const TB_EXCLUDES(mu_);

  /// Chaos: quarantines shard `index` (0-based) immediately and cancels all
  /// its in-flight attempts so the router fails them over.
  void KillShard(size_t index) TB_EXCLUDES(mu_);
  /// Chaos: wedges every worker of shard `index` until `release` fires, so
  /// accepted jobs pile up behind the blockers and the queue-depth signal
  /// drives the shard down the ladder.
  Status StallShard(size_t index, CancellationToken release)
      TB_EXCLUDES(mu_);

  /// Forces a health pass over every shard: opens due probe windows and
  /// re-evaluates the streaming signals. Submissions and completions do
  /// this lazily; Tick() exists for monitors and for stalled shards that
  /// never complete anything.
  void Tick() TB_EXCLUDES(mu_);

  RouterStats stats() const TB_EXCLUDES(mu_);
  /// Copy of the (bounded) in-memory decision log, in decision order. The
  /// deterministic-replay acceptance check compares this stream across runs.
  std::vector<JournalServiceEvent> decisions() const TB_EXCLUDES(mu_);
  /// First error that hit the router journal, or OK (mirrors
  /// WorkloadService::journal_status).
  Status journal_status() const TB_EXCLUDES(mu_);

  /// Stops admission, drains dispatchers and shards, closes journals.
  /// Idempotent; also run by the destructor.
  void Shutdown() TB_EXCLUDES(mu_);

 private:
  struct DomainState {
    bool initialized = false;
    size_t shard = 0;  // current assignment (index into shards_)
    SessionId session = kNoSession;
    size_t session_shard = 0;  // shard the session lives on
  };
  /// One routing decision for one dispatch attempt.
  struct Target {
    size_t shard_index = 0;
    SessionId session = kNoSession;
    bool probe = false;
    Status status;  // non-OK: shed / no serving shard
  };

  size_t HomeIndex(uint64_t domain) const;
  /// Picks the shard + session for one dispatch attempt of `domain`,
  /// walking the ladder: probe steering, rehoming, re-routing off
  /// non-serving shards, and step-2 shedding. Appends any decisions to the
  /// log and to `out_events` (journaled by the caller after unlocking).
  Target AcquireTargetLocked(uint64_t domain, int priority,
                             std::vector<JournalServiceEvent>* out_events)
      TB_REQUIRES(mu_);
  /// Opens probe windows whose quarantine cooldown has elapsed.
  void SweepQuarantinesLocked(double now,
                              std::vector<JournalServiceEvent>* out_events)
      TB_REQUIRES(mu_);
  /// Runs the shard's health evaluation and logs any transition.
  void EvaluateShardLocked(size_t index,
                           std::vector<JournalServiceEvent>* out_events)
      TB_REQUIRES(mu_);
  void KillShardLocked(size_t index, const std::string& reason,
                       std::vector<JournalServiceEvent>* out_events)
      TB_REQUIRES(mu_);
  void LogLocked(const char* kind, uint32_t shard_id, uint64_t domain,
                 std::string detail,
                 std::vector<JournalServiceEvent>* out_events)
      TB_REQUIRES(mu_);
  /// Dispatcher body: runs one admitted job to its terminal outcome
  /// (bounded failover attempts), records latency, evaluates health,
  /// journals the outcome, and only then fulfills the promise.
  void RunJob(std::string sql, SubmitOptions options, Target target,
              uint64_t ordinal,
              std::shared_ptr<std::promise<Result<QueryResult>>> promise)
      TB_EXCLUDES(mu_);
  /// Reports a probe outcome to its shard and logs the verdict.
  void ReportProbe(Shard* shard, bool success) TB_EXCLUDES(mu_);
  /// Appends events / the terminal record to the router journal (outside
  /// any router lock — the writer is internally synchronized and fsyncs).
  void AppendEvents(const std::vector<JournalServiceEvent>& events)
      TB_EXCLUDES(mu_);
  void JournalOutcome(uint64_t ordinal, const Result<QueryResult>& final_res,
                      uint32_t attempts, uint32_t served_by, double wall)
      TB_EXCLUDES(mu_);

  const Database* db_;
  const ShardRouterOptions options_;
  SteadyServiceClock own_clock_;   // used when options_.clock is null
  SteadyServiceClock wall_;        // latency digests always use wall time
  ServiceClock* const clock_;
  /// Built once in the constructor; the vector itself is immutable (shards
  /// synchronize internally).
  const std::vector<std::unique_ptr<Shard>> shards_;
  /// Created in the constructor, then only read; internally synchronized.
  std::unique_ptr<RunJournalWriter> journal_;
  std::atomic<bool> shutdown_{false};

  /// Router lock: routing tables, decision log, stats. Ordered before the
  /// shard/service locks it reaches into while routing (session churn,
  /// health transitions), and checked by both Clang -Wthread-safety and the
  /// analyzer's lock-order pass. Journal appends (fsync) happen outside it.
  mutable Mutex mu_ TB_ACQUIRED_BEFORE("Shard::mu_", "WorkloadService::mu_");
  uint64_t in_flight_ TB_GUARDED_BY(mu_) = 0;
  uint64_t next_ordinal_ TB_GUARDED_BY(mu_) = 0;
  uint64_t next_decision_seq_ TB_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, DomainState> domains_ TB_GUARDED_BY(mu_);
  std::vector<uint64_t> shard_completions_ TB_GUARDED_BY(mu_);
  std::vector<JournalServiceEvent> decisions_ TB_GUARDED_BY(mu_);
  RouterStats stats_ TB_GUARDED_BY(mu_);
  Status journal_status_ TB_GUARDED_BY(mu_);

  /// Last member: dispatchers must be joined before anything above dies.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tabbench

#endif  // TABBENCH_SERVICE_SHARD_ROUTER_H_
