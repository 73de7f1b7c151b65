#ifndef TABBENCH_SERVICE_SHARD_H_
#define TABBENCH_SERVICE_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "service/workload_service.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/streaming_stats.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// Clock the shard health machinery reads. The default implementation is the
/// steady wall clock; tests substitute a manually advanced clock so
/// quarantine cooldowns and probe windows replay deterministically — the
/// chaos acceptance test requires two runs with the same fault schedule to
/// produce byte-identical routing decisions, which a real clock cannot.
class ServiceClock {
 public:
  virtual ~ServiceClock() = default;
  /// Monotone seconds since an arbitrary epoch.
  virtual double Now() = 0;
};

/// Wall time (steady_clock), seconds since construction.
class SteadyServiceClock : public ServiceClock {
 public:
  double Now() override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Test clock: time moves only when Advance() is called.
class ManualServiceClock : public ServiceClock {
 public:
  double Now() override { return now_.load(std::memory_order_relaxed); }
  void Advance(double seconds) {
    now_.store(now_.load(std::memory_order_relaxed) + seconds,
               std::memory_order_relaxed);
  }

 private:
  std::atomic<double> now_{0.0};
};

/// Shard health state machine, driven by streaming signals:
///
///        latency/queue/breaker pressure          pressure clears
///   kHealthy ----------------------------> kDegraded ----> kHealthy
///        |                                      |
///        | severe pressure / Kill()             | severe pressure / Kill()
///        v                                      v
///   kQuarantined --(cooldown elapses)--> kRecovering
///        ^                                      |
///        |   any probe fails                    | probe quota succeeds
///        +--------------------------------------+--> kHealthy (readmit)
///
/// Degraded shards keep serving but have low-priority load shed by the
/// router (ladder step 1). Quarantined shards serve nothing; their domains
/// re-route to siblings (step 2). Recovering shards serve only a bounded
/// probe quota.
enum class ShardHealth { kHealthy, kDegraded, kQuarantined, kRecovering };

const char* ShardHealthName(ShardHealth health);

/// Thresholds the health machine evaluates. Latency thresholds compare
/// against the shard's streaming digest (wall seconds per routed job);
/// queue depth is the shard service's in-flight count; breaker/watchdog
/// counts are deltas since the previous evaluation.
struct ShardHealthThresholds {
  /// healthy -> degraded when p95 exceeds this (seconds); <= 0 disables.
  double degrade_p95_seconds = 0.5;
  /// healthy -> degraded when in-flight depth exceeds this; 0 disables.
  uint64_t degrade_queue_depth = 32;
  /// -> quarantined when p99 exceeds this (seconds); <= 0 disables.
  double quarantine_p99_seconds = 2.0;
  /// -> quarantined when in-flight depth exceeds this; 0 disables.
  uint64_t quarantine_queue_depth = 128;
  /// -> quarantined when this many breaker opens landed since the last
  /// evaluation; 0 disables.
  uint64_t quarantine_breaker_opens = 1;
  /// -> quarantined when this many watchdog force-cancels landed since the
  /// last evaluation; 0 disables.
  uint64_t quarantine_watchdog_cancels = 3;
  /// Latency digests need at least this many samples before latency
  /// thresholds fire (queue/breaker/watchdog signals are always live).
  uint64_t min_latency_samples = 8;
  /// The digest is reset after it accumulates this many samples, so the
  /// latency signal tracks a recent window instead of the full history
  /// (a shard that was slow an hour ago can still test as healthy).
  uint64_t latency_window = 256;
  /// Quarantined shards wait this long (ServiceClock seconds) before the
  /// probe window opens and the shard moves to kRecovering.
  double quarantine_cooldown_seconds = 0.25;
  /// Consecutive probe successes required to re-admit a recovering shard.
  uint64_t readmit_probe_quota = 3;
};

struct ShardOptions {
  /// Options for the shard's WorkloadService slice (workers, breaker,
  /// watchdog, journal path, shard id).
  ServiceOptions service;
  ShardHealthThresholds health;
};

/// One worker shard of the sharded serving layer: a WorkloadService slice
/// plus the health state machine, streaming latency digest, and the
/// in-flight attempt registry that makes a chaos Kill() able to cancel
/// everything the shard is currently serving (so the router can fail those
/// jobs over to siblings instead of losing them).
///
/// Transitions return event descriptions instead of logging themselves: the
/// ShardRouter owns the (journaled) decision log, and routing determinism is
/// audited on that single stream.
class Shard {
 public:
  /// `id` is the 1-based public shard id; it is stamped into every journal
  /// record the shard's service writes (0 is reserved for unsharded
  /// services, so old journals read back as shard 0).
  Shard(const Database* db, uint32_t id, const ShardOptions& options);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  uint32_t id() const { return id_; }
  /// The shard's service slice; valid for the shard's lifetime.
  WorkloadService* service() { return service_.get(); }

  ShardHealth health() const TB_EXCLUDES(mu_);
  /// Serving = healthy or degraded (quarantined/recovering shards accept
  /// only router-controlled probes).
  bool serving() const TB_EXCLUDES(mu_);
  LatencyDigest latency() const;
  /// Generation counter bumped by every Kill(); a dispatcher compares the
  /// epoch around an attempt to tell "my job was cancelled because the
  /// shard died" (fail over) from a user cancel (terminal).
  uint64_t kill_epoch() const TB_EXCLUDES(mu_);

  /// Records one routed job's wall latency into the streaming digest.
  void RecordLatency(double seconds);

  /// A state transition plus the reason, for the router's decision log.
  struct Transition {
    bool changed = false;
    ShardHealth from = ShardHealth::kHealthy;
    ShardHealth to = ShardHealth::kHealthy;
    std::string reason;
  };

  /// Re-evaluates healthy <-> degraded and the escalation to quarantined
  /// from the live signals (latency digest, queue depth, breaker-open and
  /// watchdog-cancel deltas). Never touches quarantined/recovering shards —
  /// those only move through the probe path or Kill().
  Transition EvaluateHealth(double now) TB_EXCLUDES(mu_);

  /// Opens the probe window once the quarantine cooldown has elapsed
  /// (quarantined -> recovering). Returns whether the transition happened.
  bool MaybeOpenProbeWindow(double now) TB_EXCLUDES(mu_);

  /// Claims one probe slot on a recovering shard; at most
  /// readmit_probe_quota probes are in flight or already successful.
  bool AdmitProbe() TB_EXCLUDES(mu_);

  enum class ProbeVerdict { kPending, kReadmitted, kRequarantined };
  /// Reports one probe outcome. Quota-th consecutive success re-admits the
  /// shard (-> healthy); any failure re-quarantines it and restarts the
  /// cooldown from `now`.
  ProbeVerdict FinishProbe(bool success, double now) TB_EXCLUDES(mu_);

  /// Chaos kill: quarantines the shard immediately and cancels every
  /// registered in-flight attempt, so their futures resolve and the router
  /// fails the jobs over. The service itself stays up (its workers unwind
  /// at cancellation safe points); re-admission goes through the normal
  /// cooldown + probe path.
  void Kill(double now) TB_EXCLUDES(mu_);

  /// In-flight attempt registry for Kill(). The router registers each
  /// dispatch attempt's cancel token before submitting to the shard's
  /// service and unregisters after the future resolves.
  void RegisterAttempt(uint64_t ordinal, CancellationToken cancel)
      TB_EXCLUDES(mu_);
  void UnregisterAttempt(uint64_t ordinal) TB_EXCLUDES(mu_);

  /// Drains the service slice. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  Transition TransitionLocked(ShardHealth to, std::string reason)
      TB_REQUIRES(mu_);

  const uint32_t id_;
  const ShardOptions options_;
  /// Created once in the constructor; the pointer itself is immutable.
  const std::unique_ptr<WorkloadService> service_;
  StreamingStats latency_;

  /// Health-machine lock, ordered before the service lock (EvaluateHealth
  /// snapshots the service's counters before taking it, so today the two
  /// never nest).
  /// (The router's lock, when present, is ordered before this one; see
  /// ShardRouter::mu_.)
  mutable Mutex mu_ TB_ACQUIRED_BEFORE("WorkloadService::mu_");
  ShardHealth health_ TB_GUARDED_BY(mu_) = ShardHealth::kHealthy;
  uint64_t kill_epoch_ TB_GUARDED_BY(mu_) = 0;
  double quarantined_at_ TB_GUARDED_BY(mu_) = 0.0;
  uint64_t probes_in_flight_ TB_GUARDED_BY(mu_) = 0;
  uint64_t probe_successes_ TB_GUARDED_BY(mu_) = 0;
  /// Signal snapshots from the previous EvaluateHealth, for deltas.
  uint64_t last_breaker_opens_ TB_GUARDED_BY(mu_) = 0;
  uint64_t last_watchdog_cancels_ TB_GUARDED_BY(mu_) = 0;
  std::map<uint64_t, CancellationToken> inflight_ TB_GUARDED_BY(mu_);
};

}  // namespace tabbench

#endif  // TABBENCH_SERVICE_SHARD_H_
