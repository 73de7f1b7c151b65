#ifndef TABBENCH_SERVICE_SESSION_H_
#define TABBENCH_SERVICE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "engine/database.h"
#include "util/cancellation.h"

namespace tabbench {

/// Per-session execution knobs.
struct SessionOptions {
  /// Private buffer-pool view capacity; 0 inherits the database's.
  size_t pool_pages = 0;
  /// Default per-query deadline in *simulated* seconds, folded into the
  /// paper's 30-minute timeout as min(timeout, deadline); <= 0 disables.
  double deadline_seconds = -1.0;
};

/// One client's execution state against a shared database: a private
/// buffer-pool view and a private simulated clock.
///
/// The paper's timing model is deterministic *given the buffer state*, and
/// the buffer state is what concurrent queries would otherwise scramble. A
/// session therefore owns its pool view: the queries of one session see
/// exactly the warm-cache evolution they would see running alone, no matter
/// how many other sessions run in parallel — per-session timings stay
/// deterministic and reproducible.
///
/// A session is single-threaded (its pool view is not synchronized); the
/// WorkloadService serializes each session's jobs in submission order and
/// only runs *different* sessions concurrently.
class Session {
 public:
  Session(const Database* db, SessionOptions options = {});

  /// Executes one query on this session's pool view, advancing the
  /// session's simulated clock. `deadline_seconds` (> 0) tightens the
  /// session default for this call; `cancel` is polled at every executor
  /// safe point. Timeouts (including deadline trips) are reported as
  /// QueryResult::timed_out, not errors, mirroring the sequential runner.
  Result<QueryResult> Execute(const std::string& sql,
                              double deadline_seconds = -1.0,
                              CancellationToken cancel = {});

  /// Drops the session's pool view back to cold (counters reset too).
  void ClearCache() { pool_.Clear(); }

  /// Sum of simulated seconds across every query this session ran
  /// (timed-out queries contribute the clamped timeout, the paper's
  /// lower-bound convention). The counters are atomics only so that
  /// monitoring threads may read them while the session's single executing
  /// thread advances them.
  double clock_seconds() const {
    return clock_seconds_.load(std::memory_order_relaxed);
  }
  uint64_t queries_run() const {
    return queries_run_.load(std::memory_order_relaxed);
  }
  uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  BufferPool* pool() { return &pool_; }
  const Database* db() const { return db_; }
  const SessionOptions& options() const { return options_; }

 private:
  // Deliberately no Mutex / TB_GUARDED_BY here: the service's strand
  // invariant means at most one thread executes inside a session at a
  // time (WorkloadService::mu_ guards the SessionState that enforces it),
  // and the atomics below are the only fields monitoring threads read
  // concurrently. pool_ and options_ are touched solely by the executing
  // thread.
  const Database* db_;
  SessionOptions options_;
  BufferPool pool_;
  std::atomic<double> clock_seconds_{0.0};
  std::atomic<uint64_t> queries_run_{0};
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace tabbench

#endif  // TABBENCH_SERVICE_SESSION_H_
