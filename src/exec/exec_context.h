#ifndef TABBENCH_EXEC_EXEC_CONTEXT_H_
#define TABBENCH_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/trace_event.h"

namespace tabbench {

/// Cost-model parameters shared by the executor (which *charges* them to
/// simulated time) and the optimizer (which *predicts* them).
///
/// The defaults reproduce the paper's hardware envelope at our 1/100 data
/// scale: databases are scaled down ~100x, so the per-page I/O charge is
/// scaled up 100x from a 2005-era 0.5 ms sequential page read. A full scan
/// of the scaled Neighboring_seq (787 K rows) then costs the same simulated
/// minutes the paper's 78.7 M-row scans cost in wall-clock, and the 30-minute
/// timeout bites the same queries. See DESIGN.md §3 (substitutions).
struct CostParams {
  /// Simulated seconds per *sequential* page fetched from disk (buffer-pool
  /// miss during a scan). This charge is scaled with the data (DESIGN.md
  /// §3): one scaled page stands for `scale_inverse` real pages of
  /// streaming.
  double page_io_seconds = 0.05;
  /// Simulated seconds per *random* page fetched from disk (index descent,
  /// leaf probe, heap row fetch). This is a real 2005 seek+rotate and is
  /// NOT scaled — a probe touches O(height) pages regardless of how the
  /// data was scaled down.
  double random_io_seconds = 0.006;
  /// Simulated seconds per tuple passing through an operator.
  double cpu_tuple_seconds = 2e-6;
  /// Extra simulated seconds per hash-table insert or probe.
  double cpu_hash_seconds = 1e-6;
  /// Memory available to a single hash table before it spills, in pages.
  /// Beyond this, every extra page of hash data charges a write + a read.
  size_t work_mem_pages = 256;
  /// Per-query timeout: "a timeout limit of 30 minutes is set for running
  /// each query" (Section 4.1).
  double timeout_seconds = 1800.0;
};

/// TraceEvent / AccessTrace live in util/trace_event.h (the run journal
/// serializes them from below this layer); ExecContext records them and
/// ReplayTrace consumes them here.

/// Replays a recorded trace against `pool`, applying the same charges in
/// the same order (and the same floating-point operation shapes) the live
/// executor would, and aborting at the first recorded timeout check whose
/// accumulated simulated time exceeds `params.timeout_seconds`. The pool is
/// left exactly as a live (timeout-enforced) execution would leave it.
struct ReplayOutcome {
  double sim_seconds = 0.0;  // clamped to the timeout when timed_out
  uint64_t pages_read = 0;
  bool timed_out = false;
};
/// `start_seconds` seeds the replay clock: a retried attempt resumes the
/// query's cumulative simulated time (prior attempts + backoff charges), and
/// the replay must apply its FP additions to that same running value to stay
/// bit-identical with the serial run. The timeout compares against the
/// cumulative clock, so it bounds the whole retry loop, not one attempt.
ReplayOutcome ReplayTrace(const AccessTrace& trace, BufferPool* pool,
                          const CostParams& params, double start_seconds);
inline ReplayOutcome ReplayTrace(const AccessTrace& trace, BufferPool* pool,
                                 const CostParams& params) {
  return ReplayTrace(trace, pool, params, 0.0);
}

/// Per-query execution state: routes every page access through the buffer
/// pool, accumulates simulated elapsed time, and trips the timeout.
///
/// Concurrency contract: an ExecContext (and the BufferPool it routes to)
/// belongs to one thread at a time. Concurrent query execution gives every
/// session its *own* context + pool view over the shared read-only storage
/// (see src/service/session.h); the engine's shared pool is only ever
/// advanced single-threaded.
class ExecContext {
 public:
  ExecContext(BufferPool* pool, CostParams params)
      : pool_(pool), params_(params) {}

  /// Declares a *sequential* access to `id`: LRU bookkeeping plus a
  /// streaming I/O charge on miss.
  void TouchPage(PageId id) {
    if (trace_) trace_->push_back({TraceEvent::Kind::kTouchSeq, id});
    if (!pool_->Touch(id)) {
      ++pages_read_;
      sim_time_ += params_.page_io_seconds;
    }
  }

  /// Declares a *random* access to `id` (probe, fetch): LRU bookkeeping
  /// plus a seek-priced charge on miss.
  void TouchPageRandom(PageId id) {
    if (trace_) trace_->push_back({TraceEvent::Kind::kTouchRandom, id});
    if (!pool_->Touch(id)) {
      ++pages_read_;
      sim_time_ += params_.random_io_seconds;
    }
  }

  /// Charges pure I/O without buffer-pool interaction (spill writes/reads).
  void ChargeIoPages(uint64_t n) {
    if (trace_) trace_->push_back({TraceEvent::Kind::kIoPages, n});
    pages_read_ += n;
    sim_time_ += static_cast<double>(n) * params_.page_io_seconds;
  }

  void ChargeTuples(uint64_t n) {
    if (trace_) trace_->push_back({TraceEvent::Kind::kTuples, n});
    tuples_ += n;
    sim_time_ += static_cast<double>(n) * params_.cpu_tuple_seconds;
  }

  void ChargeHashOps(uint64_t n) {
    if (trace_) trace_->push_back({TraceEvent::Kind::kHashOps, n});
    sim_time_ += static_cast<double>(n) * params_.cpu_hash_seconds;
  }

  bool TimedOut() const {
    return enforce_timeout_ && sim_time_ > params_.timeout_seconds;
  }

  /// OK; Cancelled once the context's token is revoked; Timeout once the
  /// simulated clock passes the limit. Every call site is a safe abort
  /// point, which makes this the cancellation poll — and the surfacing
  /// point for faults latched mid-operation by TB_FAULT_TRIGGER sites.
  /// Timeout is tested before the latched fault, so a query that would
  /// time out anyway reports the timeout in serial and replayed runs alike.
  Status CheckTimeout() const {
    if (trace_) RecordCheck();
    if (cancel_.cancelled()) return Status::Cancelled("query cancelled");
    if (TimedOut()) return Status::Timeout("query exceeded timeout");
    if (record_budget_ > 0.0 && sim_time_ > record_budget_) {
      return Status::Timeout("record budget exceeded");
    }
    if (FaultInjectionArmed()) {
      Status injected = FaultRegistry::TakePending();
      if (!injected.ok()) return injected;
    }
    return Status::OK();
  }

  /// Advances simulated time by a retry backoff delay. Deliberately NOT a
  /// trace event: the parallel runner re-applies backoff at attempt
  /// boundaries via ReplayTrace's start_seconds, so recording it here would
  /// double-charge the replay.
  void ChargeBackoff(double seconds) { sim_time_ += seconds; }

  /// Attaches a cooperative cancellation token; CheckTimeout() fails with
  /// Cancelled once it is revoked.
  void set_cancellation_token(CancellationToken token) {
    cancel_ = std::move(token);
  }

  /// Directs every subsequent charge into `trace` (nullptr stops
  /// recording). Recording does not change any charge or timing.
  void set_trace(AccessTrace* trace) { trace_ = trace; }

  /// When disabled, the timeout never trips (CheckTimeout still records its
  /// abort points into the trace). Trace-recording runs disable enforcement
  /// so the *full* charge sequence is captured; the replay re-applies the
  /// timeout at the recorded check points.
  void set_enforce_timeout(bool enforce) { enforce_timeout_ = enforce; }

  /// Aborts execution (as a timeout) once simulated time passes `budget`,
  /// independent of set_enforce_timeout(). Trace-recording runs use this to
  /// avoid executing doomed queries to completion: an LRU replay of the
  /// trace from *any* starting pool saves at most `pool capacity` first-
  /// touch hits versus the cold recording run, so once the cold clock is
  /// past timeout + capacity * max_io_cost every replay is guaranteed to
  /// trip within the recorded prefix (see RunWorkloadParallel). 0 disables.
  void set_record_budget(double budget) { record_budget_ = budget; }

  double sim_time() const { return sim_time_; }
  uint64_t pages_read() const { return pages_read_; }
  uint64_t tuples_processed() const { return tuples_; }
  const CostParams& params() const { return params_; }

 private:
  /// Trace bookkeeping for CheckTimeout(). Two rewrites keep traces small
  /// without changing what a replay computes:
  ///  - a check right after a single-unit tuple/hash charge folds the pair
  ///    into a counted kUnitTuplesChecked/kUnitHashChecked event (the
  ///    executor charges per tuple, so these runs dominate trace volume);
  ///  - consecutive checks with no intervening charge collapse — and a
  ///    coalesced event already ends on a check, so one directly after it
  ///    is dropped too. Comparisons repeat bit-identically; no FP state
  ///    changes between them.
  void RecordCheck() const {
    if (!trace_->empty()) {
      TraceEvent& back = trace_->back();
      if (back.kind == TraceEvent::Kind::kTimeoutCheck ||
          back.kind == TraceEvent::Kind::kUnitTuplesChecked ||
          back.kind == TraceEvent::Kind::kUnitHashChecked) {
        return;
      }
      if (back.arg == 1 && (back.kind == TraceEvent::Kind::kTuples ||
                            back.kind == TraceEvent::Kind::kHashOps)) {
        TraceEvent::Kind merged = back.kind == TraceEvent::Kind::kTuples
                                      ? TraceEvent::Kind::kUnitTuplesChecked
                                      : TraceEvent::Kind::kUnitHashChecked;
        trace_->pop_back();
        if (!trace_->empty() && trace_->back().kind == merged) {
          ++trace_->back().arg;
        } else {
          trace_->push_back({merged, 1});
        }
        return;
      }
    }
    trace_->push_back({TraceEvent::Kind::kTimeoutCheck, 0});
  }

  BufferPool* pool_;
  CostParams params_;
  CancellationToken cancel_;
  AccessTrace* trace_ = nullptr;
  bool enforce_timeout_ = true;
  double record_budget_ = 0.0;
  double sim_time_ = 0.0;
  uint64_t pages_read_ = 0;
  uint64_t tuples_ = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_EXEC_EXEC_CONTEXT_H_
