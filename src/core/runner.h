#ifndef TABBENCH_CORE_RUNNER_H_
#define TABBENCH_CORE_RUNNER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cfc.h"
#include "engine/database.h"
#include "util/thread_pool.h"
#include "util/cancellation.h"
#include "util/retry.h"

namespace tabbench {

struct RunOptions {
  /// Runs per query; timings are averaged. The paper performs three runs of
  /// non-timeout queries and one of timeout queries (Section 4.1). Our
  /// executor is deterministic given the buffer state, so one run is the
  /// default; repetitions exercise warm-cache behavior.
  int repetitions = 1;
  /// Collect E(q, C) optimizer estimates alongside the executions.
  bool collect_estimates = false;
  /// Clear the buffer pool before the workload (cold start).
  bool cold_start = true;
  /// Transient-error retry (Status::IsTransient) per query. Backoff is
  /// charged to the query's *simulated* clock, so retried queries pay for
  /// their retries in the CFC, and the 30-minute timeout bounds the whole
  /// retry loop, not each attempt. Default: no retry.
  RetryPolicy retry;
  /// Added to each query's index to form its FaultScope seed, so distinct
  /// workload runs can draw distinct (but reproducible) fault schedules.
  uint64_t fault_scope_salt = 0;
  /// Durable crash recovery (util/run_journal.h): when non-empty, every
  /// completed query's outcome — and the per-attempt charge traces that
  /// make it replayable — is appended and fsync'd to this file before the
  /// next query starts, so a process death loses at most the query in
  /// flight. Empty (the default) journals nothing and records no traces.
  std::string journal_path;
  /// With journal_path set: if the file already holds a journal written
  /// under these same options for this same workload, its completed prefix
  /// is *replayed* (restoring the simulated clock and buffer-pool state bit
  /// for bit via the trace-replay machinery, no query re-execution) and the
  /// run continues from the first unjournaled query, appending to the same
  /// file. A missing file starts a fresh journal; an incompatible one is
  /// refused with kInvalidArgument. Bit-identity of a resumed run requires
  /// cold_start (the interrupted process's warm pool died with it).
  bool resume = false;
  /// Free-form provenance stamped into a fresh journal's header (database
  /// kind, scale, configuration label, …) so `tabbench resume <journal>`
  /// can rebuild the run with no other inputs.
  std::map<std::string, std::string> journal_metadata;
};

/// The ResumeFrom(journal) option: journal to `path` and pick up any
/// completed prefix already recorded there.
inline RunOptions ResumeFrom(std::string path, RunOptions base = {}) {
  base.journal_path = std::move(path);
  base.resume = true;
  return base;
}

/// Final error of one isolated (censored) query.
struct QueryFailure {
  size_t query_index = 0;
  int attempts = 1;  // executions performed, including the first
  Status status;     // the non-retryable / retry-exhausting error
};

/// One workload executed on one configuration.
struct WorkloadResult {
  std::vector<QueryTiming> timings;   // per query, paper's A(q_k, C)
  std::vector<double> estimates;      // per query E(q_k, C) when collected
  size_t timeouts = 0;
  /// Queries whose retries were exhausted (or that hit a non-retryable
  /// error) and were censored at the timeout cost — the paper's treatment
  /// of the advisor that "fails outright" (Section 5). Every failure also
  /// counts as a timeout (its timing enters the t_out bin).
  size_t failures = 0;
  /// Total retry attempts across the workload (extra executions beyond
  /// each query's first).
  size_t retries = 0;
  /// Per-query detail for the failures, in workload order.
  std::vector<QueryFailure> failure_details;
  /// Sum over queries of min(time, timeout) — the paper's conservative
  /// lower-bound total (Section 4.3).
  double total_clamped_seconds = 0.0;

  CumulativeFrequency Cfc() const {
    return CumulativeFrequency::FromTimings(timings);
  }
};

/// Runs every query of the workload sequentially on the database's current
/// configuration. Queries that trip the 30-minute simulated timeout are
/// recorded in the `t_out` bin, not errors; queries that *fail* (transient
/// errors retried per RunOptions::retry until exhausted, or any other
/// non-cancellation error) are likewise isolated — censored at the timeout
/// cost with detail in `failure_details` — so a workload run always
/// completes. Only Status::kCancelled aborts the run.
Result<WorkloadResult> RunWorkload(Database* db,
                                   const std::vector<std::string>& sql,
                                   const RunOptions& opts = {});

/// Optimizer estimates only (no execution): E(q, C_current) per query.
Result<std::vector<double>> EstimateWorkload(
    Database* db, const std::vector<std::string>& sql);

/// What-if estimates H(q, C_hyp, C_current) per query.
Result<std::vector<double>> HypotheticalWorkload(
    Database* db, const std::vector<std::string>& sql,
    const Configuration& hypothetical, const HypotheticalRules& rules);

/// Knobs for the parallel front-ends below.
struct ParallelOptions {
  /// Worker pool that executes the fan-out. nullptr degrades every
  /// parallel front-end to its sequential twin (handy for A/B runs).
  ThreadPool* pool = nullptr;
  /// Queries traced in flight per batch of RunWorkloadParallel; bounds
  /// peak trace memory. 0 picks 4x the pool width.
  size_t window = 0;
  /// Cancels the whole run (the Result carries Status::Cancelled).
  CancellationToken cancel;
};

/// Parallel twin of RunWorkload, *bit-identical* in output and in the
/// shared buffer pool's final state.
///
/// Sequential timings depend on the shared pool's warm-cache evolution
/// across queries, which naive parallelism scrambles. The key invariant
/// (see TraceEvent in exec/exec_context.h) is that a query's *charge
/// sequence* — which pages it touches, in what order, and every CPU/spill
/// charge — does not depend on buffer state; only the hit/miss pricing
/// does. So:
///   1. record phase (parallel): workers execute queries concurrently,
///      each against a private cold session pool with timeout enforcement
///      off, recording full charge traces;
///   2. replay phase (sequential, cheap): the traces are replayed in
///      workload order through the database's real pool — pure LRU walks,
///      no query re-execution — re-pricing every touch against the exact
///      pool state the sequential runner would have had, and re-applying
///      the timeout at the recorded check points.
/// The expensive work (planning, joins, aggregation) parallelizes; the
/// order-sensitive part costs one LRU pass per query.
Result<WorkloadResult> RunWorkloadParallel(Database* db,
                                           const std::vector<std::string>& sql,
                                           const ParallelOptions& par,
                                           const RunOptions& opts = {});

/// Parallel twin of EstimateWorkload (planning is read-only and
/// order-independent, so this is a plain deterministic fan-out).
Result<std::vector<double>> EstimateWorkloadParallel(
    Database* db, const std::vector<std::string>& sql,
    const ParallelOptions& par);

/// Parallel twin of HypotheticalWorkload — the advisors' what-if loop is
/// built from exactly these calls.
Result<std::vector<double>> HypotheticalWorkloadParallel(
    Database* db, const std::vector<std::string>& sql,
    const Configuration& hypothetical, const HypotheticalRules& rules,
    const ParallelOptions& par);

}  // namespace tabbench

#endif  // TABBENCH_CORE_RUNNER_H_
