#include "service/session.h"

#include <algorithm>

#include "util/fault_injection.h"

namespace tabbench {

Session::Session(const Database* db, SessionOptions options)
    : db_(db),
      options_(options),
      pool_(options.pool_pages > 0 ? options.pool_pages
                                   : db->options().buffer_pool_pages) {}

Result<QueryResult> Session::Execute(const std::string& sql,
                                     double deadline_seconds,
                                     CancellationToken cancel) {
  // No FaultScope is opened here: the retry loop that owns this call
  // (WorkloadService) opens one spanning all attempts, so fire-on-Nth
  // schedules converge across retries instead of re-firing every attempt.
  TB_FAULT_POINT("service.session_execute");
  CostParams params = db_->options().cost;
  double deadline = deadline_seconds > 0.0 ? deadline_seconds
                                           : options_.deadline_seconds;
  if (deadline > 0.0) {
    params.timeout_seconds = std::min(params.timeout_seconds, deadline);
  }
  ExecContext ctx = db_->MakeSessionContext(&pool_, params);
  ctx.set_cancellation_token(std::move(cancel));
  Result<QueryResult> res = db_->RunWithContext(sql, &ctx);
  if (res.ok()) {
    queries_run_.fetch_add(1, std::memory_order_relaxed);
    clock_seconds_.store(clock_seconds() + res->sim_seconds,
                         std::memory_order_relaxed);  // single writer
    if (res->timed_out) timeouts_.fetch_add(1, std::memory_order_relaxed);
  }
  return res;
}

}  // namespace tabbench
