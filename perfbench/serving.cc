// service_closed_loop: the sharded serving layer under a closed loop.
//
// One generator thread keeps nproc - 1 requests outstanding against a
// ShardRouter with one shard of nproc - 1 workers, on a database with 1C
// built; with the generator that is one busy thread per processor, so the
// workers do not queue for a processor behind it. (With two shards of
// nproc/2 workers, requests queue behind whichever shard their domains
// happen to crowd onto: the median latency then swung between 21 and 39 ms
// over ten runs, too wide to gate on.)
// Requests come from a fixed pool of sampled NREF2J and NREF3J queries (16
// of each, minus any that exceed the 30-minute simulated limit on a cold
// pool, since a serving client gets no answer from those) over 32 affinity
// domains. The seed shuffles the request order: every block of pool-size
// requests holds each pool query once and no domain twice, so the amount
// of work in a run does not depend on the seed. This is the only workload
// where service/, the sessions' private pools and concurrent RunWithContext
// carry the load.
//
// Each request is timed from its Submit to the completion of its own future:
// the generator polls every outstanding future instead of draining them in
// submission order, so a slow request never inflates a fast one. How late
// the generator ran (completion seen -> next submit) is reported too.
// Every answer is compared with a serial reference execution.
//
// A round of this workload is one block: round_s is the median, over the
// blocks whose requests all completed in the measured part, of the block's
// mean request latency. Every block is the same mix, so this stays put; the
// median over single requests sits where the fast NREF2J and the slow
// NREF3J latencies meet and jumped between ~9.5 and ~12.5 ms run to run.
// Per-request percentiles are per-layer metrics of the traced run.

#include <algorithm>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/configurations.h"
#include "core/nref_families.h"
#include "core/sampling.h"
#include "service/shard_router.h"
#include "sql/binder.h"
#include "util/rng.h"

namespace tabperf {
namespace {

using namespace tabbench;

constexpr int kSetups = 3;
constexpr size_t kPerFamily = 16;
constexpr uint64_t kDomains = 32;
constexpr uint64_t kPoolSampleSeed = 77;
/// Completions before measuring starts: the domain sessions' private pools
/// fill during the first blocks.
constexpr size_t kWarmupRequests = 64;

struct PoolQuery {
  std::string sql;
  uint64_t rows_hash = 0;
  double exec_ms = 0.0;  // standalone run on a warm private pool
};

struct LoopOutcome {
  double wall_s = 0.0;  // measured part: first to last measured completion
  uint64_t completed = 0;  // in the measured part
  uint64_t answered = 0;   // warm-up included; all are checked
  uint64_t failed = 0;
  uint64_t timeouts = 0;
  std::vector<double> latency_ms;
  /// Mean latency of each block whose requests all completed in the
  /// measured part, in seconds (see RunServing).
  std::vector<double> block_mean_s;
  std::vector<double> lag_ms;  // completion seen -> replacement submitted
  std::vector<double> wait_ms;  // latency minus standalone execution
  RouterStats router;
};

/// Order-sensitive hash of a query's result rows (Tuple::Hash per row).
uint64_t RowsHash(const std::vector<Tuple>& rows) {
  uint64_t h = rows.size();
  for (const Tuple& row : rows) {
    h = (h ^ row.Hash()) * 1099511628211ULL;
  }
  return h;
}

size_t Workers() {
  return std::max<size_t>(2, std::thread::hardware_concurrency()) - 1;
}

/// Runs the closed loop for `seconds` after the warm-up; `seed` orders the
/// requests. With a tracer, each measured request is a `service.request`
/// span from submit to completion.
LoopOutcome RunLoop(const Database& db, const std::vector<PoolQuery>& pool,
                    uint64_t seed, double seconds, Tracer* t,
                    std::vector<std::string>* mismatches) {
  ShardRouterOptions ropts;
  ropts.shards = 1;
  ropts.shard.service.workers = Workers();
  ShardRouter router(&db, ropts);
  const size_t depth = ropts.shards * ropts.shard.service.workers;

  Rng rng(seed);
  std::vector<size_t> order, domains;
  uint64_t next = 0;
  auto refill_block = [&]() {
    order.resize(pool.size());
    domains.resize(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      order[i] = i;
      domains[i] = i % kDomains;
    }
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
      std::swap(domains[i - 1], domains[rng.Uniform(i)]);
    }
  };

  struct InFlight {
    std::future<Result<QueryResult>> future;
    Clock::time_point submitted;
    size_t query = 0;
    uint64_t ordinal = 0;
  };
  std::vector<InFlight> inflight;
  struct Answer {
    size_t query = 0;
    uint64_t ordinal = 0;
    Status status;
    bool failed = false;
    bool timed_out = false;
    uint64_t rows_hash = 0;
  };
  std::vector<Answer> answers;
  struct Block {
    double latency_sum_ms = 0.0;
    size_t measured = 0;
  };
  std::map<uint64_t, Block> blocks;  // by block index
  LoopOutcome out;
  Clock::time_point measure_start{}, last_done{};
  Clock::time_point end = Clock::time_point::max();
  uint64_t done = 0;
  bool have_seen = false;
  Clock::time_point seen{};

  for (;;) {
    while (inflight.size() < depth && Clock::now() < end) {
      const size_t slot = next % pool.size();
      if (slot == 0) refill_block();
      InFlight f;
      f.query = order[slot];
      f.ordinal = next++;
      SubmitOptions so;
      so.domain = domains[slot];
      f.submitted = Clock::now();
      if (have_seen && done > kWarmupRequests) {
        out.lag_ms.push_back(
            std::chrono::duration<double, std::milli>(f.submitted - seen)
                .count());
      }
      have_seen = false;
      f.future = router.Submit(pool[f.query].sql, so);
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;
    // Sleep until the oldest request completes or 100 us pass, then sweep
    // every outstanding future.
    inflight.front().future.wait_for(std::chrono::microseconds(100));
    for (size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point now = Clock::now();
      InFlight f = std::move(inflight[i]);
      inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(i));
      // Answers are compared after the loop; only their hash is kept.
      Result<QueryResult> r = f.future.get();
      Answer a{f.query, f.ordinal, r.status()};
      if (r.ok()) {
        a.failed = r->failed;
        a.timed_out = r->timed_out;
        a.rows_hash = RowsHash(r->rows);
      }
      answers.push_back(std::move(a));
      seen = now;
      have_seen = true;
      ++done;
      if (done == kWarmupRequests) {
        measure_start = now;
        end = now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
      }
      if (done <= kWarmupRequests) continue;
      const double ms =
          std::chrono::duration<double, std::milli>(now - f.submitted)
              .count();
      last_done = now;
      ++out.completed;
      out.latency_ms.push_back(ms);
      out.wait_ms.push_back(ms - pool[f.query].exec_ms);
      Block& b = blocks[f.ordinal / pool.size()];
      b.latency_sum_ms += ms;
      ++b.measured;
      if (t != nullptr) {
        t->set_request(static_cast<uint32_t>(f.ordinal + 1));
        t->Add("service.request", f.submitted, now);
        t->set_request(0);
      }
    }
  }
  for (const Answer& a : answers) {
    if (!a.status.ok() || a.failed) {
      ++out.failed;
      mismatches->push_back("request " + std::to_string(a.ordinal) +
                            " failed: " +
                            (a.status.ok() ? "censored" : a.status.ToString()));
    } else if (a.timed_out) {
      ++out.timeouts;
    } else if (a.rows_hash != pool[a.query].rows_hash) {
      ++out.failed;
      mismatches->push_back("request " + std::to_string(a.ordinal) +
                            " returned rows that differ from the serial "
                            "reference");
    }
  }
  out.answered = answers.size();
  for (const auto& [index, b] : blocks) {
    if (b.measured == pool.size()) {
      out.block_mean_s.push_back(b.latency_sum_ms / 1e3 / b.measured);
    }
  }
  out.wall_s = std::chrono::duration<double>(last_done - measure_start).count();
  out.router = router.stats();
  router.Shutdown();
  return out;
}

JsonObject LoopJson(const LoopOutcome& o) {
  JsonObject j;
  j.Num("wall_s", o.wall_s)
      .Int("completed", static_cast<int64_t>(o.completed))
      .Int("failed", static_cast<int64_t>(o.failed))
      .Int("timeouts", static_cast<int64_t>(o.timeouts))
      .Int("degrades", static_cast<int64_t>(o.router.degrades))
      .Int("quarantines", static_cast<int64_t>(o.router.quarantines))
      .Nums("latency_ms", o.latency_ms)
      .Nums("lag_ms", o.lag_ms);
  return j;
}

}  // namespace

RunOutput RunServing(const Args& args, Tracer* tracer, Calibration* cal) {
  RunOutput out;
  std::vector<double> setup_s;
  auto db_or = SetUpNref(kSetups, &setup_s, tracer);
  if (!db_or.ok()) {
    out.fatal = "set-up failed: " + db_or.status().ToString();
    return out;
  }
  std::unique_ptr<Database> db = db_or.TakeValue();

  // The request pool: sampled on P (the sampler stratifies by estimated
  // cost there), answered serially on a cold private pool after 1C is
  // built. Those answers are the reference every request is checked with.
  std::vector<std::string> candidates;
  for (const QueryFamily& family :
       {GenerateNref2J(db->catalog(), db->stats()),
        GenerateNref3J(db->catalog(), db->stats())}) {
    auto sampled =
        SampleFamily(family, db.get(), kPerFamily, kPoolSampleSeed);
    if (!sampled.ok()) {
      out.fatal = "sampling failed: " + sampled.status().ToString();
      return out;
    }
    for (const std::string& q : sampled->Sql()) candidates.push_back(q);
  }
  if (auto st = db->ApplyConfiguration(Make1CConfig(db->catalog()));
      !st.ok()) {
    out.fatal = "building 1C failed: " + st.status().ToString();
    return out;
  }
  // Each candidate runs twice on a private pool: cold, for the reference
  // answer (and to drop queries that time out), then warm, as the serving
  // sessions' pools are, for its standalone execution time. With a tracer
  // the warm run goes through one public call per layer.
  std::vector<PoolQuery> pool;
  BufferPool ref_pool(db->options().buffer_pool_pages);
  const CostParams cost = db->options().cost;
  for (const std::string& q : candidates) {
    ref_pool.Clear();
    ExecContext cold = db->MakeSessionContext(&ref_pool, cost);
    Result<QueryResult> r = db->RunWithContext(q, &cold);
    if (!r.ok()) {
      out.fatal = "reference execution failed: " + r.status().ToString();
      return out;
    }
    if (r->timed_out) continue;
    ExecContext warm = db->MakeSessionContext(&ref_pool, cost);
    const auto t0 = Clock::now();
    Status st = [&]() -> Status {
      if (tracer == nullptr) return db->RunWithContext(q, &warm).status();
      {
        Tracer::Scope span(tracer, "sql.parse_bind", /*beside=*/true);
        TB_RETURN_IF_ERROR(ParseAndBind(q, db->catalog()).status());
      }
      PhysicalPlan plan;
      {
        Tracer::Scope span(tracer, "optimizer.plan", /*beside=*/true);
        TB_ASSIGN_OR_RETURN(plan, db->Plan(q));
      }
      Tracer::Scope span(tracer, "exec.execute", /*beside=*/true);
      return ExecutePlan(plan, *db, &warm).status();
    }();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!st.ok()) {
      out.fatal = "reference execution failed: " + st.ToString();
      return out;
    }
    pool.push_back(PoolQuery{q, RowsHash(r->rows), ms});
  }
  if (pool.size() < kDomains / 2) {
    out.fatal = "request pool too small: " + std::to_string(pool.size());
    return out;
  }

  std::vector<std::string> mismatches;
  cal->Sample();
  const LoopOutcome u =
      RunLoop(*db, pool, args.seed, args.seconds, nullptr, &mismatches);
  cal->Sample();
  out.attempted += u.answered;
  out.failed += u.failed;
  std::vector<std::string> rounds;
  for (double s : u.block_mean_s) {
    rounds.push_back(JsonObject().Nums("steps_s", {s}).ToString());
  }
  out.raw.Nums("setup_s", setup_s)
      .Int("pool_queries", static_cast<int64_t>(pool.size()))
      .Int("depth", static_cast<int64_t>(Workers()))
      .Raw("rounds", JsonArray(rounds))
      .Int("ops", static_cast<int64_t>(u.completed))
      .Num("ops_wall_s", u.wall_s)
      .Obj("loop", LoopJson(u));

  if (tracer != nullptr) {
    const LoopOutcome tr =
        RunLoop(*db, pool, args.seed, args.seconds, tracer, &mismatches);
    out.attempted += tr.answered;
    out.failed += tr.failed;
    JsonObject tj = LoopJson(tr);
    tj.Num("untraced_qps", u.completed / u.wall_s)
        .Num("traced_qps", tr.completed / tr.wall_s)
        .Nums("wait_ms", tr.wait_ms)
        .Int("router_completed", static_cast<int64_t>(tr.router.completed))
        .Int("router_rejected", static_cast<int64_t>(tr.router.rejected))
        .Int("router_shed", static_cast<int64_t>(tr.router.shed))
        .Int("router_failovers", static_cast<int64_t>(tr.router.failovers));
    out.raw.Obj("traced", tj);
  }
  for (const std::string& m : mismatches) {
    out.check_failures.push_back(m);
    std::fprintf(stderr, "tabperf: %s\n", m.c_str());
  }
  return out;
}

}  // namespace tabperf
