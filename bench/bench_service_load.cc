// Open-loop overload harness for the sharded serving layer (DESIGN.md §7):
// arrivals follow a seeded Poisson (or heavy-tailed Pareto) process whose
// rate is swept well past saturation, each arrival drawn from millions of
// simulated client sessions that hash down onto a bounded domain space and
// route through the ShardRouter. Because the generator never waits for
// completions before the next arrival (open loop), offered load keeps
// pressing when the service saturates — exactly the regime where the
// degradation ladder (priority shedding, then quarantine + re-route) must
// hold the goal-satisfaction curve up instead of collapsing.
//
// Per offered-load level the harness prints the G(x)-style curve point:
// completed throughput, goal-satisfaction fraction (wall latency under the
// goal for the fraction the paper's G(x) would count), rejection/shed rates,
// and the router's latency percentiles from the per-shard streaming digests.
//
// Chaos mode (TABBENCH_LOAD_CHAOS=1, or any armed TABBENCH_FAULTS schedule)
// kills shard 1 mid-sweep and then *audits the router journal*: every
// admitted submission must have exactly one terminal-outcome record (the
// no-lost-job invariant) and the killed shard must re-admit before exit.
//
// Knobs (all env, defaults sized for a CI smoke run):
//   TABBENCH_LOAD_SHARDS         worker shards            (default 2)
//   TABBENCH_LOAD_SHARD_WORKERS  threads per shard        (default 2)
//   TABBENCH_LOAD_DOMAINS        affinity domains         (default 32)
//   TABBENCH_LOAD_SESSIONS       simulated session space  (default 1000000)
//   TABBENCH_LOAD_QPS            first offered rate       (default 50)
//   TABBENCH_LOAD_STEPS          levels, doubling rate    (default 3)
//   TABBENCH_LOAD_ARRIVALS       arrivals per level       (default 150)
//   TABBENCH_LOAD_GOAL_MS        per-query wall goal      (default 250)
//   TABBENCH_LOAD_TAIL           "exp" | "pareto"         (default exp)
//   TABBENCH_LOAD_CHAOS          1 = kill a shard mid-run (default 0)
//   TABBENCH_LOAD_SEED           arrival-process seed     (default 42)
//
// `--bench-json <path>` writes the saturation point (max completed
// throughput across levels) as a BENCH_*.json perf-trajectory record.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "core/sampling.h"
#include "service/shard_router.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/run_journal.h"

namespace {

size_t EnvSize(const char* name, size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const long long parsed = std::atoll(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : def;
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  const double parsed = std::atof(v);
  return parsed > 0.0 ? parsed : def;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tabbench;
  using namespace tabbench::bench;
  using Clock = std::chrono::steady_clock;

  const std::string bench_json = TakeBenchJsonArg(&argc, argv);

  const size_t shards = EnvSize("TABBENCH_LOAD_SHARDS", 2);
  const size_t shard_workers = EnvSize("TABBENCH_LOAD_SHARD_WORKERS", 2);
  const size_t domains = EnvSize("TABBENCH_LOAD_DOMAINS", 32);
  const size_t sessions = EnvSize("TABBENCH_LOAD_SESSIONS", 1000000);
  const double base_qps = EnvDouble("TABBENCH_LOAD_QPS", 50.0);
  const size_t steps = EnvSize("TABBENCH_LOAD_STEPS", 3);
  const size_t arrivals = EnvSize("TABBENCH_LOAD_ARRIVALS", 150);
  const double goal_seconds = EnvDouble("TABBENCH_LOAD_GOAL_MS", 250.0) / 1e3;
  const char* tail_env = std::getenv("TABBENCH_LOAD_TAIL");
  const bool pareto = tail_env != nullptr && std::string(tail_env) == "pareto";
  const bool chaos = EnvSize("TABBENCH_LOAD_CHAOS", 0) == 1 ||
                     FaultInjectionArmed();
  const uint64_t seed = EnvSize("TABBENCH_LOAD_SEED", 42);

  std::printf("=== Open-loop overload: sharded WorkloadService ===\n");

  auto db = MakeNrefDb();
  if (!db) return 1;
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  auto sampled = SampleFamily(family, db.get(), WorkloadSize(), /*seed=*/7);
  if (!sampled.ok()) {
    std::printf("sampling failed: %s\n", sampled.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> sql = sampled->Sql();

  const std::string journal_dir = "bench_service_load_journal";
  ::mkdir(journal_dir.c_str(), 0755);

  ShardRouterOptions ropts;
  ropts.shards = shards;
  ropts.shard.service.workers = shard_workers;
  ropts.shard.service.max_in_flight = 4 * shard_workers;
  // Overload is the *point* here: queue-depth quarantine stays far out so
  // the ladder's first step (shedding) does the work; chaos kills exercise
  // step 2.
  ropts.shard.health.degrade_queue_depth = 2 * shard_workers;
  ropts.shard.health.quarantine_queue_depth = 64 * shard_workers;
  ropts.shard.health.quarantine_cooldown_seconds = 0.05;
  ropts.max_in_flight = 16 * shards * shard_workers;
  ropts.journal_dir = journal_dir;
  ropts.eval_every = 8;
  ShardRouter router(db.get(), ropts);

  std::printf(
      "%zu shards x %zu workers, %zu domains, %zu simulated sessions, "
      "%s arrivals, goal %.0f ms, chaos %s\n\n",
      shards, shard_workers, domains, sessions, pareto ? "pareto" : "poisson",
      goal_seconds * 1e3, chaos ? "ON" : "off");
  std::printf("%-12s %-10s %-10s %-7s %-7s %-7s %-9s %-9s %s\n", "offered/s",
              "done/s", "G(goal)", "reject", "shed", "fail", "p95 ms",
              "p99 ms", "health");

  Rng rng(seed);
  uint64_t admitted_total = 0;
  double best_done_qps = 0.0;
  size_t best_level_threads = shards * shard_workers;
  double total_wall = 0.0;
  bool killed = false;

  double offered = base_qps;
  for (size_t level = 0; level < steps; ++level, offered *= 2.0) {
    struct Outcome {
      std::future<Result<QueryResult>> future;
      Clock::time_point submitted;
      bool admitted = false;
    };
    std::vector<Outcome> outs;
    outs.reserve(arrivals);

    const auto level_start = Clock::now();
    auto next_arrival = level_start;
    for (size_t i = 0; i < arrivals; ++i) {
      // Open loop: the next arrival time never depends on completions.
      const double u = std::max(1e-12, rng.UniformDouble());
      const double gap = pareto
                             // Pareto(alpha=1.5) scaled to the same mean.
                             ? (1.0 / (3.0 * offered)) / std::pow(u, 1.0 / 1.5)
                             : -std::log(u) / offered;
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap));
      std::this_thread::sleep_until(next_arrival);

      // Chaos: kill shard 1 once, a third of the way into the middle level.
      if (chaos && !killed && level == steps / 2 && i == arrivals / 3) {
        router.KillShard(0);
        killed = true;
      }

      const uint64_t session = rng.Uniform(sessions);
      SubmitOptions so;
      so.domain = session % domains;
      so.priority = rng.Bernoulli(0.25) ? 0 : 1;  // a quarter sheddable
      so.job.retry.max_attempts = 2;
      so.job.retry.initial_backoff_seconds = 0.002;
      Outcome o;
      o.submitted = Clock::now();
      o.future = router.Submit(sql[rng.Uniform(sql.size())], so);
      outs.push_back(std::move(o));
    }

    uint64_t done = 0, within_goal = 0, rejected = 0, shed = 0, failed = 0;
    for (Outcome& o : outs) {
      Result<QueryResult> r = o.future.get();
      // Drained in submission order, so this sojourn is an upper bound when
      // completions reorder across domains — G(goal) reads conservative,
      // never flattering. The p95/p99 columns come from the router's
      // per-shard digests, which time each job individually.
      const double wall =
          std::chrono::duration<double>(Clock::now() - o.submitted).count();
      if (r.ok()) {
        ++done;
        if (wall <= goal_seconds && !r->timed_out && !r->failed) {
          ++within_goal;
        }
      } else if (r.status().IsUnavailable()) {
        if (RetryAfterHintSeconds(r.status()) > 0.0) {
          ++shed;  // shed / capacity rejections carry the retry hint
        } else {
          ++rejected;
        }
      } else {
        ++failed;
      }
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - level_start).count();
    total_wall += wall_s;
    const RouterStats rs = router.stats();
    admitted_total = rs.submitted;
    const double done_qps = wall_s > 0.0 ? done / wall_s : 0.0;
    if (done_qps > best_done_qps) best_done_qps = done_qps;

    LatencyDigest agg;
    std::string health;
    for (size_t s = 0; s < router.num_shards(); ++s) {
      const LatencyDigest d = router.shard(s)->latency();
      if (d.count > agg.count) agg = d;  // report the busiest shard's tail
      if (!health.empty()) health += "/";
      health += ShardHealthName(router.shard_health(s));
    }
    std::printf("%-12.0f %-10.1f %-10.3f %-7llu %-7llu %-7llu %-9.1f %-9.1f %s\n",
                offered, done_qps,
                outs.empty() ? 0.0
                             : static_cast<double>(within_goal) / outs.size(),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(failed), agg.p95 * 1e3,
                agg.p99 * 1e3, health.c_str());
  }

  // Chaos epilogue: drive probes until the killed shard re-admits.
  int rc = 0;
  if (chaos) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (router.shard_health(0) != ShardHealth::kHealthy &&
           Clock::now() < deadline) {
      router.Tick();
      std::vector<std::future<Result<QueryResult>>> probes;
      for (uint64_t d = 0; d < domains; ++d) {
        SubmitOptions so;
        so.domain = d;
        probes.push_back(router.Submit(sql[0], so));
      }
      for (auto& f : probes) (void)f.get();
    }
    const RouterStats rs = router.stats();
    admitted_total = rs.submitted;
    std::printf("\nchaos: kills=%llu reroutes=%llu probes=%llu "
                "readmissions=%llu failovers=%llu\n",
                static_cast<unsigned long long>(rs.kills),
                static_cast<unsigned long long>(rs.reroutes),
                static_cast<unsigned long long>(rs.probes),
                static_cast<unsigned long long>(rs.readmissions),
                static_cast<unsigned long long>(rs.failovers));
    if (router.shard_health(0) != ShardHealth::kHealthy) {
      std::printf("chaos FAIL: killed shard never re-admitted\n");
      rc = 1;
    }
    if (rs.kills == 0 || rs.readmissions == 0) {
      std::printf("chaos FAIL: expected at least one kill and readmission\n");
      rc = 1;
    }
  }

  if (!router.journal_status().ok()) {
    std::printf("router journal error: %s\n",
                router.journal_status().ToString().c_str());
    rc = 1;
  }
  router.Shutdown();

  // No-lost-job audit over the router journal: every admitted submission
  // must have exactly one terminal-outcome record.
  auto journal = LoadRunJournal(journal_dir + "/router.tbj");
  if (!journal.ok()) {
    std::printf("journal audit FAIL: %s\n",
                journal.status().ToString().c_str());
    rc = 1;
  } else {
    std::set<uint32_t> ordinals;
    for (const JournalQueryRecord& r : journal->records) {
      if (!ordinals.insert(r.query_index).second) {
        std::printf("journal audit FAIL: duplicate ordinal %u\n",
                    r.query_index);
        rc = 1;
      }
    }
    if (journal->records.size() != admitted_total) {
      std::printf(
          "journal audit FAIL: %zu terminal records for %llu admitted jobs\n",
          journal->records.size(),
          static_cast<unsigned long long>(admitted_total));
      rc = 1;
    } else {
      std::printf("\njournal audit OK: %zu admitted jobs, %zu terminal "
                  "records, %zu routing decisions\n",
                  journal->records.size(), journal->records.size(),
                  journal->events.size());
    }
  }

  if (!bench_json.empty()) {
    BenchJsonReport report;
    report.name = "service_overload_saturation";
    report.queries_per_second = best_done_qps;
    report.wall_seconds = total_wall;
    report.speedup_vs_serial = 1.0;  // throughput record, not a speedup
    report.thread_count = best_level_threads;
    Status st = WriteBenchJsonReport(bench_json, report);
    if (!st.ok()) {
      std::printf("bench-json write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (saturation %.1f q/s)\n", bench_json.c_str(),
                best_done_qps);
  }
  return rc;
}
