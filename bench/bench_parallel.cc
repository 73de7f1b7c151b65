// Wall-clock ablation for inter-query parallelism: runs the same NREF2J
// workload through the sequential runner and through RunWorkloadParallel at
// increasing worker counts. Every parallel run's simulated results must be
// bit-identical to the sequential run (the trace-record/replay determinism
// contract, src/core/runner.h) — only wall-clock may differ.
//
// The sequential workload runs once untimed first. IN-set materializations
// are memoized per storage object (storage/in_set_memo.h), so the first run
// after loading pays for scans every later run skips; warming the memo
// before any timed run makes every mode do the same work.
//
// Knobs: TABBENCH_SCALE, TABBENCH_WORKLOAD (bench_support.h), and
// TABBENCH_WORKERS (max worker count to sweep to, default 8).
// `--bench-json <path>` additionally writes the sweep's best point as a
// BENCH_*.json perf-trajectory record (bench_support.h).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_support.h"
#include "core/runner.h"
#include "core/sampling.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace tabbench;
  using namespace tabbench::bench;
  using Clock = std::chrono::steady_clock;

  const std::string bench_json = TakeBenchJsonArg(&argc, argv);

  std::printf("=== Parallel workload execution: wall-time vs workers ===\n");

  auto db = MakeNrefDb();
  if (!db) return 1;
  QueryFamily family = GenerateNref2J(db->catalog(), db->stats());
  auto sampled = SampleFamily(family, db.get(), WorkloadSize(), /*seed=*/7);
  if (!sampled.ok()) {
    std::printf("sampling failed: %s\n", sampled.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string> sql = sampled->Sql();
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("workload: %zu NREF2J queries, scale 1/%.0f, %u core%s\n",
              sql.size(), ScaleInverse(), cores, cores == 1 ? "" : "s");
  if (cores <= 1) {
    std::printf("(single core: workers time-slice one CPU, so no speedup "
                "is expected here —\n this run checks determinism and "
                "measures the sequential replay floor)\n");
  }
  std::printf("\n");

  RunOptions opts;
  opts.collect_estimates = true;

  if (auto warm = RunWorkload(db.get(), sql, opts); !warm.ok()) {
    std::printf("warm-up run failed: %s\n", warm.status().ToString().c_str());
    return 1;
  }
  auto t0 = Clock::now();
  auto seq = RunWorkload(db.get(), sql, opts);
  auto t1 = Clock::now();
  if (!seq.ok()) {
    std::printf("sequential run failed: %s\n",
                seq.status().ToString().c_str());
    return 1;
  }
  const double seq_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("%-12s %10.1f ms   (%zu timeouts, total %.1f sim-s)\n",
              "sequential", seq_ms, seq->timeouts,
              seq->total_clamped_seconds);

  size_t max_workers = 8;
  if (const char* w = std::getenv("TABBENCH_WORKERS")) {
    max_workers = static_cast<size_t>(std::atoi(w));
  }
  double best_ms = 0.0;
  size_t best_workers = 1;
  for (size_t workers = 1; workers <= max_workers; workers *= 2) {
    ThreadPool pool(workers);
    ParallelOptions par;
    par.pool = &pool;
    auto p0 = Clock::now();
    auto parallel = RunWorkloadParallel(db.get(), sql, par, opts);
    auto p1 = Clock::now();
    if (!parallel.ok()) {
      std::printf("parallel run failed: %s\n",
                  parallel.status().ToString().c_str());
      return 1;
    }
    const double par_ms =
        std::chrono::duration<double, std::milli>(p1 - p0).count();

    bool identical = parallel->timings.size() == seq->timings.size() &&
                     parallel->timeouts == seq->timeouts &&
                     parallel->total_clamped_seconds ==
                         seq->total_clamped_seconds;
    for (size_t i = 0; identical && i < seq->timings.size(); ++i) {
      identical = parallel->timings[i].seconds == seq->timings[i].seconds &&
                  parallel->timings[i].timed_out == seq->timings[i].timed_out;
    }
    for (size_t i = 0; identical && i < seq->estimates.size(); ++i) {
      identical = parallel->estimates[i] == seq->estimates[i];
    }
    std::printf("%zu worker%-5s %10.1f ms   speedup %4.2fx   results %s\n",
                workers, workers == 1 ? "" : "s", par_ms, seq_ms / par_ms,
                identical ? "bit-identical" : "DIVERGED (bug!)");
    if (!identical) return 1;
    if (best_ms == 0.0 || par_ms < best_ms) {
      best_ms = par_ms;
      best_workers = workers;
    }
  }

  if (!bench_json.empty()) {
    BenchJsonReport report;
    report.name = "parallel_nref2j_inter_query";
    report.wall_seconds = best_ms / 1e3;
    report.queries_per_second =
        best_ms > 0.0 ? static_cast<double>(sql.size()) / (best_ms / 1e3)
                      : 0.0;
    report.speedup_vs_serial = best_ms > 0.0 ? seq_ms / best_ms : 1.0;
    report.thread_count = best_workers;
    Status st = WriteBenchJsonReport(bench_json, report);
    if (!st.ok()) {
      std::printf("bench-json write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s (best: %zu workers, %.2fx vs sequential)\n",
                bench_json.c_str(), best_workers,
                best_ms > 0.0 ? seq_ms / best_ms : 1.0);
  }
  return 0;
}
