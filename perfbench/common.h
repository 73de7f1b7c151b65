// Shared pieces of the tabperf benchmark program: command-line arguments, the
// raw-result JSON writer, the in-memory span recorder of traced runs, and the
// NREF set-up every workload starts from.
//
// tabperf prints one JSON object of *raw* measurements (per-round times,
// per-request latencies, counters, paper-claim outputs) as its last line.
// run.py turns them into the benchmark's metrics; statistics live there so
// they can be tested without a build.
#ifndef TABPERF_COMMON_H_
#define TABPERF_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace tabperf {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// mutation_churn stops after this many streams even if time is left
  /// (0: no cap), so that every stream it runs has recorded expectations.
  uint64_t max_streams = 0;
  /// Directory for run artefacts (journals, span dumps).
  std::string out_dir = ".";
};

/// Minimal JSON object writer; keys are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Nums(const std::string& key, const std::vector<double>& v);
  JsonObject& Ints(const std::string& key, const std::vector<int64_t>& v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  JsonObject& Obj(const std::string& key, const JsonObject& o) {
    return Raw(key, o.ToString());
  }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(const std::string& s);
/// A JSON array of already-serialized values.
std::string JsonArray(const std::vector<std::string>& values);

/// Spans of a traced run: name (`<layer>.<call>`), start, end, the span that
/// caused it and the request it belongs to. Spans stay in memory and are
/// written out once, when the run ends. A span marked `beside` times work
/// the untraced run does not do (a call repeated next to the query to see
/// its cost); run.py leaves it out of the tracing-overhead figure.
///
/// One Tracer is used from one thread at a time.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t request = 0;
    bool beside = false;
  };

  /// RAII span; nests under the innermost open span of the same tracer.
  /// A null tracer makes it a no-op, so traced and untraced code share one
  /// path.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, bool beside = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t id_ = -1;
  };

  /// Subsequent spans carry this request id (0 = none).
  void set_request(uint32_t r) { request_ = r; }
  /// Records a span whose interval was measured elsewhere (another thread).
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, bool beside = false);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one tab-separated line per span:
  /// id parent request beside name start_ns end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t request_ = 0;
};

/// Measures the host's speed between a workload's rounds. It times a fixed
/// piece of work that uses no tabbench code and allocates nothing, so the
/// program cannot change it: dependent loads over 16 MiB and over 512 KiB,
/// hash-table inserts and probes, a sort and integer arithmetic. The shared
/// host this benchmark runs on changes speed by up to 2x within minutes,
/// and every workload's wall time moves with it. Memory-bound work slows
/// most (in one episode 2.4x for the 16 MiB chase, 1.2-1.5x for the
/// cache-resident parts, 1.65-1.9x for the workloads), so the 16 MiB chase
/// takes more than half of the work's time. run.py scales the workload's
/// times by the median sample, so its metrics follow the program rather
/// than the host. Workloads sample after set-up and after each round, never
/// on an idle processor: one that has just been idle runs faster for a
/// moment.
class Calibration {
 public:
  Calibration();
  /// Does the work once untimed, then `reps` times more, recording each
  /// wall time.
  void Sample(int reps = 5);
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<uint32_t> far_;   // one cycle through every slot, 16 MiB
  std::vector<uint32_t> near_;  // the same, 512 KiB
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> table_;  // open addressing, 0 = empty
  std::vector<uint64_t> sorted_;
  std::vector<double> samples_;
  volatile uint64_t sink_ = 0;
};

/// Generates + loads the NREF database at scale 1/400 with the paper
/// generator's fixed data seed (`reps` times, keeping the last database).
/// Every generation's wall time lands in `setup_s`. With a tracer, each
/// generation is a `datagen.generate` span and one extra
/// `stats.collect` span times Database::CollectStatistics on the result.
tabbench::Result<std::unique_ptr<tabbench::Database>> SetUpNref(
    int reps, std::vector<double>* setup_s, Tracer* tracer);

/// Outcome of one workload run, as printed by main().
struct RunOutput {
  JsonObject raw;
  /// Operations attempted and failed (errors, refusals, wrong results).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Consistency checks tabperf makes itself; each failure is printed
  /// on stderr and counted in `failed`.
  std::vector<std::string> check_failures;
  /// Set when the workload could not run at all; main() exits 1.
  std::string fatal;
  void Check(bool ok, const std::string& what);
};

RunOutput RunProtocol(const Args& args, Tracer* tracer, Calibration* cal);
RunOutput RunServing(const Args& args, Tracer* tracer, Calibration* cal);
RunOutput RunChurn(const Args& args, Tracer* tracer, Calibration* cal);

}  // namespace tabperf

#endif  // TABPERF_COMMON_H_
