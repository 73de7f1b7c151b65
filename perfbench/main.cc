// tabperf: runs one benchmark workload against the tabbench library and
// prints its raw measurements as one JSON line (see common.h).
//
//   tabperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// Workloads: nref2j_protocol, nref3j_protocol, service_closed_loop,
// mutation_churn. Exit code 2 = bad arguments, 3 = a build this benchmark
// must not record numbers from, 1 = the workload could not run.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "datagen/nref_gen.h"

namespace tabperf {

// ------------------------------------------------------------------ JSON
std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i];
  }
  return out + "]";
}

namespace {
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}
JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}
JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}
JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonQuote(v);
  return *this;
}
JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (double x : v) items.push_back(JsonNumber(x));
  return Raw(key, JsonArray(items));
}
JsonObject& JsonObject::Ints(const std::string& key,
                             const std::vector<int64_t>& v) {
  std::vector<std::string> items;
  items.reserve(v.size());
  for (int64_t x : v) items.push_back(std::to_string(x));
  return Raw(key, JsonArray(items));
}
JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

// ---------------------------------------------------------------- Tracer
Tracer::Scope::Scope(Tracer* t, const char* name, bool beside) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.start_ns = t_->Ns(Clock::now());
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.request = t_->request_;
  s.beside = beside;
  id_ = static_cast<int32_t>(t_->spans_.size());
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[id_].end_ns = t_->Ns(Clock::now());
  t_->open_.pop_back();
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, bool beside) {
  Span s;
  s.name = name;
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.beside = beside;
  spans_.push_back(std::move(s));
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%u\t%d\t%s\t%lld\t%lld\n", i, s.parent,
                 s.request, s.beside ? 1 : 0, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ Calibration
Calibration::Calibration()
    : far_(1u << 22),
      near_(1u << 17),
      keys_(1u << 16),
      table_(1u << 16),
      sorted_(1u << 16) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Sattolo's shuffle: a single cycle, so a chase visits every slot.
  for (std::vector<uint32_t>* chase : {&far_, &near_}) {
    std::vector<uint32_t>& c = *chase;
    for (uint32_t i = 0; i < c.size(); ++i) c[i] = i;
    for (size_t i = c.size() - 1; i > 0; --i) std::swap(c[i], c[next() % i]);
  }
  for (uint64_t& k : keys_) k = next() | 1;  // never 0, the empty slot
}

void Calibration::Sample(int reps) {
  // The first pass only brings the work's data back into the caches the
  // workload has just used; it is not timed.
  for (int r = -1; r < reps; ++r) {
    const auto t0 = Clock::now();
    uint64_t h = 0;
    uint32_t p = 0;
    for (int i = 0; i < 300000; ++i) {
      p = far_[p];
      h += p;
    }
    p = 0;
    for (int i = 0; i < 750000; ++i) {
      p = near_[p];
      h += p;
    }
    // Half the keys into a table twice their number, then every key probed.
    const size_t mask = table_.size() - 1;
    std::fill(table_.begin(), table_.end(), 0);
    for (size_t i = 0; i < keys_.size() / 2; ++i) {
      size_t slot = keys_[i] & mask;
      while (table_[slot] != 0) slot = (slot + 1) & mask;
      table_[slot] = keys_[i];
    }
    for (int round = 0; round < 4; ++round) {
      for (uint64_t k : keys_) {
        size_t slot = k & mask;
        while (table_[slot] != 0 && table_[slot] != k) {
          slot = (slot + 1) & mask;
        }
        h += table_[slot] == k ? slot : 1;
      }
    }
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    h += sorted_[sorted_.size() / 2];
    for (int i = 0; i < 2000000; ++i) h = h * 6364136223846793005ULL + i;
    sink_ = sink_ + h;
    if (r >= 0) samples_.push_back(SecondsSince(t0));
  }
}

// ----------------------------------------------------------------- set-up
tabbench::Result<std::unique_ptr<tabbench::Database>> SetUpNref(
    int reps, std::vector<double>* setup_s, Tracer* tracer) {
  std::unique_ptr<tabbench::Database> db;
  for (int i = 0; i < reps; ++i) {
    db.reset();  // at most one database alive while generating
    tabbench::NrefScaleOptions opts;  // scale 1/400, data seed 2005
    const auto t0 = Clock::now();
    tabbench::Result<std::unique_ptr<tabbench::Database>> r =
        [&]() {
          Tracer::Scope span(tracer, "datagen.generate");
          return tabbench::GenerateNref(opts);
        }();
    if (!r.ok()) return r.status();
    setup_s->push_back(SecondsSince(t0));
    db = r.TakeValue();
  }
  if (tracer != nullptr) {
    Tracer::Scope span(tracer, "stats.collect", /*beside=*/true);
    TB_RETURN_IF_ERROR(db->CollectStatistics());
  }
  return db;
}

void RunOutput::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  check_failures.push_back(what);
  std::fprintf(stderr, "tabperf: check failed: %s\n", what.c_str());
}

}  // namespace tabperf

namespace {

using tabperf::Clock;
using tabperf::SecondsSince;
using tabperf::Tracer;

/// Peak resident set size of this process, in MiB.
double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall time one span costs to record (open + close), measured in-process;
/// times the span count it gives the tracing overhead of a traced run.
double SpanCostNs() {
  constexpr int kSpans = 20000;
  Tracer calibration;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Tracer::Scope span(&calibration, "calibration.span");
  }
  return SecondsSince(t0) * 1e9 / kSpans;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Usage(const char* msg) {
  std::fprintf(stderr,
               "tabperf: %s\nusage: tabperf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--max-streams <n>] "
               "[--out-dir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tabperf;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--max-streams") {
      args.max_streams = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Usage("--max-streams takes an integer");
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  // Numbers from an unoptimised build say nothing about the code's speed;
  // refuse to produce them. (Sanitizer builds are refused at configure time.)
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "tabperf: refusing to run an unoptimised build\n");
  return 3;
#endif

  Tracer tracer;
  Tracer* t = args.trace ? &tracer : nullptr;
  if (args.workload != "nref2j_protocol" &&
      args.workload != "nref3j_protocol" &&
      args.workload != "service_closed_loop" &&
      args.workload != "mutation_churn") {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  Calibration cal;
  RunOutput out;
  if (args.workload == "service_closed_loop") {
    out = RunServing(args, t, &cal);
  } else if (args.workload == "mutation_churn") {
    out = RunChurn(args, t, &cal);
  } else {
    out = RunProtocol(args, t, &cal);
  }

  if (!out.fatal.empty()) {
    std::fprintf(stderr, "tabperf: %s\n", out.fatal.c_str());
    return 1;
  }

  std::string spans_path;
  if (t != nullptr) {
    spans_path = args.out_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(spans_path)) {
      std::fprintf(stderr, "tabperf: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  std::vector<std::string> failures;
  for (const std::string& f : out.check_failures) {
    failures.push_back(JsonQuote(f));
  }
  JsonObject env;
  env.Str("build_type", TABPERF_BUILD_TYPE)
      .Str("compiler", kCompiler);
  JsonObject top;
  top.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Bool("trace", args.trace)
      .Obj("env", env)
      .Int("attempted", static_cast<int64_t>(out.attempted))
      .Int("failed", static_cast<int64_t>(out.failed))
      .Raw("check_failures", JsonArray(failures))
      .Num("peak_rss_mb", PeakRssMb())
      .Str("spans", spans_path)
      .Int("span_count", static_cast<int64_t>(tracer.spans().size()))
      .Num("span_cost_ns", t != nullptr ? SpanCostNs() : 0.0)
      .Nums("calibration_s", cal.samples())
      .Obj("raw", out.raw);
  std::printf("%s\n", top.ToString().c_str());
  return 0;
}
