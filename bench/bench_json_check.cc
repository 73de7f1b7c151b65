// Schema gate for BENCH_*.json perf-trajectory artifacts: validates each
// path given on the command line against the BenchJsonReport shape
// (bench_support.h) and rejects two artifacts carrying the same benchmark
// name, exiting non-zero on the first violation. CI runs this right after
// the bench smoke so a malformed or name-colliding artifact fails that
// stage instead of silently poisoning later trajectory diffs
// (a duplicated name would make trajectory plots average two runs).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <bench.json>...\n", argv[0]);
    return 2;
  }
  std::vector<std::string> paths(argv + 1, argv + argc);
  tabbench::Status st = tabbench::bench::ValidateBenchJsonSet(paths);
  if (!st.ok()) {
    std::fprintf(stderr, "SCHEMA FAIL: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const std::string& path : paths) {
    std::printf("%s: ok\n", path.c_str());
  }
  return 0;
}
