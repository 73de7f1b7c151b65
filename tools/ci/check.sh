#!/usr/bin/env bash
# One-shot local CI gate: configure, build, test, lint — and, when a Clang
# toolchain is on PATH, prove the thread-safety annotations with
# -Werror=thread-safety. Run from anywhere inside the repo:
#
#   tools/ci/check.sh            # full gate
#   SKIP_BUILD=1 tools/ci/check.sh   # reuse an existing build/ tree
#
# Exit status is non-zero on the first failing stage.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${ROOT}/build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

step() { printf '\n==== %s ====\n' "$*"; }

# ---------------------------------------------------------------- build
if [[ -z "${SKIP_BUILD:-}" ]]; then
  step "configure (${BUILD_DIR})"
  cmake -B "${BUILD_DIR}" -S "${ROOT}"
  step "build (-j${JOBS})"
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
fi

# ---------------------------------------------------------------- tests
step "ctest"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# ----------------------------------------------------------------- chaos
# The chaos suite already ran above as part of the full ctest pass; run it
# again with an env-armed fault schedule so the TABBENCH_FAULTS parsing
# path is exercised end to end (the suite disarms programmatically, so the
# env schedule only needs to load cleanly and not break anything).
step "ctest -L chaos (TABBENCH_FAULTS armed)"
TABBENCH_FAULTS="storage.heap_scan=unavailable@prob:0.01:7" \
  ctest --test-dir "${BUILD_DIR}" -L chaos --output-on-failure -j "${JOBS}"

# Chaos under TSan: the fault registry, retry sleeps, and failure
# isolation all run on worker threads; prove them race-free. Works under
# both GCC and Clang (-fsanitize=thread).
step "ctest -L chaos under TABBENCH_SANITIZE=thread"
TSAN_DIR="${ROOT}/build-tsan-chaos"
cmake -B "${TSAN_DIR}" -S "${ROOT}" -DTABBENCH_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_chaos_tests
ctest --test-dir "${TSAN_DIR}" -L chaos --output-on-failure -j "${JOBS}"

# The concurrency suite under TSan: the thread pool, sessions, workload
# service, watchdog, parallel runners, and concurrent sessions racing to
# fill the shared IN-set memo all cross threads — the exact surfaces where
# a data race would corrupt the serial ≡ parallel bit-identity contract
# without failing any single-threaded test. The shard suite carries the
# concurrency label too; it has its own TSan stage below.
step "ctest -L concurrency under TABBENCH_SANITIZE=thread"
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_service_tests
ctest --test-dir "${TSAN_DIR}" -L concurrency -LE shard --output-on-failure \
  -j "${JOBS}"

# The sharded serving suite under TSan: router dispatchers, shard health
# transitions, the watchdog force-cancel race, and the chaos kill/re-route
# path all cross threads; `-L shard` is the same suite the overload stage
# below leans on, so prove it race-free before trusting its numbers.
step "ctest -L shard under TABBENCH_SANITIZE=thread"
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_shard_tests
ctest --test-dir "${TSAN_DIR}" -L shard --output-on-failure -j "${JOBS}"

# The mutation suite under TSan: B+-tree and heap mutations take the tree
# and stats locks from workload threads, and the online index-build side
# log is fed by writer threads while the build step drains it — the exact
# surfaces where a race would corrupt the serial ≡ parallel bit-identity
# contract. The fork/SIGKILL chaos children stay single-threaded, which is
# what TSan requires of forked children.
step "ctest -L mutation under TABBENCH_SANITIZE=thread"
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target tabbench_mutation_tests
ctest --test-dir "${TSAN_DIR}" -L mutation --output-on-failure -j "${JOBS}"

# ------------------------------------------------------------ bench smoke
# A small inter-query sweep (bench_parallel exits 1 if any parallel run's
# simulated results diverge from the sequential run) produces a BENCH_*.json
# perf-trajectory artifact and the schema gate validates it — a malformed
# artifact fails here, not in a later diff.
step "bench smoke: BENCH_parallel.json (emit + schema-check)"
TABBENCH_WORKLOAD=8 TABBENCH_WORKERS=2 \
  "${BUILD_DIR}/bench/bench_parallel" \
  --bench-json "${BUILD_DIR}/BENCH_parallel.json"
"${BUILD_DIR}/bench/bench_json_check" "${BUILD_DIR}/BENCH_parallel.json"
# The gate must also reject a duplicated benchmark name (the same artifact
# listed twice is the degenerate case) — otherwise trajectory plots keyed
# by name would silently average two runs.
if "${BUILD_DIR}/bench/bench_json_check" \
    "${BUILD_DIR}/BENCH_parallel.json" \
    "${BUILD_DIR}/BENCH_parallel.json" >/dev/null 2>&1; then
  echo "bench_json_check failed to reject a duplicate benchmark name"
  exit 1
fi
echo "BENCH artifact: ${BUILD_DIR}/BENCH_parallel.json"

# Write-path trajectory: the Section 4.4 insertion experiment emits
# BENCH_insertions.json (per-insert costs under P/R/1C plus the workload
# reruns drive queries_per_second). Validated alone and cross-file with
# BENCH_parallel.json so a name collision across artifacts fails here.
step "bench smoke: BENCH_insertions.json (emit + schema-check)"
TABBENCH_WORKLOAD=8 \
  "${BUILD_DIR}/bench/bench_insertions" \
  --bench-json "${BUILD_DIR}/BENCH_insertions.json"
"${BUILD_DIR}/bench/bench_json_check" "${BUILD_DIR}/BENCH_insertions.json"
"${BUILD_DIR}/bench/bench_json_check" \
  "${BUILD_DIR}/BENCH_parallel.json" \
  "${BUILD_DIR}/BENCH_insertions.json"
echo "BENCH artifact: ${BUILD_DIR}/BENCH_insertions.json"

# ------------------------------------------------------------- overload
# Open-loop overload smoke for the sharded serving layer: a short sweep
# (sized to stay under a minute) that still crosses saturation, emitting
# the BENCH_service_overload.json saturation record; then the same sweep
# in chaos mode, where the harness kills a shard mid-run and audits the
# router journal for the no-lost-admitted-job invariant. The schema gate
# validates the artifact both alone and cross-file with BENCH_parallel.json
# so a benchmark name collision across artifacts fails here, not in a
# later trajectory diff.
step "overload smoke: BENCH_service_overload.json (emit + schema-check)"
OV_DIR="$(mktemp -d)"   # the harness writes its router journal under cwd
( cd "${OV_DIR}" &&
  TABBENCH_LOAD_SHARDS=2 TABBENCH_LOAD_SHARD_WORKERS=2 \
  TABBENCH_LOAD_QPS=100 TABBENCH_LOAD_STEPS=3 TABBENCH_LOAD_ARRIVALS=60 \
    "${BUILD_DIR}/bench/bench_service_load" \
    --bench-json "${BUILD_DIR}/BENCH_service_overload.json" )
"${BUILD_DIR}/bench/bench_json_check" \
  "${BUILD_DIR}/BENCH_service_overload.json"
"${BUILD_DIR}/bench/bench_json_check" \
  "${BUILD_DIR}/BENCH_parallel.json" \
  "${BUILD_DIR}/BENCH_service_overload.json"

step "overload smoke: chaos mode (shard kill + journal audit)"
( cd "${OV_DIR}" &&
  TABBENCH_LOAD_SHARDS=2 TABBENCH_LOAD_SHARD_WORKERS=2 \
  TABBENCH_LOAD_QPS=100 TABBENCH_LOAD_STEPS=3 TABBENCH_LOAD_ARRIVALS=60 \
  TABBENCH_LOAD_CHAOS=1 \
    "${BUILD_DIR}/bench/bench_service_load" )
rm -rf "${OV_DIR}"
echo "BENCH artifact: ${BUILD_DIR}/BENCH_service_overload.json"

# ------------------------------------------------------------ kill-resume
# Crash-safety proof at the process level, via the CLI rather than gtest:
# a benchmark child is SIGKILLed mid-run by the TABBENCH_JOURNAL_CRASH_AFTER
# hook, resumed from its journal, and the healed journal must be
# byte-identical to one from an uninterrupted run.
step "kill-resume (SIGKILL mid-run, resume, byte-compare journals)"
KR_DIR="$(mktemp -d)"
trap 'rm -rf "${KR_DIR}"' EXIT
CLI="${BUILD_DIR}/examples/tabbench_cli"
set +e
TABBENCH_JOURNAL_CRASH_AFTER=5 \
  "${CLI}" bench nref nref2j "${KR_DIR}/killed.tbj" 800 p
KILL_STATUS=$?
set -e
if [[ ${KILL_STATUS} -ne 137 ]]; then
  echo "expected the child to die by SIGKILL (exit 137), got ${KILL_STATUS}"
  exit 1
fi
"${CLI}" resume "${KR_DIR}/killed.tbj"
"${CLI}" bench nref nref2j "${KR_DIR}/clean.tbj" 800 p
cmp "${KR_DIR}/killed.tbj" "${KR_DIR}/clean.tbj"
echo "resumed journal is byte-identical to the uninterrupted run"

# The same proof for the online index-build state machine: the mutation
# suite's transition walker SIGKILLs a forked child at every index-build
# journal transition (pending → … → live → dropping → dropped), resumes
# each torn journal, and byte-compares the healed journal and install-time
# index fingerprint against an uninterrupted run. Run it standalone so the
# crash-safety evidence lands in this log even when ctest sharding hides it.
step "mutation kill-resume smoke (SIGKILL at every build transition)"
"${BUILD_DIR}/tests/tabbench_mutation_tests" --gtest_brief=1 \
  --gtest_filter='MutationKillResumeTest.SigkillAtEveryBuildTransitionResumesExact'

# ----------------------------------------------------------------- lint
# ctest already ran lint_repo, but run the binary directly too so the
# human-readable findings (if any) land at the end of the log.
step "tabbench_lint"
"${BUILD_DIR}/tools/lint/tabbench_lint" --root "${ROOT}"

# --------------------------------------------------------------- analyze
# The cross-TU analyzer — layering, lock-order, Status-flow, nondeterminism
# taint, the concurrency-soundness passes (lockset inference,
# blocking-under-lock, cancellation-poll liveness), and the path-sensitive
# CFG passes (durability-protocol ordering vs tools/analyze/protocols.txt,
# release-on-all-paths, error-path soundness) — under the ratchet: any
# finding not in tools/analyze/baseline.json fails, and --strict-baseline
# also fails on stale entries, so the baseline can only shrink. The SARIF
# artifact is what a code-scanning UI ingests.
step "tabbench_analyze (ratchet vs tools/analyze/baseline.json)"
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --strict-baseline --sarif "${BUILD_DIR}/analyze.sarif"
echo "SARIF artifact: ${BUILD_DIR}/analyze.sarif"

# Analyzer perf trajectory: the full-tree run (all ten passes) must stay
# fast enough for the inner CI loop; BENCH_analyze.json goes through the
# same schema gate as the engine benches, alone and cross-file, so a name
# collision or malformed artifact fails here.
step "bench smoke: BENCH_analyze.json (emit + schema-check)"
"${BUILD_DIR}/bench/bench_analyze" --root "${ROOT}" --iters 2 \
  --bench-json "${BUILD_DIR}/BENCH_analyze.json"
"${BUILD_DIR}/bench/bench_json_check" "${BUILD_DIR}/BENCH_analyze.json"
"${BUILD_DIR}/bench/bench_json_check" \
  "${BUILD_DIR}/BENCH_parallel.json" \
  "${BUILD_DIR}/BENCH_analyze.json"
echo "BENCH artifact: ${BUILD_DIR}/BENCH_analyze.json"

# Fault-injection coverage: which layers carry TB_FAULT_POINT sites and
# which carry none — printed for review, then enforced as a ratchet: any
# layer recorded in tools/analyze/fault_layers.txt that drops below its
# floor of sites fails the gate, so chaos-test reach only grows.
step "tabbench_analyze --fault-coverage (ratchet vs fault_layers.txt)"
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --fault-coverage
"${BUILD_DIR}/tools/analyze/tabbench_analyze" --root "${ROOT}" \
  --check-fault-coverage "${ROOT}/tools/analyze/fault_layers.txt"

# ----------------------------------------------------------------- ubsan
# The util/journal layer does the repo's pointer-and-bit arithmetic (CRC32C
# tables, varint packing, Zipf sampling, journal framing), and the storage
# codec, heap cursors and typed ANALYZE do raw offset and length arithmetic
# on page bytes (projected decode, in-place field reads); run those suites
# with every UB report turned into an abort (-fno-sanitize-recover=all).
step "util/journal/storage/stats suites under TABBENCH_SANITIZE=undefined"
UBSAN_DIR="${ROOT}/build-ubsan"
cmake -B "${UBSAN_DIR}" -S "${ROOT}" -DTABBENCH_SANITIZE=undefined
cmake --build "${UBSAN_DIR}" -j "${JOBS}" --target tabbench_tests
"${UBSAN_DIR}/tests/tabbench_tests" --gtest_brief=1 --gtest_filter=\
'Crc32cTest.*:CrcTrailerTest.*:JournalResumeTest.*:ReportIoTest.*'\
':ResultTest.*:RetryTest.*:RngTest.*:RunJournalTest.*:StatusTest.*'\
':StringsTest.*:ZipfTest.*'\
':TupleCodecTest.*:Seeds/CodecFuzz.*:HeapTableTest.*:HeapSlotDirectoryTest.*'\
':StatsCollectorTest.*:StatsOracleTest.*:Seeds/StatsOracleFuzz.*'

# -------------------------------------------------- thread-safety proof
# The TB_GUARDED_BY/TB_REQUIRES annotations only carry weight under
# Clang's -Wthread-safety analysis; GCC compiles them away. Gate this
# stage on clang++ being available rather than failing on GCC-only boxes.
if command -v clang++ >/dev/null 2>&1; then
  step "clang -Werror=thread-safety build"
  TSA_DIR="${ROOT}/build-tsa"
  cmake -B "${TSA_DIR}" -S "${ROOT}" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_C_COMPILER=clang
  # The annotated surfaces: the service layer and the B-tree stats cache.
  cmake --build "${TSA_DIR}" -j "${JOBS}" \
    --target tb_service tb_storage
else
  step "clang++ not found — skipping -Wthread-safety build"
fi

step "all checks passed"
