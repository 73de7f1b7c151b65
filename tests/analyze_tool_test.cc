// Unit tests for tools/analyze — the cross-TU analyzer. Every pass runs on
// fixture programs handed in as in-memory SourceFiles, the same entry point
// the CLI uses, so the tests pin down rule ids, file:line anchors, related
// sites, and the SARIF/baseline plumbing without reading the real tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.h"
#include "cfg.h"
#include "cpptok.h"

namespace {

using tabbench_analyze::Analyze;
using tabbench_analyze::ApplyAnnotationFixes;
using tabbench_analyze::BaselineEntry;
using tabbench_analyze::FaultCoverageReport;
using tabbench_analyze::DiffBaseline;
using tabbench_analyze::Finding;
using tabbench_analyze::LayerSpec;
using tabbench_analyze::Options;
using tabbench_analyze::ParseBaselineJson;
using tabbench_analyze::ParseLayerSpec;
using tabbench_analyze::SourceFile;
using tabbench_analyze::ToBaselineJson;
using tabbench_analyze::ToSarif;
using tabbench_analyze::ToText;

std::vector<Finding> RunAnalyze(const std::vector<SourceFile>& files,
                         const Options& opts = {}) {
  return Analyze(files, opts);
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* FindRule(const std::vector<Finding>& findings,
                        const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// A four-layer spec mirroring the real layers.txt shape, small enough for
// fixtures: util < core < engine < service, and core must never reach
// service even if someone reorders the list.
Options LayeredOpts() {
  Options opts;
  std::string err;
  const bool ok = ParseLayerSpec(
      "# fixture layers\n"
      "layer util: src/util\n"
      "layer core: src/core\n"
      "layer engine: src/engine\n"
      "layer service: src/service\n"
      "forbid core -> service\n",
      &opts.layers, &err);
  EXPECT_TRUE(ok) << err;
  return opts;
}

// ------------------------------------------------------------- layering

TEST(AnalyzeLayering, DownwardDagIsQuiet) {
  auto findings = RunAnalyze(
      {{"src/util/rng.h", "int Rng();\n"},
       {"src/engine/db.h", "#include \"util/rng.h\"\nint Db();\n"},
       {"src/service/svc.h", "#include \"engine/db.h\"\nint Svc();\n"}},
      LayeredOpts());
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(AnalyzeLayering, UpwardIncludeFiresAtTheIncludeLine) {
  auto findings = RunAnalyze({{"src/service/svc.h", "int Svc();\n"},
                       {"src/util/rng.h",
                        "// helper\n"
                        "#include \"service/svc.h\"\n"
                        "int Rng();\n"}},
                      LayeredOpts());
  ASSERT_EQ(CountRule(findings, "tabbench-layering"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-layering");
  EXPECT_EQ(f->file, "src/util/rng.h");
  EXPECT_EQ(f->line, 2u);
  EXPECT_NE(f->message.find("dependencies must point downward"),
            std::string::npos)
      << f->message;
}

TEST(AnalyzeLayering, ForbiddenEdgeFiresEvenThoughUpwardAnyway) {
  auto findings = RunAnalyze({{"src/service/api.h", "int Api();\n"},
                       {"src/core/bad.h",
                        "#include \"service/api.h\"\n"
                        "int Bad();\n"}},
                      LayeredOpts());
  ASSERT_EQ(CountRule(findings, "tabbench-layering"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-layering");
  EXPECT_EQ(f->file, "src/core/bad.h");
  EXPECT_EQ(f->line, 1u);
  EXPECT_NE(f->message.find("must never include"), std::string::npos)
      << f->message;
  ASSERT_EQ(f->related.size(), 1u);
  EXPECT_EQ(f->related[0].file, "src/service/api.h");
}

TEST(AnalyzeLayering, FilesOutsideEveryLayerAreExempt) {
  auto findings = RunAnalyze({{"src/service/svc.h", "int Svc();\n"},
                       {"tests/x_test.cc",
                        "#include \"service/svc.h\"\nint T();\n"}},
                      LayeredOpts());
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(AnalyzeLayering, IncludeCycleIsOneFindingNamingEveryMember) {
  auto findings = RunAnalyze({{"src/core/a.h", "#include \"core/b.h\"\n"},
                       {"src/core/b.h", "#include \"core/a.h\"\n"}},
                      LayeredOpts());
  ASSERT_EQ(CountRule(findings, "tabbench-include-cycle"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-include-cycle");
  EXPECT_NE(f->message.find("src/core/a.h"), std::string::npos);
  EXPECT_NE(f->message.find("src/core/b.h"), std::string::npos);
  EXPECT_GE(f->related.size(), 2u);  // one site per edge in the cycle
}

// ------------------------------------------------------------ lock-order

TEST(AnalyzeLockOrder, ConsistentNestingIsQuiet) {
  auto findings = RunAnalyze({{"src/service/pair.h",
                        "namespace tabbench {\n"
                        "class Pair {\n"
                        " public:\n"
                        "  void First() {\n"
                        "    MutexLock la(&a_);\n"
                        "    MutexLock lb(&b_);\n"
                        "  }\n"
                        "  void Second() {\n"
                        "    MutexLock la(&a_);\n"
                        "    MutexLock lb(&b_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex a_;\n"
                        "  Mutex b_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-lock-order"), 0u)
      << ToText(findings);
}

TEST(AnalyzeLockOrder, InversionIsOneFindingWithAllFourSites) {
  auto findings = RunAnalyze({{"src/service/pair.h",
                        "namespace tabbench {\n"
                        "class Pair {\n"
                        " public:\n"
                        "  void First() {\n"
                        "    MutexLock la(&a_);\n"
                        "    MutexLock lb(&b_);\n"
                        "  }\n"
                        "  void Second() {\n"
                        "    MutexLock lb(&b_);\n"
                        "    MutexLock la(&a_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex a_;\n"
                        "  Mutex b_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lock-order"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lock-order");
  EXPECT_NE(f->message.find("Pair::a_"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("Pair::b_"), std::string::npos) << f->message;
  // Both acquisitions of both edges are attached: lines 5, 6, 9, 10.
  std::vector<size_t> lines;
  for (const auto& s : f->related) lines.push_back(s.line);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<size_t>{5, 6, 9, 10})) << ToText(findings);
}

TEST(AnalyzeLockOrder, CallUnderLockResolvedThroughMemberType) {
  // Outer::Run holds a_ and calls helper_.Touch() which takes b_;
  // Outer::Reverse nests them the other way round directly.
  auto findings = RunAnalyze({{"src/service/nest.h",
                        "namespace tabbench {\n"
                        "class Helper {\n"
                        " public:\n"
                        "  void Touch() { MutexLock l(&b_); }\n"
                        "  Mutex b_;\n"
                        "};\n"
                        "class Outer {\n"
                        " public:\n"
                        "  void Run() {\n"
                        "    MutexLock l(&a_);\n"
                        "    helper_.Touch();\n"
                        "  }\n"
                        "  void Reverse() {\n"
                        "    MutexLock lb(&helper_.b_);\n"
                        "    MutexLock la(&a_);\n"
                        "  }\n"
                        " private:\n"
                        "  Helper helper_;\n"
                        "  Mutex a_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lock-order"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lock-order");
  EXPECT_NE(f->message.find("Helper::b_"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("Outer::a_"), std::string::npos) << f->message;
}

TEST(AnalyzeLockOrder, DeclaredEdgeContradictsObservedOrder) {
  // The code only ever takes Svc::mu_ before Pool::mu_, but the annotation
  // declares the opposite; the declared edge joins the graph and closes a
  // cycle, and the finding carries a "declared:" site pointing at it.
  auto findings = RunAnalyze({{"src/service/declared.h",
                        "namespace tabbench {\n"
                        "class Pool {\n"
                        " public:\n"
                        "  void Submit() { MutexLock l(&mu_); }\n"
                        "  Mutex mu_ TB_ACQUIRED_BEFORE(\"Svc::mu_\");\n"
                        "};\n"
                        "class Svc {\n"
                        " public:\n"
                        "  void Go() {\n"
                        "    MutexLock l(&mu_);\n"
                        "    pool_.Submit();\n"
                        "  }\n"
                        " private:\n"
                        "  Pool pool_;\n"
                        "  Mutex mu_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lock-order"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lock-order");
  bool has_declared_site = false;
  for (const auto& s : f->related) {
    if (s.note.find("declared") != std::string::npos) {
      has_declared_site = true;
    }
  }
  EXPECT_TRUE(has_declared_site) << ToText(findings);
}

TEST(AnalyzeLockOrder, RecursiveAcquisitionIsASelfLoopFinding) {
  auto findings = RunAnalyze({{"src/service/rec.h",
                        "namespace tabbench {\n"
                        "class Rec {\n"
                        " public:\n"
                        "  void Twice() {\n"
                        "    MutexLock a(&mu_);\n"
                        "    { MutexLock b(&mu_); }\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lock-order"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lock-order");
  EXPECT_NE(f->message.find("recursive acquisition"), std::string::npos)
      << f->message;
}

TEST(AnalyzeLockOrder, LambdaBodiesDoNotAcquireAtTheSubmitSite) {
  // The thread-pool idiom: enqueue a job under mu_ whose body will take
  // mu_ later, on a worker. Deferred execution is not a nested
  // acquisition; flagging it would condemn every Submit call site.
  auto findings = RunAnalyze({{"src/service/defer.h",
                        "namespace tabbench {\n"
                        "class Defer {\n"
                        " public:\n"
                        "  void Go() {\n"
                        "    MutexLock l(&mu_);\n"
                        "    Enqueue([this] { MutexLock l2(&mu_); });\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-lock-order"), 0u)
      << ToText(findings);
}

// ----------------------------------------------------------- status-flow

TEST(AnalyzeStatusFlow, DiscardedStatusLocalFires) {
  auto findings = RunAnalyze({{"src/core/run.cc",
                        "namespace tabbench {\n"
                        "class Runner {\n"
                        " public:\n"
                        "  void Discard() {\n"
                        "    Status s = Step();\n"
                        "    Other();\n"
                        "  }\n"
                        "  int Consulted() {\n"
                        "    Status s = Step();\n"
                        "    if (!s.ok()) return 1;\n"
                        "    return 0;\n"
                        "  }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-status-local"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-status-local");
  EXPECT_EQ(f->file, "src/core/run.cc");
  EXPECT_EQ(f->line, 5u);
  EXPECT_NE(f->message.find("Runner::Discard"), std::string::npos)
      << f->message;
}

TEST(AnalyzeStatusFlow, ResultDereferencedOnErrorPathFires) {
  auto findings = RunAnalyze({{"src/core/use.cc",
                        "namespace tabbench {\n"
                        "class User {\n"
                        " public:\n"
                        "  int Use() {\n"
                        "    auto r = Make();\n"
                        "    if (!r.ok()) {\n"
                        "      return *r;\n"
                        "    }\n"
                        "    return 0;\n"
                        "  }\n"
                        "  int Fine() {\n"
                        "    auto r = Make();\n"
                        "    if (!r.ok()) return -1;\n"
                        "    return *r;\n"
                        "  }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-result-on-error"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-result-on-error");
  EXPECT_EQ(f->line, 7u);
  ASSERT_EQ(f->related.size(), 1u);
  EXPECT_EQ(f->related[0].line, 6u);  // the !ok() branch it sits inside
}

TEST(AnalyzeStatusFlow, UseAfterMoveFiresWithTheMoveSite) {
  auto findings = RunAnalyze({{"src/core/mv.cc",
                        "namespace tabbench {\n"
                        "class Mover {\n"
                        " public:\n"
                        "  void Leak() {\n"
                        "    std::string s = Name();\n"
                        "    Consume(std::move(s));\n"
                        "    Log(s);\n"
                        "  }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-use-after-move"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-use-after-move");
  EXPECT_EQ(f->line, 7u);
  ASSERT_EQ(f->related.size(), 1u);
  EXPECT_EQ(f->related[0].line, 6u);
}

TEST(AnalyzeStatusFlow, ReinitializingAMovedFromObjectIsQuiet) {
  auto findings = RunAnalyze({{"src/core/mv2.cc",
                        "namespace tabbench {\n"
                        "class Mover {\n"
                        " public:\n"
                        "  void Recycle() {\n"
                        "    std::string s = Name();\n"
                        "    Consume(std::move(s));\n"
                        "    s.clear();\n"
                        "    Log(s);\n"
                        "  }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-use-after-move"), 0u)
      << ToText(findings);
}

// -------------------------------------------------------- nondeterminism

TEST(AnalyzeTaint, WallClockInEngineFires) {
  auto findings = RunAnalyze(
      {{"src/engine/timer.cc",
        "namespace tabbench {\n"
        "class Timer {\n"
        " public:\n"
        "  long Now() {\n"
        "    return std::chrono::system_clock::now()"
        ".time_since_epoch().count();\n"
        "  }\n"
        "};\n"
        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-nondeterminism"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-nondeterminism");
  EXPECT_EQ(f->line, 4u);  // anchored at the function, not the call
  EXPECT_NE(f->message.find("Timer::Now"), std::string::npos) << f->message;
}

TEST(AnalyzeTaint, PropagatesThroughTheCallGraphWithUltimateSource) {
  auto findings = RunAnalyze({{"src/engine/seed.cc",
                        "namespace tabbench {\n"
                        "class Seeded {\n"
                        " public:\n"
                        "  int Helper() { return rand(); }\n"
                        "  int Draw() { return Helper(); }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-nondeterminism"), 2u)
      << ToText(findings);
  bool draw_has_chain = false;
  for (const Finding& f : findings) {
    if (f.message.find("Seeded::Draw") == std::string::npos) continue;
    for (const auto& s : f.related) {
      if (s.note.find("ultimate source") != std::string::npos) {
        draw_has_chain = true;
      }
    }
  }
  EXPECT_TRUE(draw_has_chain) << ToText(findings);
}

TEST(AnalyzeTaint, SteadyClockAndNonResultLayersAreQuiet) {
  // steady_clock is monotonic scaffolding, not wall-clock nondeterminism,
  // and the pass only guards the simulation's result layers.
  auto findings = RunAnalyze(
      {{"src/engine/ok.cc",
        "namespace tabbench {\n"
        "class Ticker {\n"
        " public:\n"
        "  long Tick() {\n"
        "    return std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "  }\n"
        "};\n"
        "}  // namespace tabbench\n"},
       {"src/util/wall.cc",
        "namespace tabbench {\n"
        "class Wall {\n"
        " public:\n"
        "  int Roll() { return rand(); }\n"
        "};\n"
        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-nondeterminism"), 0u)
      << ToText(findings);
}

// ---------------------------------------------------------- suppressions

TEST(AnalyzeSuppressions, NolintOnTheAnchorLineSilencesTheRule) {
  auto findings = RunAnalyze(
      {{"src/core/sup.cc",
        "namespace tabbench {\n"
        "class Sup {\n"
        " public:\n"
        "  void Discard() {\n"
        "    Status s = Step();  // NOLINT(tabbench-status-local) fire+forget\n"
        "    Other();\n"
        "  }\n"
        "};\n"
        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-status-local"), 0u)
      << ToText(findings);
}

// --------------------------------------------------------------- output

TEST(AnalyzeOutput, TextCarriesFileLineRuleAndRelatedSites) {
  auto findings = RunAnalyze({{"src/core/a.h", "#include \"core/b.h\"\n"},
                       {"src/core/b.h", "#include \"core/a.h\"\n"}},
                      LayeredOpts());
  const std::string text = ToText(findings);
  EXPECT_NE(text.find("src/core/a.h:1: [tabbench-include-cycle]"),
            std::string::npos)
      << text;
}

TEST(AnalyzeOutput, SarifIsStructurallySound) {
  auto findings = RunAnalyze({{"src/service/pair.h",
                        "namespace tabbench {\n"
                        "class Pair {\n"
                        " public:\n"
                        "  void First() {\n"
                        "    MutexLock la(&a_);\n"
                        "    MutexLock lb(&b_);\n"
                        "  }\n"
                        "  void Second() {\n"
                        "    MutexLock lb(&b_);\n"
                        "    MutexLock la(&a_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex a_;\n"
                        "  Mutex b_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(findings.size(), 1u) << ToText(findings);
  const std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"tabbench_analyze\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"tabbench-lock-order\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"physicalLocation\""), std::string::npos);
  EXPECT_NE(sarif.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 5"), std::string::npos);
  // Every rule is present in the rules array even when only one fired.
  for (const auto& rule : tabbench_analyze::Rules()) {
    EXPECT_NE(sarif.find(std::string("\"id\": \"") + rule.name + "\""),
              std::string::npos)
        << rule.name;
  }
  // Balanced braces/brackets: a cheap structural-JSON sanity check that
  // catches unterminated strings and missing separators.
  long depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < sarif.size(); ++i) {
    const char c = sarif[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(AnalyzeOutput, RuleTableIsUniqueAndPrefixed) {
  const auto& rules = tabbench_analyze::Rules();
  ASSERT_EQ(rules.size(), 15u);
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(std::string(rules[i].name).rfind("tabbench-", 0), 0u);
    for (size_t j = i + 1; j < rules.size(); ++j) {
      EXPECT_STRNE(rules[i].name, rules[j].name);
    }
  }
}

// -------------------------------------------------------------- baseline

TEST(AnalyzeBaseline, JsonRoundTripAbsorbsEveryFinding) {
  auto findings = RunAnalyze({{"src/core/run.cc",
                        "namespace tabbench {\n"
                        "class Runner {\n"
                        " public:\n"
                        "  void Discard() {\n"
                        "    Status s = Step();\n"
                        "    Other();\n"
                        "  }\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(findings.size(), 1u) << ToText(findings);
  std::vector<BaselineEntry> entries;
  std::string err;
  ASSERT_TRUE(ParseBaselineJson(ToBaselineJson(findings), &entries, &err))
      << err;
  ASSERT_EQ(entries.size(), 1u);
  auto diff = DiffBaseline(findings, entries);
  EXPECT_TRUE(diff.fresh.empty());
  EXPECT_TRUE(diff.stale.empty());
  EXPECT_EQ(diff.matched, 1u);
}

TEST(AnalyzeBaseline, RatchetFreshAndStaleBothSurface) {
  Finding f;
  f.rule = "tabbench-status-local";
  f.file = "src/core/run.cc";
  f.message = "Status local 's' in Runner::Discard is never consulted";
  // Empty baseline: the finding is fresh (would fail CI).
  auto grow = DiffBaseline({f}, {});
  EXPECT_EQ(grow.fresh.size(), 1u);
  // A baseline entry that no longer fires is stale (strict mode fails,
  // the ratchet's only-shrink direction).
  BaselineEntry gone{"tabbench-lock-order", "src/service/x.h",
                     "lock-order inversion (potential deadlock) among: ..."};
  auto shrink = DiffBaseline({}, {gone});
  EXPECT_TRUE(shrink.fresh.empty());
  ASSERT_EQ(shrink.stale.size(), 1u);
  EXPECT_EQ(shrink.stale[0].rule, "tabbench-lock-order");
}

TEST(AnalyzeBaseline, LineMovesDoNotChurnTheBaselineKey) {
  // The baseline keys (rule, file, message) with no line number: shifting
  // a finding down a line must still be absorbed.
  const char* body =
      "namespace tabbench {\n"
      "class Runner {\n"
      " public:\n"
      "  void Discard() {\n"
      "    Status s = Step();\n"
      "    Other();\n"
      "  }\n"
      "};\n"
      "}  // namespace tabbench\n";
  auto before = RunAnalyze({{"src/core/run.cc", body}});
  ASSERT_EQ(before.size(), 1u);
  std::vector<BaselineEntry> entries;
  std::string err;
  ASSERT_TRUE(ParseBaselineJson(ToBaselineJson(before), &entries, &err));
  auto after =
      RunAnalyze({{"src/core/run.cc", std::string("// new header comment\n") + body}});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].line, before[0].line + 1);
  auto diff = DiffBaseline(after, entries);
  EXPECT_TRUE(diff.fresh.empty());
  EXPECT_TRUE(diff.stale.empty());
}

// ------------------------------------------------------------ layer spec

TEST(AnalyzeLayerSpec, ParsesLayersAndForbidEdges) {
  LayerSpec spec;
  std::string err;
  ASSERT_TRUE(ParseLayerSpec("layer util: src/util\n"
                             "layer tuning: src/core src/advisor\n"
                             "forbid tuning -> util\n",
                             &spec, &err))
      << err;
  ASSERT_EQ(spec.layers.size(), 2u);
  EXPECT_EQ(spec.layers[1].name, "tuning");
  ASSERT_EQ(spec.layers[1].dirs.size(), 2u);
  ASSERT_EQ(spec.forbid.size(), 1u);
  EXPECT_EQ(spec.forbid[0].first, "tuning");
}

TEST(AnalyzeLayerSpec, RejectsMalformedInput) {
  LayerSpec spec;
  std::string err;
  EXPECT_FALSE(ParseLayerSpec("bogus directive\n", &spec, &err));
  EXPECT_NE(err.find("unknown directive"), std::string::npos) << err;
  spec = {};
  EXPECT_FALSE(ParseLayerSpec("layer a: src/a\nlayer a: src/b\n",
                              &spec, &err));
  EXPECT_NE(err.find("duplicate layer"), std::string::npos) << err;
  spec = {};
  EXPECT_FALSE(ParseLayerSpec("layer a: src/a\nforbid a -> ghost\n",
                              &spec, &err));
  EXPECT_NE(err.find("undeclared layer"), std::string::npos) << err;
}

// ------------------------------------------------------- lockset inference

// One fixture drives both lockset rules: hits_ is only ever touched under
// mu_ (suggest the annotation), total_ is touched both under mu_ and bare
// (a race).
const char* kCacheFixture =
    "namespace tabbench {\n"
    "class Cache {\n"
    " public:\n"
    "  void Put(int v) {\n"
    "    MutexLock lock(&mu_);\n"
    "    hits_ = v;\n"
    "    total_ = v;\n"
    "  }\n"
    "  int Get() {\n"
    "    MutexLock lock(&mu_);\n"
    "    return hits_;\n"
    "  }\n"
    "  int Peek() { return total_; }\n"
    " private:\n"
    "  Mutex mu_;\n"
    "  int hits_ = 0;\n"
    "  int total_ = 0;\n"
    "};\n"
    "}  // namespace tabbench\n";

TEST(AnalyzeLockset, ConsistentlyGuardedFieldSuggestsAnnotation) {
  auto findings = RunAnalyze({{"src/service/cache.h", kCacheFixture}});
  ASSERT_EQ(CountRule(findings, "tabbench-lockset-unannotated"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lockset-unannotated");
  EXPECT_EQ(f->line, 16u);  // anchored at the member declaration
  EXPECT_NE(f->message.find("Cache::hits_"), std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("TB_GUARDED_BY(mu_)"), std::string::npos)
      << f->message;
  // Same-class guard: the finding carries a machine-applicable fix.
  EXPECT_EQ(f->fix.after_word, "hits_");
  EXPECT_EQ(f->fix.text, " TB_GUARDED_BY(mu_)");
}

TEST(AnalyzeLockset, MixedLockedAndBareAccessIsInconsistent) {
  auto findings = RunAnalyze({{"src/service/cache.h", kCacheFixture}});
  ASSERT_EQ(CountRule(findings, "tabbench-lockset-inconsistent"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lockset-inconsistent");
  EXPECT_EQ(f->line, 17u);
  EXPECT_NE(f->message.find("Cache::total_"), std::string::npos)
      << f->message;
  // Related sites cover both kinds of access.
  bool saw_locked = false, saw_bare = false;
  for (const auto& s : f->related) {
    if (s.note.find("under ") != std::string::npos) saw_locked = true;
    if (s.note.find("no lock held") != std::string::npos) saw_bare = true;
  }
  EXPECT_TRUE(saw_locked && saw_bare) << ToText(findings);
}

TEST(AnalyzeLockset, DeclaredGuardContradictedByBareAccess) {
  auto findings = RunAnalyze({{"src/service/counter.h",
                        "namespace tabbench {\n"
                        "class Counter {\n"
                        " public:\n"
                        "  void Inc() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    n_ = n_ + 1;\n"
                        "  }\n"
                        "  int Read() { return n_; }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  int n_ TB_GUARDED_BY(mu_) = 0;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lockset-contradicted"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lockset-contradicted");
  EXPECT_EQ(f->line, 8u);  // the offending access, not the declaration
  EXPECT_NE(f->message.find("Counter::Read"), std::string::npos)
      << f->message;
  ASSERT_EQ(f->related.size(), 1u);
  EXPECT_EQ(f->related[0].line, 11u);  // "declared TB_GUARDED_BY here"
}

TEST(AnalyzeLockset, AtomicsConstAndHonoredAnnotationsAreQuiet) {
  auto findings = RunAnalyze({{"src/service/quiet.h",
                        "namespace tabbench {\n"
                        "class Quiet {\n"
                        " public:\n"
                        "  void Tick() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    guarded_ = guarded_ + 1;\n"
                        "  }\n"
                        "  int Sum() { return hits_.load() + limit_; }\n"
                        "  void Bump() { hits_.fetch_add(1); }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  std::atomic<int> hits_{0};\n"
                        "  const int limit_ = 8;\n"
                        "  int guarded_ TB_GUARDED_BY(mu_) = 0;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-lockset-inconsistent"), 0u)
      << ToText(findings);
  EXPECT_EQ(CountRule(findings, "tabbench-lockset-unannotated"), 0u)
      << ToText(findings);
  EXPECT_EQ(CountRule(findings, "tabbench-lockset-contradicted"), 0u)
      << ToText(findings);
}

TEST(AnalyzeLockset, RequiresAnnotationCountsAsHeld) {
  auto findings = RunAnalyze({{"src/service/req.h",
                        "namespace tabbench {\n"
                        "class Req {\n"
                        " public:\n"
                        "  void Direct() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    v_ = 1;\n"
                        "  }\n"
                        "  void Callee() TB_REQUIRES(mu_) { v_ = 2; }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  int v_ = 0;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  // Both sites hold mu_ (one via the contract), so the field is
  // *consistent* — a suggestion, never an inconsistency.
  EXPECT_EQ(CountRule(findings, "tabbench-lockset-inconsistent"), 0u)
      << ToText(findings);
  EXPECT_EQ(CountRule(findings, "tabbench-lockset-unannotated"), 1u)
      << ToText(findings);
}

// -------------------------------------------------- annotation fix apply

TEST(AnalyzeFixes, ApplyInsertsSuggestedAnnotationAndIsIdempotent) {
  std::vector<SourceFile> files = {{"src/service/cache.h", kCacheFixture}};
  auto findings = RunAnalyze(files);
  ASSERT_NE(FindRule(findings, "tabbench-lockset-unannotated"), nullptr);
  EXPECT_EQ(ApplyAnnotationFixes(findings, &files), 1u);
  EXPECT_NE(files[0].content.find("int hits_ TB_GUARDED_BY(mu_) = 0;"),
            std::string::npos)
      << files[0].content;
  // The fixed tree no longer suggests; the declared guard is honored.
  auto after = RunAnalyze(files);
  EXPECT_EQ(CountRule(after, "tabbench-lockset-unannotated"), 0u)
      << ToText(after);
  EXPECT_EQ(CountRule(after, "tabbench-lockset-contradicted"), 0u)
      << ToText(after);
  // Re-applying the same (now stale) fixes inserts nothing.
  EXPECT_EQ(ApplyAnnotationFixes(findings, &files), 0u);
}

// ---------------------------------------------------- blocking under lock

TEST(AnalyzeBlocking, FsyncWhileHoldingTheMutexFiresAtTheCall) {
  auto findings = RunAnalyze({{"src/util/journal.h",
                        "namespace tabbench {\n"
                        "class Journal {\n"
                        " public:\n"
                        "  void Append() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    fsync(fd_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  int fd_ = -1;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-blocking-under-lock"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-blocking-under-lock");
  EXPECT_EQ(f->line, 6u);
  EXPECT_NE(f->message.find("fsync()"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("Journal::mu_"), std::string::npos)
      << f->message;
}

TEST(AnalyzeBlocking, ResolvedTransitivelyThroughTheCallGraph) {
  auto findings = RunAnalyze({{"src/util/disk.h",
                        "namespace tabbench {\n"
                        "class Disk {\n"
                        " public:\n"
                        "  void Flush() { fsync(fd_); }\n"
                        "  void Locked() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    Flush();\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  int fd_ = -1;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-blocking-under-lock"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-blocking-under-lock");
  EXPECT_EQ(f->line, 7u);  // the call site under the lock
  EXPECT_NE(f->message.find("Disk::Flush"), std::string::npos)
      << f->message;
  bool has_block_site = false;
  for (const auto& s : f->related) {
    if (s.note.find("blocks here") != std::string::npos) {
      has_block_site = true;
      EXPECT_EQ(s.line, 4u);
    }
  }
  EXPECT_TRUE(has_block_site) << ToText(findings);
}

TEST(AnalyzeBlocking, CondVarWaitUnderItsMutexIsTheLegitimatePattern) {
  auto findings = RunAnalyze({{"src/util/cv.h",
                        "namespace tabbench {\n"
                        "class Queue {\n"
                        " public:\n"
                        "  void WaitNonEmpty() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    while (size_ == 0) cv_.Wait(&mu_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  CondVar cv_;\n"
                        "  int size_ TB_GUARDED_BY(mu_) = 0;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-blocking-under-lock"), 0u)
      << ToText(findings);
}

TEST(AnalyzeBlocking, NonCondVarWaitUnderLockFires) {
  auto findings = RunAnalyze({{"src/util/latchwait.h",
                        "namespace tabbench {\n"
                        "class Latch { public: void Wait(); };\n"
                        "class Gate {\n"
                        " public:\n"
                        "  void Block() {\n"
                        "    MutexLock lock(&mu_);\n"
                        "    latch_.Wait();\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex mu_;\n"
                        "  Latch latch_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-blocking-under-lock"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-blocking-under-lock");
  EXPECT_NE(f->message.find("Latch::Wait()"), std::string::npos)
      << f->message;
}

// --------------------------------------------------- cancellation polls

TEST(AnalyzeCancellation, UnpolledInfiniteLoopInScopedDirFires) {
  auto findings = RunAnalyze({{"src/exec/vec/spin.cc",
                        "namespace tabbench {\n"
                        "void Spin(int* p) {\n"
                        "  for (;;) {\n"
                        "    *p += 1;\n"
                        "  }\n"
                        "}\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-cancellation-poll"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-cancellation-poll");
  EXPECT_EQ(f->line, 3u);
  EXPECT_NE(f->message.find("Spin"), std::string::npos) << f->message;
}

TEST(AnalyzeCancellation, PolledLoopAndOutOfScopeFilesAreQuiet) {
  auto findings = RunAnalyze(
      {{"src/exec/vec/ok.cc",
        "namespace tabbench {\n"
        "void Drive(const CancellationToken& cancel, int* p) {\n"
        "  for (;;) {\n"
        "    if (cancel.cancelled()) return;\n"
        "    *p += 1;\n"
        "  }\n"
        "}\n"
        "}  // namespace tabbench\n"},
       // Same unpolled loop, but storage is outside the liveness scope
       // (no long-running cancellable work lives there).
       {"src/storage/spin.cc",
        "namespace tabbench {\n"
        "void Churn(int* p) {\n"
        "  for (;;) {\n"
        "    *p += 1;\n"
        "  }\n"
        "}\n"
        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-cancellation-poll"), 0u)
      << ToText(findings);
}

TEST(AnalyzeCancellation, PollInsideACalleeCountsTransitively) {
  auto findings = RunAnalyze({{"src/service/drive.cc",
                        "namespace tabbench {\n"
                        "bool ShouldStop(const CancellationToken& t) {\n"
                        "  return t.cancelled();\n"
                        "}\n"
                        "void Drive(const CancellationToken& t) {\n"
                        "  for (;;) {\n"
                        "    if (ShouldStop(t)) return;\n"
                        "  }\n"
                        "}\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-cancellation-poll"), 0u)
      << ToText(findings);
}

// ------------------------------------------ lambda bodies in lock order

TEST(AnalyzeLockOrder, LambdaHeldMutexesContributeOrderingEdges) {
  // The PR-5 gap: a_ -> b_ nested *inside* a worker lambda must still
  // join the lock-order graph, or inversions hidden in job bodies pass.
  auto findings = RunAnalyze({{"src/service/lam.h",
                        "namespace tabbench {\n"
                        "class Lam {\n"
                        " public:\n"
                        "  void Go() {\n"
                        "    Submit([this] {\n"
                        "      MutexLock la(&a_);\n"
                        "      MutexLock lb(&b_);\n"
                        "    });\n"
                        "  }\n"
                        "  void Back() {\n"
                        "    MutexLock lb(&b_);\n"
                        "    MutexLock la(&a_);\n"
                        "  }\n"
                        " private:\n"
                        "  Mutex a_;\n"
                        "  Mutex b_;\n"
                        "};\n"
                        "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-lock-order"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-lock-order");
  EXPECT_NE(f->message.find("Lam::a_"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("Lam::b_"), std::string::npos) << f->message;
}

// ------------------------------------------------- fault-point coverage

TEST(AnalyzeFaultCoverage, ListsSitesPerLayerAndNamesZeroLayers) {
  const std::string report = FaultCoverageReport(
      {{"src/util/file.cc",
        "namespace tabbench {\n"
        "int Read() {\n"
        "  TB_FAULT_POINT(\"io.read\", fd);\n"
        "  return 0;\n"
        "}\n"
        "}  // namespace tabbench\n"},
       {"src/engine/db.cc", "namespace tabbench {\nint Db();\n}\n"}},
      LayeredOpts().layers);
  EXPECT_NE(report.find("util: 1 site"), std::string::npos) << report;
  EXPECT_NE(report.find("src/util/file.cc:3  io.read"), std::string::npos)
      << report;
  EXPECT_NE(report.find("layers with zero fault points:"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("engine"), std::string::npos) << report;
}

TEST(AnalyzeFaultCoverage, CountsSitesPerLayerStructured) {
  const auto counts = tabbench_analyze::FaultSitesPerLayer(
      {{"src/util/file.cc",
        "namespace tabbench {\n"
        "int Read() {\n"
        "  TB_FAULT_POINT(\"io.read\", fd);\n"
        "  TB_FAULT_POINT(\"io.read_retry\");\n"
        "  return 0;\n"
        "}\n"
        "}  // namespace tabbench\n"},
       {"src/engine/db.cc", "namespace tabbench {\nint Db();\n}\n"}},
      LayeredOpts().layers);
  EXPECT_EQ(counts.at("util"), 2u);
  EXPECT_EQ(counts.at("engine"), 0u);
  EXPECT_EQ(counts.at("service"), 0u);
}

TEST(AnalyzeFaultCoverage, RatchetHoldsAndTripsOnRegression) {
  // The site name carries the layer prefix: the naming check runs inside
  // CheckFaultCoverage too, and a nonconforming fixture would trip it.
  const std::vector<tabbench_analyze::SourceFile> files = {
      {"src/util/file.cc",
       "namespace tabbench {\n"
       "int Read() {\n"
       "  TB_FAULT_POINT(\"util.read\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  const LayerSpec layers = LayeredOpts().layers;

  // Floor satisfied (comments and blank lines are tolerated).
  EXPECT_TRUE(tabbench_analyze::CheckFaultCoverage(
                  files, layers, "# floor\n\nutil 1\n")
                  .empty());
  // A layer whose sites dropped below its floor trips the ratchet ...
  auto violations = tabbench_analyze::CheckFaultCoverage(
      files, layers, "util 1\nservice 1\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("'service'"), std::string::npos)
      << violations[0];
  // ... and so does a floor entry naming a layer that no longer exists.
  violations = tabbench_analyze::CheckFaultCoverage(files, layers,
                                                    "storage 1\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("not declared"), std::string::npos)
      << violations[0];
}

// --------------------------------- new rules in SARIF and the baseline

TEST(AnalyzeOutput, SarifCarriesTheConcurrencyRuleIds) {
  auto findings = RunAnalyze(
      {{"src/service/cache.h", kCacheFixture},
       {"src/exec/vec/spin.cc",
        "namespace tabbench {\n"
        "void Spin(int* p) {\n"
        "  for (;;) { *p += 1; }\n"
        "}\n"
        "}  // namespace tabbench\n"}});
  const std::string sarif = ToSarif(findings);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("tabbench-lockset-inconsistent"),
            std::string::npos);
  EXPECT_NE(sarif.find("tabbench-lockset-unannotated"), std::string::npos);
  EXPECT_NE(sarif.find("tabbench-cancellation-poll"), std::string::npos);
}

TEST(AnalyzeBaseline, ConcurrencyFindingsRoundTripThroughTheRatchet) {
  auto findings = RunAnalyze({{"src/service/cache.h", kCacheFixture}});
  ASSERT_GE(findings.size(), 2u) << ToText(findings);
  // Fresh against an empty baseline: strict mode would fail.
  EXPECT_EQ(DiffBaseline(findings, {}).fresh.size(), findings.size());
  // Absorbed by their own baseline: clean.
  std::vector<BaselineEntry> entries;
  std::string err;
  ASSERT_TRUE(ParseBaselineJson(ToBaselineJson(findings), &entries, &err))
      << err;
  auto diff = DiffBaseline(findings, entries);
  EXPECT_TRUE(diff.fresh.empty());
  EXPECT_TRUE(diff.stale.empty());
  EXPECT_EQ(diff.matched, findings.size());
}

TEST(AnalyzeSuppressions, NolintSilencesTheConcurrencyRules) {
  auto findings = RunAnalyze({{"src/exec/vec/spin.cc",
                        "namespace tabbench {\n"
                        "void Spin(int* p) {\n"
                        "  // NOLINTNEXTLINE(tabbench-cancellation-poll)\n"
                        "  for (;;) { *p += 1; }\n"
                        "}\n"
                        "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-cancellation-poll"), 0u)
      << ToText(findings);
}

// -------------------------------------------- acceptance: the real tree
//
// The analyzer keeps the *actual* service watchdog honest. Unmodified, it
// is clean; deliberately de-annotating its guarded state, or removing its
// tick loop's stop and cancellation polls, must surface as fresh findings a
// strict baseline run would reject.

std::string ReadRealFile(const std::string& rel) {
  std::ifstream in(std::string(TABBENCH_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

std::vector<SourceFile> RealWatchdog(const std::string& header,
                                     const std::string& source) {
  return {{"src/service/watchdog.h", header},
          {"src/service/watchdog.cc", source}};
}

TEST(AnalyzeAcceptance, RealWatchdogIsClean) {
  auto findings =
      RunAnalyze(RealWatchdog(ReadRealFile("src/service/watchdog.h"),
                              ReadRealFile("src/service/watchdog.cc")));
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(AnalyzeAcceptance, DeannotatingTheWatchdogSurfacesLocksetFindings) {
  const std::string stripped =
      ReplaceAll(ReadRealFile("src/service/watchdog.h"),
                 " TB_GUARDED_BY(mu_)", "");
  auto findings = RunAnalyze(
      RealWatchdog(stripped, ReadRealFile("src/service/watchdog.cc")));
  // stop_ / next_id_ / fires_ / watches_ / wake_ are all only ever touched
  // under mu_: stripping the annotations must yield re-annotation
  // suggestions.
  EXPECT_GE(CountRule(findings, "tabbench-lockset-unannotated"), 3u)
      << ToText(findings);
  // ... and a strict baseline run (empty baseline) rejects them.
  EXPECT_FALSE(DiffBaseline(findings, {}).fresh.empty());
}

TEST(AnalyzeAcceptance, RemovingTheWatchdogTickPollsSurfacesLiveness) {
  std::string depolled = ReadRealFile("src/service/watchdog.cc");
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"!stop_ && ", ""},
           {"if (stop_) return;", ""},
           {"CancellationToken wake;", "Token wake;"},
           {"SleepWithCancellation(", "SleepFor("},
           {"w.upstream->cancelled()", "false"}}) {
    ASSERT_NE(depolled.find(from), std::string::npos) << from;
    depolled = ReplaceAll(depolled, from, to);
  }
  auto findings = RunAnalyze(
      RealWatchdog(ReadRealFile("src/service/watchdog.h"), depolled));
  EXPECT_GE(CountRule(findings, "tabbench-cancellation-poll"), 1u)
      << ToText(findings);
  EXPECT_FALSE(DiffBaseline(findings, {}).fresh.empty());
}

// ------------------------------------------------------- CFG construction
//
// The path-sensitive passes are only as sound as the CFG under them, so
// the builder is pinned down directly: fixture bodies go through the same
// StripCommentsAndStrings + Tokenize front end the analyzer uses, and the
// tests assert block/edge shapes and dominator facts, not just "it parsed".

using tabbench_analyze::BuildCfg;
using tabbench_analyze::Cfg;
using tabbench_analyze::CfgBlockKind;
using tabbench_analyze::CfgEdgeKind;
using tabbench_analyze::CfgNpos;
using tabbench_analyze::ComputeDominators;
using tabbench_analyze::Dominates;
using tabbench_analyze::ParseProtocolSpec;
using tabbench_analyze::ProtocolSpec;
using tabbench_tok::Token;

std::vector<Token> Toks(const std::string& body) {
  return tabbench_tok::Tokenize(tabbench_tok::StripCommentsAndStrings(body));
}

size_t CountBlocks(const Cfg& cfg, CfgBlockKind kind) {
  size_t n = 0;
  for (const auto& b : cfg.blocks) n += b.kind == kind ? 1 : 0;
  return n;
}

size_t CountEdges(const Cfg& cfg, CfgEdgeKind kind) {
  size_t n = 0;
  for (const auto& b : cfg.blocks) {
    for (const auto& e : b.succ) n += e.kind == kind ? 1 : 0;
  }
  return n;
}

size_t EdgesInto(const Cfg& cfg, size_t to) {
  size_t n = 0;
  for (const auto& b : cfg.blocks) {
    for (const auto& e : b.succ) n += e.to == to ? 1 : 0;
  }
  return n;
}

// First block whose token range contains the identifier `text`.
size_t BlockWithIdent(const Cfg& cfg, const std::vector<Token>& toks,
                      const std::string& text) {
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    for (size_t t = cfg.blocks[i].tok_begin; t < cfg.blocks[i].tok_end; ++t) {
      if (toks[t].text == text) return i;
    }
  }
  return CfgNpos();
}

bool HasEdge(const Cfg& cfg, size_t from, size_t to, CfgEdgeKind kind) {
  if (from >= cfg.blocks.size()) return false;
  for (const auto& e : cfg.blocks[from].succ) {
    if (e.to == to && e.kind == kind) return true;
  }
  return false;
}

TEST(AnalyzeCfgBuilder, SwitchFallthroughSharesLandingsAndBreaksOut) {
  const auto toks = Toks(
      "switch (x) {\n"
      "  case 0:\n"
      "  case 1:\n"
      "    a();\n"
      "    break;\n"
      "  case 2:\n"
      "    b();\n"
      "  default:\n"
      "    c();\n"
      "}\n"
      "d();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  // entry, exit, switch head, after-join, three landings (case 0/1 share
  // one), a/b/c statements, the break block, and d() after the switch.
  EXPECT_EQ(cfg.blocks.size(), 12u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kSwitch), 1u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kJoin), 4u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kStmt), 5u);
  // Dispatch: one kCase edge per label, so the shared landing gets two.
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kCase), 4u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kBreak), 1u);

  const auto idom = ComputeDominators(cfg);
  // The head block holds only the switched expression, not the keyword.
  size_t head = CfgNpos();
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (cfg.blocks[i].kind == CfgBlockKind::kSwitch) head = i;
  }
  const size_t b_stmt = BlockWithIdent(cfg, toks, "b");
  const size_t c_stmt = BlockWithIdent(cfg, toks, "c");
  const size_t d_stmt = BlockWithIdent(cfg, toks, "d");
  ASSERT_NE(head, CfgNpos());
  ASSERT_NE(b_stmt, CfgNpos());
  ASSERT_NE(c_stmt, CfgNpos());
  ASSERT_NE(d_stmt, CfgNpos());
  // Every path to d() goes through the switch head ...
  EXPECT_TRUE(Dominates(idom, head, d_stmt));
  // ... but not through case 2's body: default reaches c() directly, the
  // b()->c() fallthrough is just one of two ways in.
  EXPECT_FALSE(Dominates(idom, b_stmt, c_stmt));
  bool fallthrough_to_join = false;
  for (const auto& e : cfg.blocks[b_stmt].succ) {
    fallthrough_to_join |= e.kind == CfgEdgeKind::kNext &&
                           cfg.blocks[e.to].kind == CfgBlockKind::kJoin;
  }
  EXPECT_TRUE(fallthrough_to_join);
}

TEST(AnalyzeCfgBuilder, SwitchWithoutDefaultCanSkipEveryCase) {
  const auto toks = Toks(
      "switch (x) {\n"
      "  case 0:\n"
      "    a();\n"
      "}\n"
      "y();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  EXPECT_EQ(cfg.blocks.size(), 7u);
  // head -> landing, plus the implicit head -> after edge for the missing
  // default: the case body must not dominate what follows the switch.
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kCase), 2u);
  const auto idom = ComputeDominators(cfg);
  const size_t a_stmt = BlockWithIdent(cfg, toks, "a");
  const size_t y_stmt = BlockWithIdent(cfg, toks, "y");
  ASSERT_NE(a_stmt, CfgNpos());
  ASSERT_NE(y_stmt, CfgNpos());
  EXPECT_FALSE(Dominates(idom, a_stmt, y_stmt));
}

TEST(AnalyzeCfgBuilder, NestedLoopsRouteBreakAndContinue) {
  const auto toks = Toks(
      "while (a) {\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (b) continue;\n"
      "    if (c) break;\n"
      "    work();\n"
      "  }\n"
      "  more();\n"
      "}\n"
      "tail();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  EXPECT_EQ(cfg.blocks.size(), 15u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kLoop), 2u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kBack), 2u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kContinue), 1u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kBreak), 1u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kTrue), 4u);

  const auto idom = ComputeDominators(cfg);
  const size_t inner_head = BlockWithIdent(cfg, toks, "n");  // i < n
  const size_t work = BlockWithIdent(cfg, toks, "work");
  const size_t cont = BlockWithIdent(cfg, toks, "continue");
  ASSERT_NE(inner_head, CfgNpos());
  ASSERT_NE(work, CfgNpos());
  ASSERT_NE(cont, CfgNpos());
  EXPECT_TRUE(Dominates(idom, inner_head, work));
  // continue targets the for-increment, i.e. the block that loops back to
  // the inner head — and does not dominate it (the straight-line body
  // reaches the increment too).
  size_t inc = CfgNpos();
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (HasEdge(cfg, i, inner_head, CfgEdgeKind::kBack)) inc = i;
  }
  ASSERT_NE(inc, CfgNpos());
  EXPECT_TRUE(HasEdge(cfg, cont, inc, CfgEdgeKind::kContinue));
  EXPECT_FALSE(Dominates(idom, cont, inc));
}

TEST(AnalyzeCfgBuilder, DoWhileBodyDominatesWhatFollows) {
  const auto toks = Toks(
      "do {\n"
      "  step();\n"
      "} while (again());\n"
      "done();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  EXPECT_EQ(cfg.blocks.size(), 7u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kLoop), 1u);
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kBack), 1u);
  const auto idom = ComputeDominators(cfg);
  const size_t step = BlockWithIdent(cfg, toks, "step");
  const size_t done = BlockWithIdent(cfg, toks, "done");
  ASSERT_NE(step, CfgNpos());
  ASSERT_NE(done, CfgNpos());
  // The defining do/while fact: the body runs at least once.
  EXPECT_TRUE(Dominates(idom, step, done));
}

TEST(AnalyzeCfgBuilder, ReturnsClassifyErrorFactoriesTernaryIncluded) {
  const auto toks = Toks(
      "if (x) {\n"
      "  return Status::Internal(\"boom\");\n"
      "}\n"
      "return ok ? a() : b();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  EXPECT_EQ(cfg.blocks.size(), 5u);
  EXPECT_EQ(CountBlocks(cfg, CfgBlockKind::kReturn), 2u);
  EXPECT_EQ(EdgesInto(cfg, cfg.exit), 2u);
  size_t error_returns = 0;
  for (const auto& b : cfg.blocks) {
    if (b.kind == CfgBlockKind::kReturn && b.error_return) ++error_returns;
  }
  // Status::Internal is a definite error exit; the ternary return is not.
  EXPECT_EQ(error_returns, 1u);
}

TEST(AnalyzeCfgBuilder, MacroHeavyBodiesKeepErrorEdgesAndOrder) {
  const auto toks = Toks(
      "TB_RETURN_IF_ERROR(Prep());\n"
      "TB_ASSIGN_OR_RETURN(v, Load());\n"
      "Use(v);\n"
      "return Status::OK();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  EXPECT_EQ(cfg.blocks.size(), 6u);
  // Each macro contributes a distinct error edge into the exit, on top of
  // the ordinary return edge.
  EXPECT_EQ(CountEdges(cfg, CfgEdgeKind::kErrorReturn), 2u);
  EXPECT_EQ(EdgesInto(cfg, cfg.exit), 3u);
  const auto idom = ComputeDominators(cfg);
  const size_t first_macro = BlockWithIdent(cfg, toks, "TB_RETURN_IF_ERROR");
  size_t ret = CfgNpos();
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    if (cfg.blocks[i].kind == CfgBlockKind::kReturn) ret = i;
  }
  ASSERT_NE(first_macro, CfgNpos());
  ASSERT_NE(ret, CfgNpos());
  EXPECT_TRUE(Dominates(idom, first_macro, ret));
  // Status::OK() is a success exit, not an error factory.
  EXPECT_FALSE(cfg.blocks[ret].error_return);
}

TEST(AnalyzeCfgBuilder, LambdaBodiesAreCarvedOutOfTheEnclosingPaths) {
  const auto toks = Toks(
      "auto f = [&](int q) { return q + 1; };\n"
      "pool.Submit([this] { Work(); });\n"
      "tail();\n");
  const Cfg cfg = BuildCfg(toks, 0, toks.size());
  ASSERT_EQ(cfg.lambda_bodies.size(), 2u);
  // The lambda statements run on their own schedule: they must not sit on
  // any enclosing-function path.
  EXPECT_EQ(BlockWithIdent(cfg, toks, "Work"), CfgNpos());
  // Each carved range builds as its own unit.
  const Cfg inner =
      BuildCfg(toks, cfg.lambda_bodies[0].first, cfg.lambda_bodies[0].second);
  EXPECT_EQ(inner.blocks.size(), 3u);
  EXPECT_EQ(CountBlocks(inner, CfgBlockKind::kReturn), 1u);
}

// ------------------------------------------------------- protocol specs

TEST(AnalyzeProtocolSpec, ParsesOpsArgsAndMultiValueLines) {
  ProtocolSpec spec;
  std::string err;
  ASSERT_TRUE(ParseProtocolSpec(
      "# two protocols, multi-value lines, one arg-qualified op\n"
      "protocol journal\n"
      "file src/util/j.cc src/util/j2.cc\n"
      "sync SyncAll WriteAndSync\n"
      "commit Expose EnterState:kLive\n"
      "begin BeginUnit\n"
      "abort AbortUnit\n"
      "\n"
      "protocol other\n"
      "file src/core/o.cc\n"
      "sync Flush\n"
      "commit Publish\n",
      &spec, &err))
      << err;
  ASSERT_EQ(spec.protocols.size(), 2u);
  const auto& j = spec.protocols[0];
  EXPECT_EQ(j.name, "journal");
  ASSERT_EQ(j.files.size(), 2u);
  ASSERT_EQ(j.sync.size(), 2u);
  EXPECT_EQ(j.sync[1], "WriteAndSync");
  ASSERT_EQ(j.commit.size(), 2u);
  EXPECT_EQ(j.commit[0].name, "Expose");
  EXPECT_TRUE(j.commit[0].arg.empty());
  EXPECT_EQ(j.commit[1].name, "EnterState");
  EXPECT_EQ(j.commit[1].arg, "kLive");
  ASSERT_EQ(j.begin.size(), 1u);
  ASSERT_EQ(j.abort.size(), 1u);
  EXPECT_EQ(spec.protocols[1].name, "other");
}

TEST(AnalyzeProtocolSpec, RejectsMalformedSpecs) {
  ProtocolSpec spec;
  std::string err;
  EXPECT_FALSE(ParseProtocolSpec("file src/x.cc\n", &spec, &err));
  EXPECT_NE(err.find("protocols.txt:1"), std::string::npos) << err;
  spec = {};
  EXPECT_FALSE(ParseProtocolSpec("protocol p\nfrobnicate x\n", &spec, &err));
  spec = {};
  EXPECT_FALSE(ParseProtocolSpec("protocol p\nprotocol p\n", &spec, &err));
}

// A fixture protocol for src/util/j.cc: the durable write is SyncAll(),
// the externalization is Expose(), and BeginUnit/AbortUnit bracket a
// journaled unit of work.
Options ProtoOpts() {
  Options opts;
  std::string err;
  EXPECT_TRUE(ParseProtocolSpec(
      "protocol journal\n"
      "file src/util/j.cc\n"
      "sync SyncAll\n"
      "commit Expose\n"
      "begin BeginUnit\n"
      "abort AbortUnit\n",
      &opts.protocols, &err))
      << err;
  return opts;
}

// ------------------------------------------------- durability ordering

TEST(AnalyzeDurability, SyncBeforeCommitOnEveryPathIsQuiet) {
  auto findings = RunAnalyze({{"src/util/j.cc",
                               "namespace tabbench {\n"
                               "Status SyncAll();\n"
                               "void Expose();\n"
                               "Status Commit() {\n"
                               "  TB_RETURN_IF_ERROR(SyncAll());\n"
                               "  Expose();\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}},
                             ProtoOpts());
  EXPECT_EQ(CountRule(findings, "tabbench-durability-ordering"), 0u)
      << ToText(findings);
}

TEST(AnalyzeDurability, CommitReachableBeforeSyncOnOnePathIsFlagged) {
  auto findings = RunAnalyze({{"src/util/j.cc",
                               "namespace tabbench {\n"
                               "Status SyncAll();\n"
                               "void Expose();\n"
                               "Status Commit(bool fast) {\n"
                               "  if (fast) {\n"
                               "    Expose();\n"
                               "    return Status::OK();\n"
                               "  }\n"
                               "  TB_RETURN_IF_ERROR(SyncAll());\n"
                               "  Expose();\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}},
                             ProtoOpts());
  ASSERT_EQ(CountRule(findings, "tabbench-durability-ordering"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-durability-ordering");
  EXPECT_EQ(f->line, 6u);  // the fast-path Expose, not the synced one
  EXPECT_NE(f->message.find("journal"), std::string::npos) << f->message;
}

TEST(AnalyzeDurability, SyncThroughCalleeCountsOnlyWhenUnconditional) {
  // Flush() fsyncs on every success return, so calling it is as good as
  // the root sync op ...
  auto findings = RunAnalyze({{"src/util/j.cc",
                               "namespace tabbench {\n"
                               "Status SyncAll();\n"
                               "void Expose();\n"
                               "Status Flush() {\n"
                               "  TB_RETURN_IF_ERROR(SyncAll());\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "Status Commit() {\n"
                               "  TB_RETURN_IF_ERROR(Flush());\n"
                               "  Expose();\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}},
                             ProtoOpts());
  EXPECT_EQ(CountRule(findings, "tabbench-durability-ordering"), 0u)
      << ToText(findings);
  // ... but a callee that only syncs on one branch does not launder the
  // ordering obligation away.
  findings = RunAnalyze({{"src/util/j.cc",
                          "namespace tabbench {\n"
                          "Status SyncAll();\n"
                          "void Expose();\n"
                          "Status Flush(bool b) {\n"
                          "  if (b) {\n"
                          "    TB_RETURN_IF_ERROR(SyncAll());\n"
                          "  }\n"
                          "  return Status::OK();\n"
                          "}\n"
                          "Status Commit() {\n"
                          "  TB_RETURN_IF_ERROR(Flush(true));\n"
                          "  Expose();\n"
                          "  return Status::OK();\n"
                          "}\n"
                          "}  // namespace tabbench\n"}},
                        ProtoOpts());
  EXPECT_EQ(CountRule(findings, "tabbench-durability-ordering"), 1u)
      << ToText(findings);
}

// ------------------------------------------------------ release on path

TEST(AnalyzeReleaseOnPath, BalancedAcquireReleaseIsQuiet) {
  auto findings = RunAnalyze({{"src/util/r.cc",
                               "namespace tabbench {\n"
                               "void Balanced(Mutex& mu, bool fast) {\n"
                               "  mu.Lock();\n"
                               "  if (fast) {\n"
                               "    mu.Unlock();\n"
                               "    return;\n"
                               "  }\n"
                               "  mu.Unlock();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-release-on-path"), 0u)
      << ToText(findings);
}

TEST(AnalyzeReleaseOnPath, EarlyReturnWhileHoldingIsFlagged) {
  auto findings = RunAnalyze({{"src/util/r.cc",
                               "namespace tabbench {\n"
                               "void Leaky(Mutex& mu, bool fast) {\n"
                               "  mu.Lock();\n"
                               "  if (fast) {\n"
                               "    return;\n"
                               "  }\n"
                               "  mu.Unlock();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-release-on-path"), 1u)
      << ToText(findings);
  const Finding* f = FindRule(findings, "tabbench-release-on-path");
  EXPECT_EQ(f->line, 3u);  // anchored at the acquire
  EXPECT_FALSE(f->related.empty());  // ... pointing at the escaping edge
}

TEST(AnalyzeReleaseOnPath, HandoffPairsAreOnlyEnforcedWhenReleasedHere) {
  // Watch() handed to the caller: no Release in this function, so the
  // non-strict pair stays quiet ...
  auto findings = RunAnalyze({{"src/util/r.cc",
                               "namespace tabbench {\n"
                               "uint64_t Handoff(Watchdog& wd) {\n"
                               "  return wd.Watch();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-release-on-path"), 0u)
      << ToText(findings);
  // ... but once the function releases on some path, every path owes one.
  findings = RunAnalyze({{"src/util/r.cc",
                          "namespace tabbench {\n"
                          "void Mixed(Watchdog& wd, bool fast) {\n"
                          "  uint64_t id = wd.Watch();\n"
                          "  if (fast) {\n"
                          "    return;\n"
                          "  }\n"
                          "  wd.Release(id);\n"
                          "}\n"
                          "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-release-on-path"), 1u)
      << ToText(findings);
}

TEST(AnalyzeReleaseOnPath, LockTransferAnnotationExemptsTheFunction) {
  auto findings = RunAnalyze({{"src/util/r.cc",
                               "namespace tabbench {\n"
                               "void Adopt(Mutex& mu) TB_ACQUIRE(mu) {\n"
                               "  mu.Lock();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-release-on-path"), 0u)
      << ToText(findings);
}

TEST(AnalyzeSuppressions, NolintSilencesReleaseOnPath) {
  auto findings = RunAnalyze({{"src/util/r.cc",
                               "namespace tabbench {\n"
                               "void Leaky(Mutex& mu, bool fast) {\n"
                               "  // NOLINTNEXTLINE(tabbench-release-on-path)\n"
                               "  mu.Lock();\n"
                               "  if (fast) {\n"
                               "    return;\n"
                               "  }\n"
                               "  mu.Unlock();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-release-on-path"), 0u)
      << ToText(findings);
}

// --------------------------------------------------- error-path soundness

TEST(AnalyzeErrorPath, ValueUseUnderMustErrorIsFlagged) {
  auto findings = RunAnalyze({{"src/util/e.cc",
                               "namespace tabbench {\n"
                               "int Consume(int v);\n"
                               "Status Use(Result r) {\n"
                               "  if (!r.ok()) {\n"
                               "    Consume(*r);\n"
                               "    return r.status();\n"
                               "  }\n"
                               "  Consume(*r);\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-error-path"), 1u)
      << ToText(findings);
  EXPECT_EQ(FindRule(findings, "tabbench-error-path")->line, 5u);
}

TEST(AnalyzeErrorPath, AllowedErrorAccessorsAreQuiet) {
  auto findings = RunAnalyze({{"src/util/e.cc",
                               "namespace tabbench {\n"
                               "void Note(const std::string& s);\n"
                               "Status Log(Result r) {\n"
                               "  if (!r.ok()) {\n"
                               "    Note(r.ToString());\n"
                               "    return r.status();\n"
                               "  }\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-error-path"), 0u)
      << ToText(findings);
}

TEST(AnalyzeErrorPath, BeginWithoutAbortAtErrorExitIsFlagged) {
  // The TB_RETURN_IF_ERROR error edge leaves before AbortUnit() runs.
  auto findings = RunAnalyze({{"src/util/j.cc",
                               "namespace tabbench {\n"
                               "Status Step();\n"
                               "Status Work() {\n"
                               "  BeginUnit();\n"
                               "  TB_RETURN_IF_ERROR(Step());\n"
                               "  AbortUnit();\n"
                               "  return Status::OK();\n"
                               "}\n"
                               "}  // namespace tabbench\n"}},
                             ProtoOpts());
  ASSERT_EQ(CountRule(findings, "tabbench-error-path"), 1u)
      << ToText(findings);
  EXPECT_NE(FindRule(findings, "tabbench-error-path")
                ->message.find("journaled unit"),
            std::string::npos);
  // Aborting before the error return closes the unit: quiet.
  findings = RunAnalyze({{"src/util/j.cc",
                          "namespace tabbench {\n"
                          "Status Step();\n"
                          "Status Work() {\n"
                          "  BeginUnit();\n"
                          "  Status st = Step();\n"
                          "  if (!st.ok()) {\n"
                          "    AbortUnit();\n"
                          "    return Status::Internal(\"step failed\");\n"
                          "  }\n"
                          "  return Status::OK();\n"
                          "}\n"
                          "}  // namespace tabbench\n"}},
                        ProtoOpts());
  EXPECT_EQ(CountRule(findings, "tabbench-error-path"), 0u)
      << ToText(findings);
}

TEST(AnalyzeErrorPath, BlockingRetryWithoutRecheckIsFlagged) {
  auto findings = RunAnalyze({{"src/util/e.cc",
                               "namespace tabbench {\n"
                               "Status Attempt();\n"
                               "void Retry() {\n"
                               "  for (;;) {\n"
                               "    Status st = Attempt();\n"
                               "    if (st.ok()) {\n"
                               "      return;\n"
                               "    }\n"
                               "    SleepWithCancellation(1.0);\n"
                               "  }\n"
                               "}\n"
                               "}  // namespace tabbench\n"}});
  ASSERT_EQ(CountRule(findings, "tabbench-error-path"), 1u)
      << ToText(findings);
  EXPECT_NE(
      FindRule(findings, "tabbench-error-path")->message.find("re-enter"),
      std::string::npos);
  // Consulting the sleep's status before looping again is the fix.
  findings = RunAnalyze({{"src/util/e.cc",
                          "namespace tabbench {\n"
                          "Status Attempt();\n"
                          "void Retry() {\n"
                          "  for (;;) {\n"
                          "    Status st = Attempt();\n"
                          "    if (st.ok()) {\n"
                          "      return;\n"
                          "    }\n"
                          "    Status slept = SleepWithCancellation(1.0);\n"
                          "    if (!slept.ok()) {\n"
                          "      return;\n"
                          "    }\n"
                          "  }\n"
                          "}\n"
                          "}  // namespace tabbench\n"}});
  EXPECT_EQ(CountRule(findings, "tabbench-error-path"), 0u)
      << ToText(findings);
}

// -------------------------------------------- fault-point naming checks

TEST(AnalyzeFaultNaming, ConformingNamesAreQuiet) {
  const std::vector<SourceFile> files = {
      {"src/util/file.cc",
       "namespace tabbench {\n"
       "int Read() {\n"
       "  TB_FAULT_POINT(\"util.file_read\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  EXPECT_TRUE(
      tabbench_analyze::CheckFaultCoverage(files, LayeredOpts().layers,
                                           "util 1\n")
          .empty());
}

TEST(AnalyzeFaultNaming, LayerMismatchAndFormatViolationsTrip) {
  const std::vector<SourceFile> files = {
      {"src/util/file.cc",
       "namespace tabbench {\n"
       "int Read() {\n"
       "  TB_FAULT_POINT(\"service.read\");\n"
       "  TB_FAULT_POINT(\"BadName\");\n"
       "  TB_FAULT_POINT(\"util.read\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  const auto violations = tabbench_analyze::CheckFaultCoverage(
      files, LayeredOpts().layers, "util 3\n");
  ASSERT_EQ(violations.size(), 2u) << (violations.empty() ? "" : violations[0]);
  EXPECT_NE(violations[0].find("service.read"), std::string::npos)
      << violations[0];
  EXPECT_NE(violations[1].find("BadName"), std::string::npos) << violations[1];
  // The human-readable report surfaces the same list.
  const std::string report =
      FaultCoverageReport(files, LayeredOpts().layers);
  EXPECT_NE(report.find("naming-convention"), std::string::npos) << report;
}

TEST(AnalyzeFaultNaming, UnderscoreLayerNamesMatchDottedPrefixes) {
  Options opts;
  std::string err;
  ASSERT_TRUE(ParseLayerSpec("layer net_io: src/net/io\n", &opts.layers,
                             &err))
      << err;
  // Both spellings name the layer: net_io.claim and net.io.read.
  const std::vector<SourceFile> quiet = {
      {"src/net/io/m.cc",
       "namespace tabbench {\n"
       "int Claim() {\n"
       "  TB_FAULT_POINT(\"net.io.read\");\n"
       "  TB_FAULT_POINT(\"net_io.claim\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  EXPECT_TRUE(tabbench_analyze::CheckFaultCoverage(quiet, opts.layers,
                                                   "net_io 2\n")
                  .empty());
  const std::vector<SourceFile> lying = {
      {"src/net/io/m.cc",
       "namespace tabbench {\n"
       "int Claim() {\n"
       "  TB_FAULT_POINT(\"storage.claim\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  const auto violations = tabbench_analyze::CheckFaultCoverage(
      lying, opts.layers, "net_io 1\n");
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("storage.claim"), std::string::npos)
      << violations[0];
  // Sites outside every declared layer only owe the format rule.
  const std::vector<SourceFile> outside = {
      {"tools/x.cc",
       "namespace tabbench {\n"
       "int Go() {\n"
       "  TB_FAULT_POINT(\"anything.goes\");\n"
       "  return 0;\n"
       "}\n"
       "}  // namespace tabbench\n"}};
  EXPECT_TRUE(
      tabbench_analyze::CheckFaultCoverage(outside, opts.layers, "").empty());
}

// --------------------------------------------- cpptok raw-string handling

TEST(CpptokRawStrings, EncodingPrefixedRawStringsAreBlanked) {
  const std::string src =
      "const wchar_t* w = LR\"(say \"hi\" to them)\";\n"
      "const char* a = u8R\"x(quote \" inside)x\";\n"
      "const char* b = uR\"(another \" one)\";\n"
      "const char* c = UR\"(last \" one)\";\n"
      "const char* d = R\"y(plain \" quote)y\";\n"
      "int live = 1;\n";
  const std::string stripped = tabbench_tok::StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("hi"), std::string::npos);
  EXPECT_EQ(stripped.find("inside"), std::string::npos);
  bool saw_live = false;
  for (const Token& t : tabbench_tok::Tokenize(stripped)) {
    // Before the prefix fix, LR"(...)" was scanned as an ordinary string,
    // terminated at the first embedded quote, and leaked the tail of every
    // literal below it into the token stream.
    EXPECT_NE(t.text, "say");
    EXPECT_NE(t.text, "quote");
    EXPECT_NE(t.text, "another");
    EXPECT_NE(t.text, "last");
    EXPECT_NE(t.text, "plain");
    saw_live |= t.text == "live";
  }
  EXPECT_TRUE(saw_live);
}

TEST(CpptokRawStrings, IdentifierEndingInPrefixLettersIsNotARawIntro) {
  // The L here belongs to the identifier: this is MACROLR followed by an
  // ordinary string literal, not a raw-string introducer.
  const std::string src = "int y = MACROLR\"(not raw)\";\nint z = 2;\n";
  bool saw_macro = false, saw_z = false;
  for (const Token& t :
       tabbench_tok::Tokenize(tabbench_tok::StripCommentsAndStrings(src))) {
    EXPECT_NE(t.text, "raw");
    saw_macro |= t.text == "MACROLR";
    saw_z |= t.text == "z";
  }
  EXPECT_TRUE(saw_macro);
  EXPECT_TRUE(saw_z);
}

// ------------------------------- acceptance: the real durability paths
//
// Same contract as the watchdog block above, now for the CFG
// passes: the real journal writer and retry loop are clean as written;
// deleting the fsync, converting the scoped lock to manual calls, or
// dropping the post-sleep cancellation check must each come back as fresh
// strict-baseline failures.

Options RealProtoOpts() {
  Options opts;
  std::string err;
  EXPECT_TRUE(ParseProtocolSpec(ReadRealFile("tools/analyze/protocols.txt"),
                                &opts.protocols, &err))
      << err;
  return opts;
}

TEST(AnalyzeAcceptance, RealRunJournalIsClean) {
  auto findings = RunAnalyze(
      {{"src/util/run_journal.h", ReadRealFile("src/util/run_journal.h")},
       {"src/util/run_journal.cc", ReadRealFile("src/util/run_journal.cc")}},
      RealProtoOpts());
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(AnalyzeAcceptance, RemovingTheFsyncSurfacesDurabilityOrdering) {
  const std::string orig = ReadRealFile("src/util/run_journal.cc");
  const std::string nofsync =
      ReplaceAll(orig, "if (::fsync(fd) != 0)", "if (false)");
  ASSERT_NE(nofsync, orig);  // the anchor text still exists in the source
  auto findings = RunAnalyze(
      {{"src/util/run_journal.h", ReadRealFile("src/util/run_journal.h")},
       {"src/util/run_journal.cc", nofsync}},
      RealProtoOpts());
  // Both Append overloads externalize via raise(SIGKILL) crash points that
  // the journal can no longer replay past.
  EXPECT_GE(CountRule(findings, "tabbench-durability-ordering"), 2u)
      << ToText(findings);
  EXPECT_FALSE(DiffBaseline(findings, {}).fresh.empty());
}

TEST(AnalyzeAcceptance, ManualLockingSurfacesReleaseOnPath) {
  const std::string orig = ReadRealFile("src/util/run_journal.cc");
  const std::string manual =
      ReplaceAll(orig, "MutexLock lock(&mu_);", "mu_.Lock();");
  ASSERT_NE(manual, orig);
  auto findings = RunAnalyze(
      {{"src/util/run_journal.h", ReadRealFile("src/util/run_journal.h")},
       {"src/util/run_journal.cc", manual}},
      RealProtoOpts());
  // Every converted function has a TB_RETURN_IF_ERROR or early return
  // between Lock and the implicit end-of-scope release it just lost.
  EXPECT_GE(CountRule(findings, "tabbench-release-on-path"), 2u)
      << ToText(findings);
  EXPECT_FALSE(DiffBaseline(findings, {}).fresh.empty());
}

TEST(AnalyzeAcceptance, RealWorkloadServiceIsClean) {
  auto findings = RunAnalyze({{"src/service/workload_service.cc",
                               ReadRealFile("src/service/workload_service.cc")}},
                             RealProtoOpts());
  EXPECT_TRUE(findings.empty()) << ToText(findings);
}

TEST(AnalyzeAcceptance, DroppingTheSleepCheckSurfacesErrorPath) {
  const std::string orig = ReadRealFile("src/service/workload_service.cc");
  std::string unchecked =
      ReplaceAll(orig, "if (!slept.ok()) return slept;", ";");
  unchecked = ReplaceAll(unchecked, "Status slept = SleepWithCancellation",
                         "(void)SleepWithCancellation");
  ASSERT_NE(unchecked, orig);
  auto findings =
      RunAnalyze({{"src/service/workload_service.cc", unchecked}},
                 RealProtoOpts());
  EXPECT_GE(CountRule(findings, "tabbench-error-path"), 1u)
      << ToText(findings);
  EXPECT_FALSE(DiffBaseline(findings, {}).fresh.empty());
}

}  // namespace
