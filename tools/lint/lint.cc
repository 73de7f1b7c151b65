#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <regex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cpptok.h"

namespace tabbench_lint {

namespace {

// Source preprocessing lives in tools/common/cpptok (shared with
// tools/analyze): comment/string stripping for the code the rules scan,
// comment-only text for the suppression markers.
using tabbench_tok::KeepCommentsOnly;
using tabbench_tok::SplitLines;
using tabbench_tok::StripCommentsAndStrings;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

// ---------------------------------------------------------------------------
// Suppressions: NOLINT(rule) / NOLINT on the offending line,
// NOLINTNEXTLINE(rule) on the preceding line, NOLINTFILE(rule) anywhere.
//
// Markers are parsed from comment text only (KeepCommentsOnly), so a marker
// quoted inside a string literal — e.g. a fixture snippet embedded in
// tests/lint_test.cc — cannot silently suppress rules across the file that
// quotes it.
// ---------------------------------------------------------------------------

struct Suppressions {
  // line (1-based) -> rules suppressed there ("*" = all).
  std::unordered_map<size_t, std::unordered_set<std::string>> by_line;
  std::unordered_set<std::string> whole_file;

  bool Suppressed(size_t line, const std::string& rule) const {
    if (whole_file.count("*") != 0 || whole_file.count(rule) != 0) {
      return true;
    }
    auto it = by_line.find(line);
    if (it == by_line.end()) return false;
    return it->second.count("*") != 0 || it->second.count(rule) != 0;
  }
};

void AddRuleList(const std::string& args,
                 std::unordered_set<std::string>* out) {
  if (args.empty()) {
    out->insert("*");
    return;
  }
  std::stringstream ss(args);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
               rule.end());
    if (!rule.empty()) out->insert(rule);
  }
}

Suppressions ParseSuppressions(
    const std::vector<std::string>& comment_lines) {
  static const std::regex kMarker(
      R"(NOLINT(NEXTLINE|FILE)?\s*(?:\(([^)]*)\))?)");
  Suppressions sup;
  for (size_t ln = 0; ln < comment_lines.size(); ++ln) {
    auto begin = std::sregex_iterator(comment_lines[ln].begin(),
                                      comment_lines[ln].end(), kMarker);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string kind = (*it)[1].str();
      const std::string args = (*it)[2].str();
      if (kind == "FILE") {
        AddRuleList(args, &sup.whole_file);
      } else if (kind == "NEXTLINE") {
        AddRuleList(args, &sup.by_line[ln + 2]);
      } else {
        AddRuleList(args, &sup.by_line[ln + 1]);
      }
    }
  }
  return sup;
}

// ---------------------------------------------------------------------------
// Per-file analysis state shared by the rules
// ---------------------------------------------------------------------------

struct FileState {
  SourceFile* file = nullptr;
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // comments/strings blanked
  Suppressions sup;
};

void Report(const FileState& fs, size_t line, const char* rule,
            std::string message, bool fixable,
            std::vector<Finding>* findings) {
  if (fs.sup.Suppressed(line, rule)) return;
  findings->push_back(
      Finding{fs.file->path, line, rule, std::move(message), fixable});
}

// ---------------------------------------------------------------------------
// Rule: tabbench-determinism
//
// The paper's measurements are only meaningful if A(W,C) is a function —
// same workload, same configuration, same number — so the benchmark result
// paths (src/core, src/engine, src/exec) must not read ambient entropy or
// wall clocks. All randomness flows through util/rng.h (explicit seed).
// ---------------------------------------------------------------------------

void CheckDeterminism(const FileState& fs, std::vector<Finding>* findings) {
  const std::string& p = fs.file->path;
  // src/exec is in scope too: the executor computes every simulated charge,
  // which an ambient-entropy or wall-clock read would silently perturb.
  if (!StartsWith(p, "src/core/") && !StartsWith(p, "src/engine/") &&
      !StartsWith(p, "src/exec/")) {
    return;
  }
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const Pattern kPatterns[] = {
      {std::regex(R"(\b(?:std\s*::\s*)?s?rand\s*\()"),
       "rand()/srand() is ambient entropy"},
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device is ambient entropy"},
      {std::regex(R"(\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"),
       "time(nullptr) reads the wall clock"},
      {std::regex(R"(\bsystem_clock\s*::\s*now\s*\(\s*\))"),
       "system_clock::now() reads the wall clock"},
  };
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    for (const auto& pat : kPatterns) {
      if (std::regex_search(fs.code_lines[ln], pat.re)) {
        Report(fs, ln + 1, "tabbench-determinism",
               std::string(pat.what) +
                   "; benchmark result paths must draw randomness from an "
                   "explicitly seeded util/rng.h Rng",
               false, findings);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-naked-new
// ---------------------------------------------------------------------------

void CheckNakedNew(const FileState& fs, std::vector<Finding>* findings) {
  static const std::regex kNew(R"(\bnew\b(?!\s*;))");
  static const std::regex kDeletedFn(R"(=\s*delete\b)");
  static const std::regex kDelete(R"(\bdelete\b)");
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    const std::string& line = fs.code_lines[ln];
    if (std::regex_search(line, kNew)) {
      Report(fs, ln + 1, "tabbench-naked-new",
             "naked `new`; use std::make_unique/std::make_shared so "
             "ownership is explicit and exception-safe",
             false, findings);
    }
    // `= delete` (deleted special members) is not a deallocation.
    std::string scrubbed = std::regex_replace(line, kDeletedFn, "");
    if (std::regex_search(scrubbed, kDelete)) {
      Report(fs, ln + 1, "tabbench-naked-new",
             "naked `delete`; owning pointers should be std::unique_ptr "
             "so destruction is automatic",
             false, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-raw-sleep
//
// Waiting in product code must stay cancellation- and deadline-aware: a raw
// std::this_thread sleep cannot be interrupted, so a cancelled job (or an
// expired wall budget) would hang for the whole delay. All blocking delays
// go through util/retry.h's SleepWithCancellation; its implementation in
// src/util/retry.cc is the one sanctioned raw-sleep site (it sleeps in
// ~1ms poll slices between cancellation checks).
// ---------------------------------------------------------------------------

void CheckRawSleep(const FileState& fs, std::vector<Finding>* findings) {
  std::string p = fs.file->path;
  if (StartsWith(p, "./")) p = p.substr(2);
  if (!StartsWith(p, "src/")) return;  // tests/bench may sleep deliberately
  if (p == "src/util/retry.cc") return;  // the sanctioned poll-slice sleep
  static const std::regex kSleep(
      R"(\bthis_thread\s*::\s*sleep_(for|until)\s*\()");
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    if (std::regex_search(fs.code_lines[ln], kSleep)) {
      Report(fs, ln + 1, "tabbench-raw-sleep",
             "raw this_thread sleep cannot be cancelled; use "
             "SleepWithCancellation from util/retry.h so delays stay "
             "cancellation- and deadline-aware",
             false, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-float-equal
//
// Cost and CFC arithmetic is floating point end to end; == against a float
// literal is almost always a latent bug (and a replay hazard: two
// plattforms' FP rounding can diverge). Applies to the cost/CFC files.
// ---------------------------------------------------------------------------

void CheckFloatEqual(const FileState& fs, std::vector<Finding>* findings) {
  static const std::regex kScope(
      R"((cost_model|cfc|improvement|goal)[^/]*\.(h|cc)$)");
  if (!std::regex_search(fs.file->path, kScope)) return;
  // A float literal adjacent to == or != on either side.
  static const std::regex kFloatEq(
      R"((?:[=!]=\s*[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?\b)|(?:\b(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?\s*[=!]=))");
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    if (std::regex_search(fs.code_lines[ln], kFloatEq)) {
      Report(fs, ln + 1, "tabbench-float-equal",
             "floating-point equality comparison in cost/CFC code; compare "
             "with an explicit tolerance (std::abs(a - b) < eps) or "
             "restructure to avoid the comparison",
             false, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unsynced-write
//
// Benchmark artifacts must survive a crash: src/core and src/service write
// results through util/file_util.h (AtomicWriteFile: temp file + rename,
// crc32c trailer) or the fsync'd run journal (util/run_journal.h). A direct
// std::ofstream — or C stdio opened for writing — bypasses both: a SIGKILL
// mid-write leaves a torn, checksum-less file that the resume machinery
// cannot trust. Reads (ifstream) are fine.
// ---------------------------------------------------------------------------

void CheckUnsyncedWrite(const FileState& fs,
                        std::vector<Finding>* findings) {
  std::string p = fs.file->path;
  if (StartsWith(p, "./")) p = p.substr(2);
  if (!StartsWith(p, "src/core/") && !StartsWith(p, "src/service/")) return;
  static const std::regex kOfstream(
      R"(\b(?:std\s*::\s*)?(?:ofstream|fstream)\b)");
  static const std::regex kPreprocessor(R"(^\s*#)");
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    // `#include <fstream>` names the header, not a write.
    if (std::regex_search(fs.code_lines[ln], kPreprocessor)) continue;
    if (std::regex_search(fs.code_lines[ln], kOfstream)) {
      Report(fs, ln + 1, "tabbench-unsynced-write",
             "direct ofstream/fstream in src/core|src/service bypasses the "
             "durable write paths; save artifacts via AtomicWriteFile "
             "(util/file_util.h, crc32c trailer) or append to the fsync'd "
             "run journal (util/run_journal.h)",
             false, findings);
    }
  }
  // fopen with a write/append mode string ("w", "a", "r+", "wb", ...). The
  // mode is a string literal, which the stripper blanks, so scan raw lines.
  static const std::regex kFopenWrite(
      R"(\bfopen\s*\([^;]*,\s*"[^"]*[wa+][^"]*")");
  for (size_t ln = 0; ln < fs.raw_lines.size(); ++ln) {
    if (std::regex_search(fs.raw_lines[ln], kFopenWrite)) {
      Report(fs, ln + 1, "tabbench-unsynced-write",
             "fopen for writing in src/core|src/service bypasses the "
             "durable write paths; use AtomicWriteFile or the run journal",
             false, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unchecked-status
//
// Regex-level twin of [[nodiscard]] on Status/Result: a whole-statement
// call to a function declared (anywhere in the analyzed set) as returning
// Status or Result<T>, with the value discarded.
// ---------------------------------------------------------------------------

std::unordered_set<std::string> CollectStatusFunctions(
    const std::vector<FileState>& states) {
  // Matches declarations/definitions like:
  //   Status Submit(...)        Result<double> SessionClock(...)
  //   static Status OK()        Status ThreadPool::Submit(...)
  static const std::regex kDecl(
      R"(\b(?:Status|Result\s*<[^;{}=]*>)\s+(?:\w+\s*::\s*)?(\w+)\s*\()");
  // Name-level analysis cannot resolve overloads, so a name that is *also*
  // declared with a non-Status return type anywhere (e.g. void
  // BTree::Insert vs Status Database::Insert) is ambiguous and skipped —
  // [[nodiscard]] catches the real Status overloads at compile time anyway.
  static const std::regex kOtherDecl(
      R"(\b(?:void|bool|int|size_t|uint64_t|int64_t|double)\s+(?:\w+\s*::\s*)?(\w+)\s*\()");
  std::unordered_set<std::string> names;
  std::unordered_set<std::string> ambiguous;
  for (const auto& fs : states) {
    for (const auto& line : fs.code_lines) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kDecl);
           it != std::sregex_iterator(); ++it) {
        names.insert((*it)[1].str());
      }
      for (auto it =
               std::sregex_iterator(line.begin(), line.end(), kOtherDecl);
           it != std::sregex_iterator(); ++it) {
        ambiguous.insert((*it)[1].str());
      }
    }
  }
  // Order-insensitive: set subtraction only.
  for (const auto& name : ambiguous) {  // NOLINT(tabbench-unordered-iter)
    names.erase(name);
  }
  return names;
}

void CheckUncheckedStatus(const FileState& fs,
                          const std::unordered_set<std::string>& status_fns,
                          std::vector<Finding>* findings) {
  // A full-statement call on one line: `Foo(...)`, `obj.Foo(...)`,
  // `ptr->Foo(...)`, `Ns::Foo(...)` ... ending in `;` with nothing
  // consuming the value.
  static const std::regex kBareCall(
      R"(^\s*(?:[A-Za-z_]\w*(?:\s*(?:\.|->|::)\s*))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$)");
  auto is_continuation = [&fs](size_t ln) {
    // A line is a continuation when the previous non-blank code line does
    // not end a statement/block — e.g. the trailing argument of a
    // multi-line TB_ASSIGN_OR_RETURN(...) would otherwise look like a
    // bare call.
    for (size_t p = ln; p-- > 0;) {
      const std::string& prev = fs.code_lines[p];
      size_t last = prev.find_last_not_of(" \t\r");
      if (last == std::string::npos) continue;  // blank: keep looking
      char c = prev[last];
      return c != ';' && c != '{' && c != '}' && c != ':';
    }
    return false;
  };
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    const std::string& line = fs.code_lines[ln];
    std::smatch m;
    if (!std::regex_match(line, m, kBareCall)) continue;
    if (is_continuation(ln)) continue;
    const std::string callee = m[1].str();
    if (status_fns.count(callee) == 0) continue;
    Report(fs, ln + 1, "tabbench-unchecked-status",
           "result of `" + callee +
               "` (returns Status/Result) is discarded; check it, "
               "propagate with TB_RETURN_IF_ERROR, or cast to (void) with "
               "a comment saying why the outcome does not matter",
           false, findings);
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-unordered-iter
//
// Range-for over a std::unordered_{map,set} declared in the same file.
// Hash-table iteration order is an implementation detail; if it feeds
// ordered output (reports, replay logs, workload files) the run is not
// reproducible across standard libraries. Order-insensitive uses are
// expected to carry a NOLINT with a reason.
// ---------------------------------------------------------------------------

void CheckUnorderedIter(const FileState& fs,
                        std::vector<Finding>* findings) {
  // A declaration whose *outermost* type is unordered (the `(^|[^<:\w])`
  // prefix rejects `std::vector<std::unordered_set<...>> v`, where
  // iteration order is actually the vector's and deterministic; `:` is
  // excluded so the engine cannot skip the optional `std::` and match the
  // nested type via the `::` qualifier).
  static const std::regex kDecl(
      R"((?:^|[^<:\w])(?:std\s*::\s*)?unordered_(?:map|set)\s*<[^;]*>\s+(\w+)\s*[;{=(,)])");
  // Range-for colon is space-separated in project style, which keeps `::`
  // qualifiers in the declaration part from matching.
  static const std::regex kRangeFor(R"(\bfor\s*\([^;]*\s:\s*(\w+)\s*\))");
  std::unordered_set<std::string> unordered_vars;
  for (const auto& line : fs.code_lines) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_vars.insert((*it)[1].str());
    }
  }
  if (unordered_vars.empty()) return;
  for (size_t ln = 0; ln < fs.code_lines.size(); ++ln) {
    std::smatch m;
    if (std::regex_search(fs.code_lines[ln], m, kRangeFor) &&
        unordered_vars.count(m[1].str()) != 0) {
      Report(fs, ln + 1, "tabbench-unordered-iter",
             "range-for over unordered container `" + m[1].str() +
                 "`; hash-iteration order is unspecified — sort before "
                 "emitting ordered output, or NOLINT with a reason if the "
                 "consumer is order-insensitive",
             false, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: tabbench-include-guard (fixable)
// ---------------------------------------------------------------------------

struct GuardInfo {
  bool has_ifndef = false;
  size_t ifndef_line = 0;  // 0-based index into lines
  std::string name;
  bool has_define = false;
  size_t define_line = 0;
};

GuardInfo FindGuard(const std::vector<std::string>& code_lines) {
  static const std::regex kIfndef(R"(^\s*#\s*ifndef\s+(\w+))");
  static const std::regex kDefine(R"(^\s*#\s*define\s+(\w+))");
  GuardInfo g;
  for (size_t ln = 0; ln < code_lines.size(); ++ln) {
    std::smatch m;
    if (!g.has_ifndef) {
      if (std::regex_search(code_lines[ln], m, kIfndef)) {
        g.has_ifndef = true;
        g.ifndef_line = ln;
        g.name = m[1].str();
      } else if (std::regex_search(code_lines[ln],
                                   std::regex(R"(^\s*#)"))) {
        break;  // some other directive before any guard: treat as missing
      }
    } else {
      // Skip blank lines between the #ifndef and its #define.
      if (code_lines[ln].find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      if (std::regex_search(code_lines[ln], m, kDefine) &&
          m[1].str() == g.name) {
        g.has_define = true;
        g.define_line = ln;
      }
      break;
    }
  }
  return g;
}

void FixGuard(SourceFile* file, const GuardInfo& g,
              const std::string& want) {
  std::vector<std::string> lines = SplitLines(file->content);
  if (g.has_ifndef && g.has_define) {
    // Rewrite the existing guard triple in place.
    lines[g.ifndef_line] = "#ifndef " + want;
    lines[g.define_line] = "#define " + want;
    static const std::regex kEndif(R"(^\s*#\s*endif\b.*$)");
    for (size_t ln = lines.size(); ln-- > 0;) {
      if (std::regex_match(lines[ln], kEndif)) {
        lines[ln] = "#endif  // " + want;
        break;
      }
    }
  } else {
    // No guard at all: wrap the whole file.
    lines.insert(lines.begin(), {"#ifndef " + want, "#define " + want, ""});
    while (!lines.empty() && lines.back().empty()) lines.pop_back();
    lines.push_back("");
    lines.push_back("#endif  // " + want);
    lines.push_back("");
  }
  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    if (i + 1 < lines.size()) out += '\n';
  }
  file->content = out;
}

void CheckIncludeGuard(FileState* fs, const Options& opts,
                       std::vector<Finding>* findings) {
  if (!IsHeader(fs->file->path)) return;
  const std::string want = CanonicalGuard(fs->file->path);
  GuardInfo g = FindGuard(fs->code_lines);
  std::string problem;
  if (!g.has_ifndef || !g.has_define) {
    problem = "missing include guard";
  } else if (g.name != want) {
    problem = "include guard `" + g.name + "` does not match canonical `" +
              want + "`";
  } else {
    return;
  }
  const size_t line = g.has_ifndef ? g.ifndef_line + 1 : 1;
  if (fs->sup.Suppressed(line, "tabbench-include-guard")) return;
  bool fixed = false;
  if (opts.fix) {
    FixGuard(fs->file, g, want);
    fixed = true;
  }
  findings->push_back(Finding{fs->file->path, line,
                              "tabbench-include-guard",
                              problem + (fixed ? " [fixed]" : ""), true});
}

// ---------------------------------------------------------------------------
// Rule: tabbench-include-hygiene
// ---------------------------------------------------------------------------

void CheckIncludeHygiene(const FileState& fs,
                         std::vector<Finding>* findings) {
  // Raw lines: include paths live inside string-ish tokens the stripper
  // blanks, so inspect the original text.
  static const std::regex kParentRelative(
      R"(^\s*#\s*include\s+"[^"]*\.\./)");
  for (size_t ln = 0; ln < fs.raw_lines.size(); ++ln) {
    if (std::regex_search(fs.raw_lines[ln], kParentRelative)) {
      Report(fs, ln + 1, "tabbench-include-hygiene",
             "parent-relative #include; include project headers by their "
             "src/-relative path (the build adds src/ to the include path)",
             false, findings);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"tabbench-determinism",
       "no ambient entropy or wall-clock reads in src/core, src/engine, and "
       "src/exec result paths; randomness flows through util/rng.h",
       false},
      {"tabbench-naked-new",
       "no naked new/delete; ownership via make_unique/unique_ptr", false},
      {"tabbench-raw-sleep",
       "no raw this_thread sleeps in src/ (uninterruptible); delays go "
       "through util/retry.h SleepWithCancellation",
       false},
      {"tabbench-float-equal",
       "no float-literal ==/!= comparisons in cost/CFC code", false},
      {"tabbench-unsynced-write",
       "no direct ofstream/fopen writes in src/core|src/service; durable "
       "artifacts go through AtomicWriteFile or the run journal",
       false},
      {"tabbench-unchecked-status",
       "every discarded call to a Status/Result-returning function is an "
       "error (compile-time twin: [[nodiscard]] in util/status.h)",
       false},
      {"tabbench-unordered-iter",
       "range-for over unordered containers is a replay-order hazard; sort "
       "or NOLINT with a reason",
       false},
      {"tabbench-include-guard",
       "headers carry a canonical TABBENCH_<PATH>_H_ include guard", true},
      {"tabbench-include-hygiene",
       "no parent-relative (\"../\") includes", false},
  };
  return kRules;
}

std::string CanonicalGuard(const std::string& path) {
  std::string p = path;
  if (StartsWith(p, "./")) p = p.substr(2);
  if (StartsWith(p, "src/")) p = p.substr(4);
  std::string guard = "TABBENCH_";
  for (char c : p) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

std::vector<Finding> Lint(std::vector<SourceFile>& files,
                          const Options& opts) {
  std::vector<FileState> states;
  states.reserve(files.size());
  for (auto& f : files) {
    FileState fs;
    fs.file = &f;
    fs.raw_lines = SplitLines(f.content);
    fs.code_lines = SplitLines(StripCommentsAndStrings(f.content));
    fs.sup = ParseSuppressions(SplitLines(KeepCommentsOnly(f.content)));
    states.push_back(std::move(fs));
  }

  const std::unordered_set<std::string> status_fns =
      CollectStatusFunctions(states);

  std::vector<Finding> findings;
  for (auto& fs : states) {
    CheckDeterminism(fs, &findings);
    CheckNakedNew(fs, &findings);
    CheckRawSleep(fs, &findings);
    CheckFloatEqual(fs, &findings);
    CheckUnsyncedWrite(fs, &findings);
    CheckUncheckedStatus(fs, status_fns, &findings);
    CheckUnorderedIter(fs, &findings);
    CheckIncludeGuard(&fs, opts, &findings);
    CheckIncludeHygiene(fs, &findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

}  // namespace

std::string ToJson(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + JsonEscape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           JsonEscape(f.rule) + "\", \"fixable\": " +
           (f.fixable ? "true" : "false") + ", \"message\": \"" +
           JsonEscape(f.message) + "\"}";
    if (i + 1 < findings.size()) out += ",";
    out += "\n";
  }
  out += "]\n";
  return out;
}

std::string ToText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  if (!findings.empty()) {
    out += std::to_string(findings.size()) + " finding(s)\n";
  }
  return out;
}

}  // namespace tabbench_lint
