#include "analyzer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "model.h"

namespace tabbench_analyze {

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"tabbench-layering",
       "A file includes a higher layer, or crosses a `forbid` edge, per "
       "tools/analyze/layers.txt. Dependencies must point downward."},
      {"tabbench-include-cycle",
       "A cycle in the quoted-include graph. Cyclic headers cannot be "
       "understood, tested, or rebuilt independently."},
      {"tabbench-lock-order",
       "The global mutex-acquisition graph (nested MutexLock scopes, "
       "calls made under a lock, TB_ACQUIRED_BEFORE/AFTER declarations) "
       "contains a cycle: two threads taking the locks in opposite order "
       "deadlock."},
      {"tabbench-status-local",
       "A Status stored in a local that is never consulted afterwards; "
       "the error is silently dropped."},
      {"tabbench-result-on-error",
       "A Result<T> is dereferenced (.value(), *, ->) on its !ok() path, "
       "where there is no value to read."},
      {"tabbench-use-after-move",
       "A variable is read after std::move handed its contents away in "
       "the same scope."},
      {"tabbench-nondeterminism",
       "A function in src/core or src/engine can transitively reach a "
       "wall-clock or system-RNG call; simulation results must be "
       "reproducible from the seed alone."},
      {"tabbench-lockset-inconsistent",
       "A member field is accessed both while holding a mutex and with no "
       "lock held; the bare sites race with the locked ones (Eraser-style "
       "lockset inference)."},
      {"tabbench-lockset-unannotated",
       "Every access to a member field holds the same mutex, but the "
       "field carries no TB_GUARDED_BY; the inferred annotation is "
       "suggested and --fix-annotations inserts it."},
      {"tabbench-lockset-contradicted",
       "A field declares TB_GUARDED_BY(m) but some access site does not "
       "hold m; the annotation is a model the code contradicts."},
      {"tabbench-blocking-under-lock",
       "A blocking operation (fsync, sleeps, a Wait on a non-condvar) "
       "runs — directly or through resolved calls — while a mutex is "
       "held, stalling every waiter on that mutex."},
      {"tabbench-cancellation-poll",
       "An unbounded loop in a worker surface (src/exec, "
       "src/core/runner.cc, src/service) never reaches a cancellation or "
       "watchdog poll on any path; it cannot be cancelled once wedged."},
      {"tabbench-durability-ordering",
       "A commit/externalization op of a protocol declared in "
       "tools/analyze/protocols.txt is reachable on some CFG path before "
       "the protocol's append+fsync; a crash on that path externalizes "
       "state the journal cannot replay."},
      {"tabbench-release-on-path",
       "A manually acquired resource (Lock/Unlock, watchdog Watch/Release, "
       "shard attempt registration) escapes the function on some CFG path "
       "— an early return, an error edge — without its release."},
      {"tabbench-error-path",
       "On a path where !v.ok() must hold: the would-be value is used, a "
       "journaled unit is left open with no abort record, or a blocking "
       "retry loop re-iterates without re-checking cancellation."},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// layers.txt
// ---------------------------------------------------------------------------

bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                    std::string* error) {
  *spec = LayerSpec();
  std::istringstream in(text);
  std::string line;
  size_t ln = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "layers.txt:" + std::to_string(ln) + ": " + why;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++ln;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string word;
    if (!(words >> word)) continue;
    if (word == "layer") {
      std::string name;
      if (!(words >> name) || name.back() != ':') {
        return fail("expected `layer <name>: <dir>...`");
      }
      name.pop_back();
      for (const LayerSpec::Layer& l : spec->layers) {
        if (l.name == name) return fail("duplicate layer '" + name + "'");
      }
      LayerSpec::Layer layer;
      layer.name = name;
      std::string dir;
      while (words >> dir) {
        while (!dir.empty() && dir.back() == '/') dir.pop_back();
        layer.dirs.push_back(dir);
      }
      if (layer.dirs.empty()) {
        return fail("layer '" + name + "' lists no directories");
      }
      spec->layers.push_back(std::move(layer));
    } else if (word == "forbid") {
      std::string from, arrow, to;
      if (!(words >> from >> arrow >> to) || arrow != "->") {
        return fail("expected `forbid <layer> -> <layer>`");
      }
      for (const std::string& name : {from, to}) {
        bool known = false;
        for (const LayerSpec::Layer& l : spec->layers) {
          known = known || l.name == name;
        }
        if (!known) {
          return fail("forbid names undeclared layer '" + name + "'");
        }
      }
      spec->forbid.emplace_back(from, to);
    } else {
      return fail("unknown directive '" + word + "'");
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// protocols.txt
// ---------------------------------------------------------------------------

bool ParseProtocolSpec(const std::string& text, ProtocolSpec* spec,
                       std::string* error) {
  *spec = ProtocolSpec();
  std::istringstream in(text);
  std::string line;
  size_t ln = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "protocols.txt:" + std::to_string(ln) + ": " + why;
    }
    return false;
  };
  // `name` or `name:argtok` (the call matches only when argtok appears as
  // a token between its parens).
  auto parse_op = [](const std::string& word) {
    ProtocolSpec::Op op;
    const size_t colon = word.find(':');
    op.name = word.substr(0, colon);
    if (colon != std::string::npos) op.arg = word.substr(colon + 1);
    return op;
  };
  while (std::getline(in, line)) {
    ++ln;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string word;
    if (!(words >> word)) continue;
    if (word == "protocol") {
      std::string name;
      if (!(words >> name)) return fail("expected `protocol <name>`");
      for (const ProtocolSpec::Protocol& p : spec->protocols) {
        if (p.name == name) {
          return fail("duplicate protocol '" + name + "'");
        }
      }
      ProtocolSpec::Protocol proto;
      proto.name = name;
      spec->protocols.push_back(std::move(proto));
      continue;
    }
    if (spec->protocols.empty()) {
      return fail("'" + word + "' before the first `protocol` directive");
    }
    ProtocolSpec::Protocol& proto = spec->protocols.back();
    std::string value;
    if (!(words >> value)) {
      return fail("'" + word + "' needs at least one value");
    }
    do {
      if (word == "file") {
        proto.files.push_back(value);
      } else if (word == "sync") {
        proto.sync.push_back(value);
      } else if (word == "commit") {
        proto.commit.push_back(parse_op(value));
      } else if (word == "begin") {
        proto.begin.push_back(parse_op(value));
      } else if (word == "abort") {
        proto.abort.push_back(parse_op(value));
      } else {
        return fail("unknown directive '" + word + "'");
      }
    } while (words >> value);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Analyze
// ---------------------------------------------------------------------------

std::vector<Finding> Analyze(const std::vector<SourceFile>& files,
                             const Options& opts) {
  const Model model = BuildModel(files);
  std::vector<Finding> findings;
  RunLayeringPass(model, opts.layers, &findings);
  RunLockOrderPass(model, &findings);
  RunStatusFlowPass(model, &findings);
  RunTaintPass(model, &findings);
  RunLocksetPass(model, &findings);
  RunBlockingPass(model, &findings);
  RunCancellationPass(model, &findings);
  RunDurabilityPass(model, opts.protocols, &findings);
  RunReleasePass(model, &findings);
  RunErrorPathPass(model, opts.protocols, &findings);

  std::map<std::string, const ParsedFile*> by_path;
  for (const ParsedFile& pf : model.files) by_path[pf.src->path] = &pf;
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    auto it = by_path.find(f.file);
    if (it != by_path.end() && it->second->sup.Suppressed(f.line, f.rule)) {
      continue;
    }
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return kept;
}

size_t ApplyAnnotationFixes(const std::vector<Finding>& findings,
                            std::vector<SourceFile>* files) {
  auto is_word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  size_t applied = 0;
  for (const Finding& f : findings) {
    if (f.fix.text.empty() || f.line == 0) continue;
    for (SourceFile& sf : *files) {
      if (sf.path != f.file) continue;
      // Offsets are recomputed from the (possibly already edited) content
      // for every fix, so multiple fixes to one file compose.
      size_t begin = 0;
      bool found = true;
      for (size_t ln = 1; ln < f.line; ++ln) {
        const size_t nl = sf.content.find('\n', begin);
        if (nl == std::string::npos) {
          found = false;
          break;
        }
        begin = nl + 1;
      }
      if (!found) break;
      size_t end = sf.content.find('\n', begin);
      if (end == std::string::npos) end = sf.content.size();
      const std::string line = sf.content.substr(begin, end - begin);
      // Idempotence: a line that already carries an annotation is done.
      if (line.find("GUARDED_BY") != std::string::npos) break;
      size_t pos = std::string::npos;
      for (size_t p = line.find(f.fix.after_word); p != std::string::npos;
           p = line.find(f.fix.after_word, p + 1)) {
        const size_t q = p + f.fix.after_word.size();
        if ((p == 0 || !is_word(line[p - 1])) &&
            (q >= line.size() || !is_word(line[q]))) {
          pos = q;
          break;
        }
      }
      if (pos == std::string::npos) break;
      // The annotation goes after the whole declarator, past any array
      // brackets.
      while (pos < line.size() && line[pos] == '[') {
        const size_t close = line.find(']', pos);
        if (close == std::string::npos) break;
        pos = close + 1;
      }
      sf.content.insert(begin + pos, f.fix.text);
      ++applied;
      break;
    }
  }
  return applied;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string ToText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    for (const RelatedSite& s : f.related) {
      out << "    " << s.file << ":" << s.line << ": " << s.note << "\n";
    }
  }
  return out.str();
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendLocation(std::ostringstream& out, const std::string& file,
                    size_t line, const std::string& message) {
  out << "{";
  if (!message.empty()) {
    out << "\"message\": {\"text\": \"" << JsonEscape(message) << "\"}, ";
  }
  out << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
      << JsonEscape(file) << "\"}, \"region\": {\"startLine\": "
      << (line == 0 ? 1 : line) << "}}}";
}

}  // namespace

std::string ToSarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\","
         "\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"tabbench_analyze\",\n"
      << "      \"informationUri\": "
         "\"https://example.invalid/tabbench/tools/analyze\",\n"
      << "      \"rules\": [";
  const auto& rules = Rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"id\": \"" << rules[i].name
        << "\", \"shortDescription\": {\"text\": \""
        << JsonEscape(rules[i].summary) << "\"}}";
  }
  out << "]\n    }},\n    \"results\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ", ";
    out << "\n      {\"ruleId\": \"" << f.rule
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << JsonEscape(f.message) << "\"}, \"locations\": [";
    AppendLocation(out, f.file, f.line, "");
    out << "]";
    if (!f.related.empty()) {
      out << ", \"relatedLocations\": [";
      for (size_t j = 0; j < f.related.size(); ++j) {
        if (j > 0) out << ", ";
        AppendLocation(out, f.related[j].file, f.related[j].line,
                       f.related[j].note);
      }
      out << "]";
    }
    out << "}";
  }
  out << "\n    ]\n  }]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

std::string ToBaselineJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"tabbench_analyze\",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n    {\"rule\": \"" << JsonEscape(findings[i].rule)
        << "\", \"file\": \"" << JsonEscape(findings[i].file)
        << "\", \"message\": \"" << JsonEscape(findings[i].message)
        << "\"}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

namespace {

/// Minimal JSON string scanner for the baseline format: finds the value of
/// `"key": "..."` starting at `from`, unescaping. Returns npos when absent.
size_t FindStringValue(const std::string& text, const std::string& key,
                       size_t from, size_t until, std::string* value) {
  const std::string needle = "\"" + key + "\"";
  size_t k = text.find(needle, from);
  if (k == std::string::npos || k >= until) return std::string::npos;
  size_t colon = text.find(':', k + needle.size());
  if (colon == std::string::npos) return std::string::npos;
  size_t q = text.find('"', colon);
  if (q == std::string::npos) return std::string::npos;
  std::string out;
  for (size_t i = q + 1; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char c = text[i + 1];
      out += c == 'n' ? '\n' : c == 't' ? '\t' : c;
      ++i;
    } else if (text[i] == '"') {
      *value = out;
      return i;
    } else {
      out += text[i];
    }
  }
  return std::string::npos;
}

}  // namespace

bool ParseBaselineJson(const std::string& text,
                       std::vector<BaselineEntry>* out,
                       std::string* error) {
  out->clear();
  const size_t arr = text.find("\"findings\"");
  if (arr == std::string::npos) {
    if (error != nullptr) *error = "baseline: no \"findings\" array";
    return false;
  }
  size_t pos = text.find('[', arr);
  if (pos == std::string::npos) {
    if (error != nullptr) *error = "baseline: malformed findings array";
    return false;
  }
  while (true) {
    const size_t open = text.find('{', pos);
    if (open == std::string::npos) break;
    const size_t close = text.find('}', open);
    if (close == std::string::npos) {
      if (error != nullptr) *error = "baseline: unterminated entry";
      return false;
    }
    BaselineEntry e;
    if (FindStringValue(text, "rule", open, close, &e.rule) ==
            std::string::npos ||
        FindStringValue(text, "file", open, close, &e.file) ==
            std::string::npos ||
        FindStringValue(text, "message", open, close, &e.message) ==
            std::string::npos) {
      if (error != nullptr) {
        *error = "baseline: entry missing rule/file/message";
      }
      return false;
    }
    out->push_back(std::move(e));
    pos = close + 1;
  }
  return true;
}

BaselineDiff DiffBaseline(const std::vector<Finding>& findings,
                          const std::vector<BaselineEntry>& baseline) {
  // Multiset semantics: two identical findings need two baseline entries.
  std::map<std::tuple<std::string, std::string, std::string>, int> budget;
  for (const BaselineEntry& e : baseline) {
    ++budget[{e.rule, e.file, e.message}];
  }
  BaselineDiff diff;
  for (const Finding& f : findings) {
    auto it = budget.find({f.rule, f.file, f.message});
    if (it != budget.end() && it->second > 0) {
      --it->second;
      ++diff.matched;
    } else {
      diff.fresh.push_back(f);
    }
  }
  for (const auto& [key, count] : budget) {
    for (int i = 0; i < count; ++i) {
      diff.stale.push_back(
          {std::get<0>(key), std::get<1>(key), std::get<2>(key)});
    }
  }
  return diff;
}

}  // namespace tabbench_analyze
