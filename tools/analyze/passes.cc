#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "model.h"

/// The four whole-program passes. Everything here consumes the Model built
/// by model.cc and appends Findings; suppression and sorting happen in
/// Analyze() (analyzer.cc).
namespace tabbench_analyze {

namespace {

using tabbench_tok::TokKind;

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }
bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// ---------------------------------------------------------------------------
// Layering pass
// ---------------------------------------------------------------------------

/// Index of the layer owning `path` (longest matching dir prefix wins), or
/// -1 when the file is outside every declared layer (exempt).
int LayerOf(const LayerSpec& spec, const std::string& path) {
  int best = -1;
  size_t best_len = 0;
  for (size_t li = 0; li < spec.layers.size(); ++li) {
    for (const std::string& dir : spec.layers[li].dirs) {
      const std::string prefix = dir + "/";
      if (path.rfind(prefix, 0) == 0 && prefix.size() > best_len) {
        best = static_cast<int>(li);
        best_len = prefix.size();
      }
    }
  }
  return best;
}

/// Tarjan SCC over an adjacency map keyed by string node ids. Returns the
/// components (each sorted) that contain a cycle: size > 1, or a self-edge.
std::vector<std::vector<std::string>> CyclicComponents(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::vector<std::string> nodes;
  for (const auto& [n, outs] : adj) {
    nodes.push_back(n);
    for (const std::string& m : outs) nodes.push_back(m);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::map<std::string, size_t> index, low;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  size_t counter = 0;
  std::vector<std::vector<std::string>> cyclic;

  // Iterative Tarjan (explicit frame stack keeps deep include chains from
  // overflowing the call stack).
  struct Frame {
    std::string node;
    std::vector<std::string> outs;
    size_t next = 0;
  };
  for (const std::string& root : nodes) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames;
    auto push_node = [&](const std::string& n) {
      index[n] = low[n] = counter++;
      stack.push_back(n);
      on_stack.insert(n);
      Frame fr;
      fr.node = n;
      auto it = adj.find(n);
      if (it != adj.end()) {
        fr.outs.assign(it->second.begin(), it->second.end());
      }
      frames.push_back(std::move(fr));
    };
    push_node(root);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.next < fr.outs.size()) {
        const std::string& m = fr.outs[fr.next++];
        if (index.count(m) == 0) {
          push_node(m);
        } else if (on_stack.count(m) != 0) {
          low[fr.node] = std::min(low[fr.node], index[m]);
        }
      } else {
        if (low[fr.node] == index[fr.node]) {
          std::vector<std::string> comp;
          while (true) {
            const std::string n = stack.back();
            stack.pop_back();
            on_stack.erase(n);
            comp.push_back(n);
            if (n == fr.node) break;
          }
          bool self_loop = false;
          auto it = adj.find(fr.node);
          if (comp.size() == 1 && it != adj.end() &&
              it->second.count(fr.node) != 0) {
            self_loop = true;
          }
          if (comp.size() > 1 || self_loop) {
            std::sort(comp.begin(), comp.end());
            cyclic.push_back(std::move(comp));
          }
        }
        const std::string done = fr.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] =
              std::min(low[frames.back().node], low[done]);
        }
      }
    }
  }
  std::sort(cyclic.begin(), cyclic.end());
  return cyclic;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

}  // namespace

void RunLayeringPass(const Model& model, const LayerSpec& spec,
                     std::vector<Finding>* findings) {
  std::set<std::pair<std::string, std::string>> forbidden(
      spec.forbid.begin(), spec.forbid.end());

  // Edge checks: order violations and forbid pairs.
  for (const ParsedFile& pf : model.files) {
    const int src_layer = LayerOf(spec, pf.src->path);
    if (src_layer < 0) continue;
    for (const IncludeEdge& inc : pf.includes) {
      if (inc.resolved.empty()) continue;
      const int dst_layer = LayerOf(spec, inc.resolved);
      if (dst_layer < 0) continue;
      const std::string& src_name = spec.layers[src_layer].name;
      const std::string& dst_name = spec.layers[dst_layer].name;
      Finding f;
      f.file = pf.src->path;
      f.line = inc.line;
      f.rule = "tabbench-layering";
      if (forbidden.count({src_name, dst_name}) != 0) {
        f.message = "layer '" + src_name + "' must never include layer '" +
                    dst_name + "' (forbidden edge), but includes \"" +
                    inc.raw + "\"";
      } else if (dst_layer > src_layer) {
        f.message = "layer '" + src_name + "' includes \"" + inc.raw +
                    "\" from higher layer '" + dst_name +
                    "'; dependencies must point downward";
      } else {
        continue;
      }
      f.related.push_back({inc.resolved, 1, "included file (layer '" +
                                                dst_name + "')"});
      findings->push_back(std::move(f));
    }
  }

  // Include cycles (checked across the whole file set, layered or not —
  // a cycle is broken architecture regardless of layer assignment).
  std::map<std::string, std::set<std::string>> graph;
  std::map<std::pair<std::string, std::string>, size_t> edge_line;
  for (const ParsedFile& pf : model.files) {
    for (const IncludeEdge& inc : pf.includes) {
      if (inc.resolved.empty() || inc.resolved == pf.src->path) continue;
      graph[pf.src->path].insert(inc.resolved);
      edge_line.emplace(std::make_pair(pf.src->path, inc.resolved),
                        inc.line);
    }
  }
  for (const std::vector<std::string>& comp : CyclicComponents(graph)) {
    Finding f;
    f.rule = "tabbench-include-cycle";
    f.message = "include cycle among: " + JoinNames(comp);
    const std::set<std::string> in_comp(comp.begin(), comp.end());
    for (const std::string& a : comp) {
      auto it = graph.find(a);
      if (it == graph.end()) continue;
      for (const std::string& b : it->second) {
        if (in_comp.count(b) == 0) continue;
        const size_t line = edge_line[{a, b}];
        if (f.file.empty()) {
          f.file = a;
          f.line = line;
        }
        f.related.push_back({a, line, "includes " + b});
      }
    }
    findings->push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Shared body facts (lock-order, taint, lockset, blocking, cancellation)
// ---------------------------------------------------------------------------

namespace {

struct BodyFacts {
  struct Acquire {
    std::string mutex;  // qualified ("ThreadPool::mu_") or bare local name
    size_t line = 0;
    bool in_lambda = false;
  };
  struct Call {
    std::string receiver_type;  // "" for a bare call
    std::string name;
    size_t line = 0;
    size_t tok = 0;  // token index of the callee name
    bool in_lambda = false;
    std::vector<Acquire> held;  // locks held at the call site
  };
  /// A read or write of a class member field ("st->charge_sum",
  /// "queue_", "this->error"), with the lockset held at the site.
  struct Access {
    std::string cls;    // owning class of the field
    std::string field;  // unqualified member name
    size_t line = 0;
    std::set<std::string> held;  // qualified mutexes held here
  };
  /// A directly blocking operation (fsync, sleeps, a Wait on a non-condvar
  /// object), with the lockset held at the site.
  struct Block {
    std::string what;
    size_t line = 0;
    bool in_lambda = false;
    std::vector<Acquire> held;
  };
  /// A loop statement; `unbounded` marks for(;;)/while(true)/while(1).
  /// The token range covers the loop body (and, for while, the condition).
  struct Loop {
    size_t line = 0;
    size_t range_begin = 0;
    size_t range_end = 0;
    bool unbounded = false;
  };
  std::vector<Acquire> acquires;
  std::vector<Call> calls;
  std::vector<Access> accesses;
  std::vector<Block> blocks;
  std::vector<Loop> loops;
  struct Source {
    std::string what;
    size_t line = 0;
  };
  std::vector<Source> taint_sources;
  /// Nested-acquisition edges observed directly in this body:
  /// (held lock, newly acquired lock). Lambda bodies contribute their own
  /// internal edges, but never edges across the lambda boundary.
  std::vector<std::pair<Acquire, Acquire>> nested;
};

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kKw = {
      "if",          "for",     "while",       "switch",  "return",
      "sizeof",      "catch",   "new",         "delete",  "throw",
      "static_cast", "assert",  "const_cast",  "alignof", "decltype",
      "noexcept",    "typeid",  "co_return",   "case",    "else",
      "do",          "default", "co_await",    "defined"};
  return kKw;
}

/// Resolves the class type of a simple receiver name: `this`, a local or
/// parameter from `symbols`, then a member of the enclosing class. Returns
/// "" when unknown.
std::string ResolveReceiverType(
    const Model& model, const FunctionInfo& fn,
    const std::map<std::string, std::string>& symbols,
    const std::string& recv) {
  if (recv == "this") return fn.cls;
  auto sit = symbols.find(recv);
  if (sit != symbols.end()) {
    // Only class types the model knows are usable downstream.
    return model.classes.count(sit->second) != 0 ? sit->second
                                                 : std::string();
  }
  if (!fn.cls.empty()) {
    auto cit = model.classes.find(fn.cls);
    if (cit != model.classes.end()) {
      auto mit = cit->second.members.find(recv);
      if (mit != cit->second.members.end() && !mit->second.type.empty() &&
          mit->second.type != "std") {
        return mit->second.type;
      }
    }
  }
  return "";
}

/// Resolves the expression tokens of `MutexLock lock(&<expr>)` to a
/// qualified mutex id; "" when the receiver's type is unknown.
std::string ResolveMutexExpr(const Model& model, const FunctionInfo& fn,
                             const std::map<std::string, std::string>& symbols,
                             const std::vector<Token>& toks, size_t b,
                             size_t e) {
  std::vector<const Token*> parts;
  for (size_t i = b; i < e; ++i) parts.push_back(&toks[i]);
  if (parts.empty()) return "";
  if (parts.size() == 1 && IsIdent(*parts[0])) {
    const std::string& name = parts[0]->text;
    if (symbols.count(name) != 0) return name;  // a local/param Mutex
    if (!fn.cls.empty()) return fn.cls + "::" + name;
    return name;  // local or global mutex in a free function
  }
  // this->mu_ / obj.mu_ / obj->mu_ / Class::mu
  if (parts.size() == 3 && IsIdent(*parts[0]) && IsIdent(*parts[2])) {
    const std::string& recv = parts[0]->text;
    const std::string& name = parts[2]->text;
    if (IsPunct(*parts[1], "::")) return recv + "::" + name;
    if (IsPunct(*parts[1], "->") || IsPunct(*parts[1], ".")) {
      const std::string type =
          ResolveReceiverType(model, fn, symbols, recv);
      if (!type.empty()) return type + "::" + name;
    }
  }
  return "";
}

/// Matching close for the bracket at `open` (toks[open] is "(" / "[" /
/// "{"); returns body_end when unbalanced.
size_t MatchBracket(const std::vector<Token>& toks, size_t open,
                    size_t body_end, const char* open_text,
                    const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < body_end; ++i) {
    if (IsPunct(toks[i], open_text)) ++depth;
    if (IsPunct(toks[i], close_text) && --depth == 0) return i;
  }
  return body_end;
}

/// Token indices of braces that open lambda bodies within
/// [body_begin, body_end): `[caps] (params)? specifiers* {`.
std::set<size_t> LambdaBraces(const std::vector<Token>& toks,
                              size_t body_begin, size_t body_end) {
  std::set<size_t> braces;
  for (size_t i = body_begin; i < body_end; ++i) {
    if (!IsPunct(toks[i], "[")) continue;
    size_t close = MatchBracket(toks, i, body_end, "[", "]");
    if (close >= body_end) continue;
    size_t j = close + 1;
    if (j < body_end && IsPunct(toks[j], "(")) {
      j = MatchBracket(toks, j, body_end, "(", ")") + 1;
    }
    // Trailing specifiers / return type before the body.
    while (j < body_end &&
           (IsPunct(toks[j], "->") ||
            (IsIdent(toks[j]) &&
             (toks[j].text == "mutable" || toks[j].text == "noexcept" ||
              toks[j].text == "const")) ||
            IsPunct(toks[j], "::") || IsPunct(toks[j], "<") ||
            IsPunct(toks[j], ">") ||
            (IsIdent(toks[j]) && j + 1 < body_end &&
             (IsPunct(toks[j + 1], "{") || IsPunct(toks[j + 1], "::") ||
              IsPunct(toks[j + 1], "<"))))) {
      ++j;
    }
    if (j < body_end && IsPunct(toks[j], "{")) braces.insert(j);
  }
  return braces;
}

/// Local symbol table for a function: parameter and local-declaration
/// names mapped to their type's first identifier ("RunState" for
/// `RunState* st`). Locals are only recorded when the type names a class
/// the model knows, so plain assignments never misparse as declarations.
std::map<std::string, std::string> BuildSymbols(const Model& model,
                                                const FunctionInfo& fn) {
  const std::vector<Token>& toks = model.files[fn.file_index].toks;
  std::map<std::string, std::string> symbols;

  // Parameters: split on top-level commas; the type is the first
  // non-qualifier identifier of the segment, the name the last identifier.
  size_t seg = fn.params_begin;
  int depth = 0;
  for (size_t i = fn.params_begin; i <= fn.params_end; ++i) {
    const bool at_end = i == fn.params_end;
    if (!at_end) {
      if (IsPunct(toks[i], "(") || IsPunct(toks[i], "<")) ++depth;
      if (IsPunct(toks[i], ")") || IsPunct(toks[i], ">")) --depth;
    }
    if (!at_end && !(depth == 0 && IsPunct(toks[i], ","))) continue;
    std::string type, name;
    for (size_t j = seg; j < i; ++j) {
      if (!IsIdent(toks[j])) {
        if (IsPunct(toks[j], "=")) break;  // default argument
        continue;
      }
      if (type.empty() && toks[j].text != "const" &&
          toks[j].text != "struct" && toks[j].text != "class") {
        type = toks[j].text;
      }
      name = toks[j].text;
    }
    if (!type.empty() && !name.empty() && name != type) {
      symbols[name] = type;
    }
    seg = i + 1;
  }

  // Locals: `T name ...` / `T* name` / `T& name` at a statement or
  // parenthesized-header start, T a known class.
  for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
    if (!IsIdent(toks[i]) || model.classes.count(toks[i].text) == 0) {
      continue;
    }
    if (i > fn.body_begin) {
      const Token& p = toks[i - 1];
      const bool starts = IsPunct(p, ";") || IsPunct(p, "{") ||
                          IsPunct(p, "}") || IsPunct(p, "(") ||
                          (IsIdent(p) && p.text == "const");
      if (!starts) continue;
    }
    size_t j = i + 1;
    while (j < fn.body_end &&
           (IsPunct(toks[j], "*") || IsPunct(toks[j], "&") ||
            (IsIdent(toks[j]) && toks[j].text == "const"))) {
      ++j;
    }
    if (j + 1 >= fn.body_end || !IsIdent(toks[j])) continue;
    const Token& after = toks[j + 1];
    if (IsPunct(after, ";") || IsPunct(after, "=") ||
        IsPunct(after, "(") || IsPunct(after, "{") ||
        IsPunct(after, ":") || IsPunct(after, ",")) {
      symbols[toks[j].text] = toks[i].text;
    }
  }
  return symbols;
}

/// The TB_REQUIRES set in force for `fn`: its definition-site set merged
/// with the in-class declaration's (ClassInfo::method_requires).
std::set<std::string> RequiresHeld(const Model& model,
                                   const FunctionInfo& fn) {
  std::set<std::string> req = fn.requires_held;
  if (!fn.cls.empty()) {
    auto cit = model.classes.find(fn.cls);
    if (cit != model.classes.end()) {
      auto rit = cit->second.method_requires.find(fn.name);
      if (rit != cit->second.method_requires.end()) {
        req.insert(rit->second.begin(), rit->second.end());
      }
    }
  }
  return req;
}

/// Calls that block the thread no matter the receiver.
const std::set<std::string>& BlockingCallNames() {
  static const std::set<std::string> kNames = {
      "fsync",     "fdatasync",  "sleep_for", "sleep_until",
      "usleep",    "nanosleep",  "system",    "popen",
      "SleepWithCancellation"};
  return kNames;
}

BodyFacts ExtractBodyFacts(const Model& model, const FunctionInfo& fn) {
  const ParsedFile& pf = model.files[fn.file_index];
  const std::vector<Token>& toks = pf.toks;
  BodyFacts facts;

  const std::map<std::string, std::string> symbols =
      BuildSymbols(model, fn);
  const std::set<size_t> lambda_braces =
      LambdaBraces(toks, fn.body_begin, fn.body_end);

  // TB_REQUIRES locks are held throughout the function's own frame (but
  // not inside lambdas it defines — those run on another thread later).
  std::vector<BodyFacts::Acquire> requires_acqs;
  for (const std::string& m : RequiresHeld(model, fn)) {
    requires_acqs.push_back({m, fn.line, false});
  }

  struct Held {
    BodyFacts::Acquire acq;
    int depth;
    size_t frame;  // lambda frame the lock was taken in (0 = function)
  };
  std::vector<Held> held;
  std::vector<bool> brace_is_lambda;   // stack mirroring brace depth
  std::vector<size_t> frame_stack;     // open lambda frames
  size_t next_frame = 1;
  auto cur_frame = [&frame_stack]() -> size_t {
    return frame_stack.empty() ? 0 : frame_stack.back();
  };
  // Locks visible at the current point: those taken in the innermost
  // lambda frame (an enclosing function's locks are NOT held when a
  // deferred lambda body eventually runs), plus TB_REQUIRES in frame 0.
  auto effective_held = [&]() {
    std::vector<BodyFacts::Acquire> out;
    const size_t f = cur_frame();
    if (f == 0) out = requires_acqs;
    for (const Held& h : held) {
      if (h.frame == f) out.push_back(h.acq);
    }
    return out;
  };
  auto effective_held_names = [&]() {
    std::set<std::string> out;
    for (const BodyFacts::Acquire& a : effective_held()) {
      out.insert(a.mutex);
    }
    return out;
  };

  for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      const bool is_lambda = lambda_braces.count(i) != 0;
      brace_is_lambda.push_back(is_lambda);
      if (is_lambda) frame_stack.push_back(next_frame++);
      continue;
    }
    if (IsPunct(t, "}")) {
      if (!brace_is_lambda.empty()) {
        if (brace_is_lambda.back()) frame_stack.pop_back();
        brace_is_lambda.pop_back();
      }
      const int depth = static_cast<int>(brace_is_lambda.size());
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    if (!IsIdent(t)) continue;
    const bool in_lambda = cur_frame() != 0;

    // MutexLock <name> ( & <expr> )
    if (t.text == "MutexLock" && i + 2 < fn.body_end &&
        IsIdent(toks[i + 1]) && IsPunct(toks[i + 2], "(")) {
      const size_t close = MatchBracket(toks, i + 2, fn.body_end, "(", ")");
      size_t eb = i + 3;
      if (eb < close && IsPunct(toks[eb], "&")) ++eb;
      const std::string mutex =
          ResolveMutexExpr(model, fn, symbols, toks, eb, close);
      if (!mutex.empty()) {
        BodyFacts::Acquire acq{mutex, t.line, in_lambda};
        facts.acquires.push_back(acq);
        // Nesting edges form within the current frame only: a lock held
        // at the submit site is not held when the lambda later runs.
        for (const BodyFacts::Acquire& h : effective_held()) {
          facts.nested.emplace_back(h, acq);
        }
        held.push_back({acq, static_cast<int>(brace_is_lambda.size()),
                        cur_frame()});
      }
      i = close;
      continue;
    }

    // Taint sources.
    if (t.text == "system_clock" && i + 2 < fn.body_end &&
        IsPunct(toks[i + 1], "::") && IsIdent(toks[i + 2]) &&
        toks[i + 2].text == "now") {
      facts.taint_sources.push_back({"system_clock::now()", t.line});
      i += 2;
      continue;
    }
    if (t.text == "random_device") {
      facts.taint_sources.push_back({"std::random_device", t.line});
      continue;
    }
    const bool prev_is_member_access =
        i > fn.body_begin &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    if ((t.text == "rand" || t.text == "srand") && !prev_is_member_access &&
        i + 1 < fn.body_end && IsPunct(toks[i + 1], "(")) {
      facts.taint_sources.push_back({t.text + "()", t.line});
    }
    if (t.text == "time" && !prev_is_member_access && i + 2 < fn.body_end &&
        IsPunct(toks[i + 1], "(") && IsIdent(toks[i + 2]) &&
        (toks[i + 2].text == "nullptr" || toks[i + 2].text == "NULL")) {
      facts.taint_sources.push_back({"time(nullptr)", t.line});
    }

    // Loop statements. The trailing `while` of a do-while is skipped (its
    // body, already scanned, precedes it).
    if ((t.text == "for" || t.text == "while") && i + 1 < fn.body_end &&
        IsPunct(toks[i + 1], "(") &&
        !(t.text == "while" && i > fn.body_begin &&
          IsPunct(toks[i - 1], "}"))) {
      const size_t hclose =
          MatchBracket(toks, i + 1, fn.body_end, "(", ")");
      if (hclose < fn.body_end) {
        BodyFacts::Loop loop;
        loop.line = t.line;
        if (t.text == "for") {
          size_t semis = 0, others = 0;
          for (size_t j = i + 2; j < hclose; ++j) {
            if (IsPunct(toks[j], ";")) {
              ++semis;
            } else {
              ++others;
            }
          }
          loop.unbounded = semis == 2 && others == 0;  // for (;;)
        } else {
          loop.unbounded = hclose == i + 3 &&
                           (toks[i + 2].text == "true" ||
                            toks[i + 2].text == "1");
        }
        size_t body_e = hclose + 1;
        if (body_e < fn.body_end && IsPunct(toks[body_e], "{")) {
          body_e = MatchBracket(toks, body_e, fn.body_end, "{", "}");
        } else {
          while (body_e < fn.body_end && !IsPunct(toks[body_e], ";")) {
            ++body_e;
          }
        }
        loop.range_begin = i + 2;  // condition + body
        loop.range_end = body_e;
        facts.loops.push_back(loop);
      }
    }

    // Directly blocking operations, with the lockset held at the site.
    if (i + 1 < fn.body_end && IsPunct(toks[i + 1], "(") &&
        BlockingCallNames().count(t.text) != 0) {
      facts.blocks.push_back(
          {t.text + "()", t.line, in_lambda, effective_held()});
    }
    // A Wait on anything but a CondVar parks the thread (Latch,
    // ThreadPool, futures). CondVar::Wait releases the mutex it requires,
    // so it is the one legitimate wait-under-lock.
    if (t.text == "Wait" && i + 1 < fn.body_end &&
        IsPunct(toks[i + 1], "(") && i >= fn.body_begin + 2 &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
        IsIdent(toks[i - 2]) &&
        !(i >= fn.body_begin + 3 && (IsPunct(toks[i - 3], ".") ||
                                     IsPunct(toks[i - 3], "->")))) {
      const std::string type =
          ResolveReceiverType(model, fn, symbols, toks[i - 2].text);
      if (!type.empty() && type != "CondVar") {
        facts.blocks.push_back(
            {type + "::Wait()", t.line, in_lambda, effective_held()});
      }
    }

    // Member-field accesses (for the lockset pass).
    do {
      if (CallKeywords().count(t.text) != 0) break;
      if (i + 1 < fn.body_end && (IsPunct(toks[i + 1], "(") ||
                                  IsPunct(toks[i + 1], "::"))) {
        break;  // a call or a qualifier, not a field read
      }
      if (prev_is_member_access) {
        if (i < fn.body_begin + 2 || !IsIdent(toks[i - 2])) break;
        if (i >= fn.body_begin + 3 && (IsPunct(toks[i - 3], ".") ||
                                       IsPunct(toks[i - 3], "->"))) {
          break;  // chained receiver (a.b.c): unresolvable
        }
        const std::string type =
            ResolveReceiverType(model, fn, symbols, toks[i - 2].text);
        if (type.empty()) break;
        auto cit = model.classes.find(type);
        if (cit == model.classes.end() ||
            cit->second.members.count(t.text) == 0) {
          break;
        }
        facts.accesses.push_back(
            {type, t.text, t.line, effective_held_names()});
      } else {
        if (fn.cls.empty()) break;
        if (i > fn.body_begin &&
            (IsPunct(toks[i - 1], "::") || IsPunct(toks[i - 1], "~"))) {
          break;
        }
        // `Type name` is a declaration of a shadowing local, not a read.
        if (i > fn.body_begin && IsIdent(toks[i - 1]) &&
            CallKeywords().count(toks[i - 1].text) == 0) {
          break;
        }
        if (symbols.count(t.text) != 0) break;  // shadowed local/param
        auto cit = model.classes.find(fn.cls);
        if (cit == model.classes.end() ||
            cit->second.members.count(t.text) == 0) {
          break;
        }
        facts.accesses.push_back(
            {fn.cls, t.text, t.line, effective_held_names()});
      }
    } while (false);

    // Call sites: ident followed by "(", excluding keywords and
    // declarations (`Type name(...)` — ident preceded by another ident).
    if (i + 1 < fn.body_end && IsPunct(toks[i + 1], "(") &&
        CallKeywords().count(t.text) == 0) {
      if (i > fn.body_begin && IsIdent(toks[i - 1]) &&
          CallKeywords().count(toks[i - 1].text) == 0) {
        continue;  // declaration, not a call
      }
      BodyFacts::Call call;
      call.name = t.text;
      call.line = t.line;
      call.tok = i;
      call.in_lambda = in_lambda;
      if (i >= fn.body_begin + 2 && IsIdent(toks[i - 2]) &&
          (IsPunct(toks[i - 1], "::") || IsPunct(toks[i - 1], ".") ||
           IsPunct(toks[i - 1], "->"))) {
        const std::string& recv = toks[i - 2].text;
        if (IsPunct(toks[i - 1], "::")) {
          call.receiver_type = recv;
        } else {
          if (i >= fn.body_begin + 3 && (IsPunct(toks[i - 3], ".") ||
                                         IsPunct(toks[i - 3], "->"))) {
            continue;  // chained receiver expression: unresolvable
          }
          call.receiver_type =
              ResolveReceiverType(model, fn, symbols, recv);
          if (call.receiver_type.empty()) continue;  // unresolvable
        }
      } else if (i > fn.body_begin && (IsPunct(toks[i - 1], ".") ||
                                       IsPunct(toks[i - 1], "->"))) {
        continue;  // complex receiver expression: unresolvable
      }
      call.held = effective_held();
      facts.calls.push_back(std::move(call));
    }
  }
  return facts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lock-order pass
// ---------------------------------------------------------------------------

void RunLockOrderPass(const Model& model, std::vector<Finding>* findings) {
  const size_t n = model.functions.size();
  std::vector<BodyFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = ExtractBodyFacts(model, model.functions[i]);
  }

  // Representative acquisition site per mutex (for related locations).
  std::map<std::string, RelatedSite> acq_site;
  for (size_t i = 0; i < n; ++i) {
    const std::string& file =
        model.files[model.functions[i].file_index].src->path;
    for (const BodyFacts::Acquire& a : facts[i].acquires) {
      acq_site.emplace(a.mutex,
                       RelatedSite{file, a.line,
                                   "acquired in " +
                                       model.functions[i].qualified});
    }
  }

  // may_acquire: mutexes a function can take, directly or via callees
  // (lambda bodies excluded — they run outside the caller's lock scope).
  std::vector<std::set<std::string>> may_acquire(n);
  std::vector<std::vector<size_t>> callees(n);
  for (size_t i = 0; i < n; ++i) {
    for (const BodyFacts::Acquire& a : facts[i].acquires) {
      if (!a.in_lambda) may_acquire[i].insert(a.mutex);
    }
    std::set<size_t> seen;
    for (const BodyFacts::Call& c : facts[i].calls) {
      if (c.in_lambda) continue;
      for (size_t callee : ResolveCall(model, c.receiver_type,
                                       model.functions[i].cls, c.name)) {
        if (callee != i && seen.insert(callee).second) {
          callees[i].push_back(callee);
        }
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      for (size_t c : callees[i]) {
        for (const std::string& m : may_acquire[c]) {
          if (may_acquire[i].insert(m).second) changed = true;
        }
      }
    }
  }

  // The acquisition-order graph: direct nesting, calls under a held lock,
  // and declared TB_ACQUIRED_BEFORE/AFTER edges.
  struct EdgeInfo {
    std::string file;
    size_t line = 0;
    std::vector<RelatedSite> related;
  };
  std::map<std::pair<std::string, std::string>, EdgeInfo> edges;
  auto add_edge = [&edges](const std::string& from, const std::string& to,
                           EdgeInfo info) {
    edges.emplace(std::make_pair(from, to), std::move(info));
  };

  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    const std::string& file = model.files[fn.file_index].src->path;
    for (const auto& [from, to] : facts[i].nested) {
      EdgeInfo info;
      info.file = file;
      info.line = to.line;
      info.related.push_back(
          {file, from.line, from.mutex + " acquired here, still held"});
      info.related.push_back(
          {file, to.line, to.mutex + " acquired while holding " +
                              from.mutex + " (in " + fn.qualified + ")"});
      add_edge(from.mutex, to.mutex, std::move(info));
    }
    for (const BodyFacts::Call& c : facts[i].calls) {
      // c.held is frame-correct: inside a lambda it holds only the
      // lambda's own locks, so these edges are valid there too.
      if (c.held.empty()) continue;
      for (size_t callee : ResolveCall(model, c.receiver_type, fn.cls,
                                       c.name)) {
        for (const std::string& m : may_acquire[callee]) {
          for (const BodyFacts::Acquire& h : c.held) {
            EdgeInfo info;
            info.file = file;
            info.line = c.line;
            info.related.push_back(
                {file, h.line, h.mutex + " acquired here, still held"});
            info.related.push_back(
                {file, c.line,
                 "call to " + model.functions[callee].qualified +
                     " which may acquire " + m + " (in " + fn.qualified +
                     ")"});
            auto site = acq_site.find(m);
            if (site != acq_site.end()) info.related.push_back(site->second);
            add_edge(h.mutex, m, std::move(info));
          }
        }
      }
    }
  }
  for (const auto& [cls_name, cls] : model.classes) {
    (void)cls_name;
    for (const ClassInfo::DeclaredEdge& de : cls.declared_edges) {
      // Find the file that declares the edge for the site.
      for (const ParsedFile& pf : model.files) {
        if (de.line == 0 || de.line > pf.raw_lines.size()) continue;
        if (pf.raw_lines[de.line - 1].find("TB_ACQUIRED_") ==
            std::string::npos) {
          continue;
        }
        EdgeInfo info;
        info.file = pf.src->path;
        info.line = de.line;
        info.related.push_back({pf.src->path, de.line,
                                "declared: " + de.from +
                                    " acquired before " + de.to});
        add_edge(de.from, de.to, std::move(info));
        break;
      }
    }
  }

  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [edge, info] : edges) {
    (void)info;
    adj[edge.first].insert(edge.second);
  }
  for (const std::vector<std::string>& comp : CyclicComponents(adj)) {
    const std::set<std::string> in_comp(comp.begin(), comp.end());
    Finding f;
    f.rule = "tabbench-lock-order";
    if (comp.size() == 1) {
      f.message = "recursive acquisition of " + comp[0] +
                  ": already held when acquired again (self-deadlock)";
    } else {
      f.message =
          "lock-order inversion (potential deadlock) among: " +
          JoinNames(comp);
    }
    for (const std::string& a : comp) {
      for (const std::string& b : comp) {
        auto it = edges.find({a, b});
        if (it == edges.end()) continue;
        if (f.file.empty()) {
          f.file = it->second.file;
          f.line = it->second.line;
        }
        for (const RelatedSite& s : it->second.related) {
          f.related.push_back(s);
        }
      }
    }
    findings->push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Status-flow pass
// ---------------------------------------------------------------------------

namespace {

/// True when toks[i] starts a statement (previous token is ; { } or the
/// body beginning).
bool AtStatementStart(const std::vector<Token>& toks, size_t i,
                      size_t body_begin) {
  if (i == body_begin) return true;
  const Token& p = toks[i - 1];
  return IsPunct(p, ";") || IsPunct(p, "{") || IsPunct(p, "}");
}

void CheckStatusLocals(const FunctionInfo& fn, const ParsedFile& pf,
                       std::vector<Finding>* findings) {
  const std::vector<Token>& toks = pf.toks;
  for (size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
    // `Status <name> =` / `Status <name> (` at statement start.
    if (!IsIdent(toks[i]) || toks[i].text != "Status") continue;
    if (!AtStatementStart(toks, i, fn.body_begin)) continue;
    if (!IsIdent(toks[i + 1])) continue;
    if (!IsPunct(toks[i + 2], "=") && !IsPunct(toks[i + 2], "(")) continue;
    const std::string& name = toks[i + 1].text;
    const size_t decl_line = toks[i + 1].line;

    bool used = false;
    for (size_t j = i + 3; j < fn.body_end && !used; ++j) {
      if (!IsIdent(toks[j]) || toks[j].text != name) continue;
      const bool overwrite = AtStatementStart(toks, j, fn.body_begin) &&
                             j + 1 < fn.body_end &&
                             IsPunct(toks[j + 1], "=");
      if (!overwrite) used = true;
    }
    if (!used) {
      Finding f;
      f.file = pf.src->path;
      f.line = decl_line;
      f.rule = "tabbench-status-local";
      f.message = "Status local '" + name + "' in " + fn.qualified +
                  " is never consulted (check .ok() or return it)";
      findings->push_back(std::move(f));
    }
  }
}

void CheckResultOnError(const FunctionInfo& fn, const ParsedFile& pf,
                        std::vector<Finding>* findings) {
  const std::vector<Token>& toks = pf.toks;
  for (size_t i = fn.body_begin; i + 7 < fn.body_end; ++i) {
    // `if ( ! <name> . ok ( ) )` — then look for <name>.value() or
    // *<name> inside the guarded statement/block.
    if (!IsIdent(toks[i]) || toks[i].text != "if") continue;
    if (!IsPunct(toks[i + 1], "(") || !IsPunct(toks[i + 2], "!")) continue;
    if (!IsIdent(toks[i + 3])) continue;
    if (!IsPunct(toks[i + 4], ".") || !IsIdent(toks[i + 5]) ||
        toks[i + 5].text != "ok") {
      continue;
    }
    if (!IsPunct(toks[i + 6], "(") || !IsPunct(toks[i + 7], ")")) continue;
    const size_t cond_close =
        MatchBracket(toks, i + 1, fn.body_end, "(", ")");
    if (cond_close >= fn.body_end || cond_close != i + 8) continue;
    const std::string& name = toks[i + 3].text;

    // Extent of the error path: a braced block, or one statement.
    size_t b = cond_close + 1, e;
    if (b < fn.body_end && IsPunct(toks[b], "{")) {
      e = MatchBracket(toks, b, fn.body_end, "{", "}");
    } else {
      e = b;
      while (e < fn.body_end && !IsPunct(toks[e], ";")) ++e;
    }
    for (size_t j = b; j < e; ++j) {
      if (!IsIdent(toks[j]) || toks[j].text != name) continue;
      const bool value_call = j + 2 < e && IsPunct(toks[j + 1], ".") &&
                              IsIdent(toks[j + 2]) &&
                              (toks[j + 2].text == "value");
      // *r is a deref unless the `*` follows a type name (a `Foo* r`
      // declaration); keywords like `return *r` are still derefs.
      const bool deref =
          j > b && IsPunct(toks[j - 1], "*") &&
          (j < 2 || !IsIdent(toks[j - 2]) ||
           CallKeywords().count(toks[j - 2].text) != 0);
      const bool arrow = j + 1 < e && IsPunct(toks[j + 1], "->");
      if (value_call || deref || arrow) {
        Finding f;
        f.file = pf.src->path;
        f.line = toks[j].line;
        f.rule = "tabbench-result-on-error";
        f.message = "'" + name + "' is accessed on its !ok() path in " +
                    fn.qualified +
                    " (use .status(), the value is not there)";
        f.related.push_back(
            {pf.src->path, toks[i].line, "error path begins here"});
        findings->push_back(std::move(f));
        break;
      }
    }
  }
}

void CheckUseAfterMove(const FunctionInfo& fn, const ParsedFile& pf,
                       std::vector<Finding>* findings) {
  const std::vector<Token>& toks = pf.toks;
  struct Moved {
    size_t line;
    int depth;
  };
  std::map<std::string, Moved> moved;
  int depth = 0;
  for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      ++depth;
      continue;
    }
    if (IsPunct(t, "}")) {
      --depth;
      // Leaving a scope may loop back (for/while): forget moves made
      // inside it rather than flag the next iteration's reuse.
      for (auto it = moved.begin(); it != moved.end();) {
        if (it->second.depth > depth) {
          it = moved.erase(it);
        } else {
          ++it;
        }
      }
      continue;
    }
    // std :: move ( <name> )
    if (IsIdent(t) && t.text == "std" && i + 5 < fn.body_end &&
        IsPunct(toks[i + 1], "::") && IsIdent(toks[i + 2]) &&
        toks[i + 2].text == "move" && IsPunct(toks[i + 3], "(") &&
        IsIdent(toks[i + 4]) && IsPunct(toks[i + 5], ")")) {
      // `x = std::move(x)` rebinds the name (lambda init-capture); later
      // occurrences are the new binding, not the moved-from original.
      const bool rebind = i >= fn.body_begin + 2 &&
                          IsPunct(toks[i - 1], "=") &&
                          IsIdent(toks[i - 2]) &&
                          toks[i - 2].text == toks[i + 4].text;
      if (!rebind) {
        moved.emplace(toks[i + 4].text, Moved{toks[i + 4].line, depth});
      }
      i += 5;
      continue;
    }
    if (!IsIdent(t)) continue;
    auto it = moved.find(t.text);
    if (it == moved.end()) continue;
    const bool overwrite = AtStatementStart(toks, i, fn.body_begin) &&
                           i + 1 < fn.body_end && IsPunct(toks[i + 1], "=");
    // Reinitializing a moved-from object is legal, not a read.
    const bool reinit =
        i + 2 < fn.body_end && IsPunct(toks[i + 1], ".") &&
        IsIdent(toks[i + 2]) &&
        (toks[i + 2].text == "clear" || toks[i + 2].text == "reset" ||
         toks[i + 2].text == "assign");
    if (overwrite || reinit) {
      moved.erase(it);
      continue;
    }
    Finding f;
    f.file = pf.src->path;
    f.line = t.line;
    f.rule = "tabbench-use-after-move";
    f.message = "'" + t.text + "' in " + fn.qualified +
                " is used after std::move; the value is gone";
    f.related.push_back({pf.src->path, it->second.line, "moved-from here"});
    findings->push_back(std::move(f));
    moved.erase(it);  // one finding per move
  }
}

}  // namespace

void RunStatusFlowPass(const Model& model, std::vector<Finding>* findings) {
  for (const FunctionInfo& fn : model.functions) {
    const ParsedFile& pf = model.files[fn.file_index];
    CheckStatusLocals(fn, pf, findings);
    CheckResultOnError(fn, pf, findings);
    CheckUseAfterMove(fn, pf, findings);
  }
}

// ---------------------------------------------------------------------------
// Nondeterminism taint pass
// ---------------------------------------------------------------------------

void RunTaintPass(const Model& model, std::vector<Finding>* findings) {
  const size_t n = model.functions.size();
  struct Taint {
    bool tainted = false;
    std::string why;          // "calls X" or the direct source
    size_t via_line = 0;      // call or source line
    size_t source_fn = 0;     // ultimate source function
  };
  std::vector<Taint> taint(n);

  // Direct sources (lambda bodies included: deferred nondeterminism is
  // still nondeterminism).
  std::vector<BodyFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = ExtractBodyFacts(model, model.functions[i]);
    if (!facts[i].taint_sources.empty()) {
      taint[i].tainted = true;
      taint[i].why = facts[i].taint_sources[0].what;
      taint[i].via_line = facts[i].taint_sources[0].line;
      taint[i].source_fn = i;
    }
  }

  // Propagate caller-ward to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (taint[i].tainted) continue;
      for (const BodyFacts::Call& c : facts[i].calls) {
        for (size_t callee : ResolveCall(model, c.receiver_type,
                                         model.functions[i].cls, c.name)) {
          if (callee == i || !taint[callee].tainted) continue;
          taint[i].tainted = true;
          taint[i].why = "calls " + model.functions[callee].qualified;
          taint[i].via_line = c.line;
          taint[i].source_fn = taint[callee].source_fn;
          changed = true;
          break;
        }
        if (taint[i].tainted) break;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!taint[i].tainted) continue;
    const FunctionInfo& fn = model.functions[i];
    const std::string& path = model.files[fn.file_index].src->path;
    if (path.rfind("src/core/", 0) != 0 &&
        path.rfind("src/engine/", 0) != 0) {
      continue;
    }
    Finding f;
    f.file = path;
    f.line = fn.line;
    f.rule = "tabbench-nondeterminism";
    f.message = "'" + fn.qualified +
                "' can reach wall-clock/system-RNG nondeterminism (" +
                taint[i].why +
                "); core/ and engine/ results must be reproducible";
    f.related.push_back({path, taint[i].via_line, taint[i].why});
    const size_t src = taint[i].source_fn;
    if (src != i) {
      const FunctionInfo& sfn = model.functions[src];
      f.related.push_back({model.files[sfn.file_index].src->path,
                           taint[src].via_line,
                           "ultimate source: " + taint[src].why + " in " +
                               sfn.qualified});
    }
    findings->push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// Lockset-inference pass (Eraser-style)
// ---------------------------------------------------------------------------

namespace {

std::string ClassTail(const std::string& cls) {
  const size_t p = cls.rfind("::");
  return p == std::string::npos ? cls : cls.substr(p + 2);
}

/// Constructors and destructors run before/after any sharing, so their
/// accesses to their *own* class's fields never join the lockset sample.
bool IsCtorOrDtor(const FunctionInfo& fn) {
  if (fn.cls.empty()) return false;
  const std::string tail = ClassTail(fn.cls);
  return fn.name == tail || fn.name == "~" + tail;
}

std::string JoinSet(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& m : s) {
    if (!out.empty()) out += ", ";
    out += m;
  }
  return out;
}

bool UnderSrc(const std::string& path) {
  return path.rfind("src/", 0) == 0;
}

}  // namespace

void RunLocksetPass(const Model& model, std::vector<Finding>* findings) {
  const size_t n = model.functions.size();
  std::vector<BodyFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = ExtractBodyFacts(model, model.functions[i]);
  }

  // Every access site per (class, field), with its lockset. Tests and
  // tools are single-threaded scaffolding; only src/ samples count.
  struct SiteInfo {
    std::string file;
    size_t line = 0;
    std::string fn;  // qualified accessor
    std::set<std::string> held;
  };
  std::map<std::pair<std::string, std::string>, std::vector<SiteInfo>>
      sites;
  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    const std::string& file = model.files[fn.file_index].src->path;
    if (!UnderSrc(file)) continue;
    for (const BodyFacts::Access& a : facts[i].accesses) {
      if (a.cls == fn.cls && IsCtorOrDtor(fn)) continue;
      sites[{a.cls, a.field}].push_back(
          {file, a.line, fn.qualified, a.held});
    }
  }

  for (const auto& [key, vec] : sites) {
    const std::string& cls = key.first;
    const std::string& field = key.second;
    auto cit = model.classes.find(cls);
    if (cit == model.classes.end()) continue;
    auto mit = cit->second.members.find(field);
    if (mit == cit->second.members.end()) continue;
    const MemberInfo& mem = mit->second;
    // Fields that need no guard: immutable, atomic, or the locks
    // themselves (Mutex/CondVar are internally synchronized).
    if (mem.is_const || mem.is_atomic) continue;
    if (mem.type == "Mutex" || mem.type == "CondVar") continue;
    if (cit->second.mutexes.count(field) != 0) continue;
    // Plain value/option structs own no mutex: their instances are
    // per-call-site, so class-level lockset aggregation would conflate
    // unrelated objects. Only classes that own a lock (or fields with a
    // declared guard) have a protocol to infer.
    if (cit->second.mutexes.empty() && mem.guarded_by.empty()) continue;
    // A member whose type is itself a lock-owning class (CircuitBreaker,
    // ThreadPool) is self-synchronized; calls through it are its own
    // business.
    {
      auto tit = model.classes.find(mem.type);
      if (tit != model.classes.end() && !tit->second.mutexes.empty()) {
        continue;
      }
    }
    const std::string decl_file = model.files[mem.file_index].src->path;
    if (!UnderSrc(decl_file)) continue;

    if (!mem.guarded_by.empty()) {
      // Declared guard: every site must hold it, or the annotation is a
      // model the code contradicts.
      const std::string guard =
          mem.guarded_by.find("::") != std::string::npos
              ? mem.guarded_by
              : cls + "::" + mem.guarded_by;
      std::set<std::string> reported_fns;
      for (const SiteInfo& s : vec) {
        if (s.held.count(guard) != 0) continue;
        if (!reported_fns.insert(s.fn).second) continue;
        Finding f;
        f.file = s.file;
        f.line = s.line;
        f.rule = "tabbench-lockset-contradicted";
        f.message = "field " + cls + "::" + field +
                    " is declared TB_GUARDED_BY(" + mem.guarded_by +
                    ") but " + s.fn + " accesses it without holding " +
                    guard;
        f.related.push_back(
            {decl_file, mem.line, "declared TB_GUARDED_BY here"});
        findings->push_back(std::move(f));
      }
      continue;
    }

    size_t locked = 0, bare = 0;
    std::set<std::string> union_held;
    std::set<std::string> common;
    bool first_locked = true;
    for (const SiteInfo& s : vec) {
      if (s.held.empty()) {
        ++bare;
        continue;
      }
      ++locked;
      union_held.insert(s.held.begin(), s.held.end());
      if (first_locked) {
        common = s.held;
        first_locked = false;
      } else {
        std::set<std::string> inter;
        std::set_intersection(common.begin(), common.end(),
                              s.held.begin(), s.held.end(),
                              std::inserter(inter, inter.begin()));
        common.swap(inter);
      }
    }

    if (locked >= 1 && bare >= 1) {
      Finding f;
      f.file = decl_file;
      f.line = mem.line;
      f.rule = "tabbench-lockset-inconsistent";
      f.message = "field " + cls + "::" + field +
                  " is accessed both under a lock (" +
                  JoinSet(union_held) +
                  ") and with no lock held; the bare sites race";
      size_t shown = 0;
      for (const SiteInfo& s : vec) {
        if (shown >= 6) break;
        f.related.push_back(
            {s.file, s.line,
             (s.held.empty() ? "no lock held, in "
                             : "under " + JoinSet(s.held) + ", in ") +
                 s.fn});
        ++shown;
      }
      findings->push_back(std::move(f));
      continue;
    }

    if (bare == 0 && locked >= 2 && !common.empty()) {
      // A consistent inferred guard with no declared annotation: suggest
      // one (same-class guards are mechanically insertable).
      std::string guard = *common.begin();
      for (const std::string& g : common) {
        if (g.rfind(cls + "::", 0) == 0) {
          guard = g;
          break;
        }
      }
      const bool same_class = guard.rfind(cls + "::", 0) == 0;
      const std::string local =
          same_class ? guard.substr(cls.size() + 2) : guard;
      Finding f;
      f.file = decl_file;
      f.line = mem.line;
      f.rule = "tabbench-lockset-unannotated";
      f.message = "field " + cls + "::" + field +
                  " is consistently accessed holding " + guard +
                  " but lacks a TB_GUARDED_BY(" + local + ") annotation";
      size_t shown = 0;
      for (const SiteInfo& s : vec) {
        if (shown >= 4) break;
        f.related.push_back(
            {s.file, s.line, "under " + JoinSet(s.held) + ", in " + s.fn});
        ++shown;
      }
      if (same_class) {
        f.fix.after_word = field;
        f.fix.text = " TB_GUARDED_BY(" + local + ")";
      }
      findings->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Blocking-under-lock pass
// ---------------------------------------------------------------------------

void RunBlockingPass(const Model& model, std::vector<Finding>* findings) {
  const size_t n = model.functions.size();
  std::vector<BodyFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = ExtractBodyFacts(model, model.functions[i]);
  }

  // may_block: the function's own frame can park the thread (lambda
  // bodies excluded — they block whichever thread later runs them).
  struct BlockSite {
    bool blocks = false;
    std::string what;
    std::string file;
    size_t line = 0;
  };
  std::vector<BlockSite> may_block(n);
  for (size_t i = 0; i < n; ++i) {
    for (const BodyFacts::Block& b : facts[i].blocks) {
      if (b.in_lambda) continue;
      may_block[i] = {true, b.what,
                      model.files[model.functions[i].file_index].src->path,
                      b.line};
      break;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (may_block[i].blocks) continue;
      for (const BodyFacts::Call& c : facts[i].calls) {
        if (c.in_lambda) continue;
        for (size_t callee : ResolveCall(model, c.receiver_type,
                                         model.functions[i].cls, c.name)) {
          if (callee == i || !may_block[callee].blocks) continue;
          may_block[i] = may_block[callee];
          changed = true;
          break;
        }
        if (may_block[i].blocks) break;
      }
    }
  }

  // Direct blocking operations under a held lock. A lambda body blocking
  // under its *own* lock still counts: b.held is frame-correct.
  std::set<std::pair<std::string, size_t>> direct_sites;
  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    const std::string& file = model.files[fn.file_index].src->path;
    if (!UnderSrc(file)) continue;
    for (const BodyFacts::Block& b : facts[i].blocks) {
      if (b.held.empty()) continue;
      std::set<std::string> held_names;
      for (const BodyFacts::Acquire& a : b.held) held_names.insert(a.mutex);
      Finding f;
      f.file = file;
      f.line = b.line;
      f.rule = "tabbench-blocking-under-lock";
      f.message = "blocking " + b.what + " while holding " +
                  JoinSet(held_names) + " in " + fn.qualified +
                  "; every waiter on the mutex stalls behind it";
      for (const BodyFacts::Acquire& a : b.held) {
        f.related.push_back(
            {file, a.line, a.mutex + " acquired here, still held"});
      }
      direct_sites.insert({file, b.line});
      findings->push_back(std::move(f));
    }
  }

  // Calls made under a lock into functions that (transitively) block.
  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    const std::string& file = model.files[fn.file_index].src->path;
    if (!UnderSrc(file)) continue;
    for (const BodyFacts::Call& c : facts[i].calls) {
      if (c.held.empty()) continue;
      if (direct_sites.count({file, c.line}) != 0) continue;
      for (size_t callee : ResolveCall(model, c.receiver_type, fn.cls,
                                       c.name)) {
        if (callee == i || !may_block[callee].blocks) continue;
        std::set<std::string> held_names;
        for (const BodyFacts::Acquire& a : c.held) {
          held_names.insert(a.mutex);
        }
        Finding f;
        f.file = file;
        f.line = c.line;
        f.rule = "tabbench-blocking-under-lock";
        f.message = "call to " + model.functions[callee].qualified +
                    " blocks (" + may_block[callee].what +
                    ") while holding " + JoinSet(held_names) + " in " +
                    fn.qualified;
        for (const BodyFacts::Acquire& a : c.held) {
          f.related.push_back(
              {file, a.line, a.mutex + " acquired here, still held"});
        }
        f.related.push_back({may_block[callee].file, may_block[callee].line,
                             "blocks here: " + may_block[callee].what});
        findings->push_back(std::move(f));
        break;  // one finding per call site
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cancellation-poll liveness pass
// ---------------------------------------------------------------------------

namespace {

/// The worker loops whose liveness the watchdog depends on.
bool InCancellationScope(const std::string& path) {
  return path.rfind("src/exec/", 0) == 0 ||
         path.rfind("src/service/", 0) == 0 ||
         path == "src/core/runner.cc";
}

/// True when toks[j] reads cancellation/stop state or calls a watchdog
/// poll. Writes (`x = ...`, `x.store(...)`) request cancellation rather
/// than observe it, so they do not count.
bool IsPollToken(const std::vector<Token>& toks, size_t j) {
  if (!IsIdent(toks[j])) return false;
  const std::string& s = toks[j].text;
  if (j + 1 < toks.size() && IsPunct(toks[j + 1], "=")) return false;
  if (j + 2 < toks.size() && IsPunct(toks[j + 1], ".") &&
      IsIdent(toks[j + 2]) && toks[j + 2].text == "store") {
    return false;
  }
  std::string lower;
  for (char ch : s) {
    lower += static_cast<char>(
        ch >= 'A' && ch <= 'Z' ? ch - 'A' + 'a' : ch);
  }
  if (lower.find("cancel") != std::string::npos &&
      lower.find("requestcancel") == std::string::npos) {
    return true;
  }
  static const std::set<std::string> kStopLike = {
      "stop",      "stop_",  "stopped_", "stopping_",
      "shutdown_", "quit_",  "stop_requested"};
  if (kStopLike.count(s) != 0) return true;
  static const std::set<std::string> kPollCalls = {"CheckTimeout",
                                                   "ShouldYield", "Poll"};
  if (kPollCalls.count(s) != 0 && j + 1 < toks.size() &&
      IsPunct(toks[j + 1], "(")) {
    return true;
  }
  return false;
}

bool RangeHasPoll(const std::vector<Token>& toks, size_t b, size_t e) {
  for (size_t j = b; j < e; ++j) {
    if (IsPollToken(toks, j)) return true;
  }
  return false;
}

}  // namespace

void RunCancellationPass(const Model& model,
                         std::vector<Finding>* findings) {
  const size_t n = model.functions.size();
  std::vector<BodyFacts> facts(n);
  for (size_t i = 0; i < n; ++i) {
    facts[i] = ExtractBodyFacts(model, model.functions[i]);
  }

  // fn_polls: the function's body (or a callee's, transitively) observes
  // cancellation — calling it from a loop makes the loop live.
  std::vector<bool> fn_polls(n, false);
  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    fn_polls[i] = RangeHasPoll(model.files[fn.file_index].toks,
                               fn.body_begin, fn.body_end);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (fn_polls[i]) continue;
      for (const BodyFacts::Call& c : facts[i].calls) {
        for (size_t callee : ResolveCall(model, c.receiver_type,
                                         model.functions[i].cls, c.name)) {
          if (callee != i && fn_polls[callee]) {
            fn_polls[i] = true;
            changed = true;
            break;
          }
        }
        if (fn_polls[i]) break;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const FunctionInfo& fn = model.functions[i];
    const ParsedFile& pf = model.files[fn.file_index];
    if (!InCancellationScope(pf.src->path)) continue;
    for (const BodyFacts::Loop& loop : facts[i].loops) {
      if (!loop.unbounded) continue;
      bool polls = RangeHasPoll(pf.toks, loop.range_begin, loop.range_end);
      if (!polls) {
        for (const BodyFacts::Call& c : facts[i].calls) {
          if (c.tok < loop.range_begin || c.tok >= loop.range_end) {
            continue;
          }
          for (size_t callee : ResolveCall(model, c.receiver_type, fn.cls,
                                           c.name)) {
            if (callee != i && fn_polls[callee]) {
              polls = true;
              break;
            }
          }
          if (polls) break;
        }
      }
      if (polls) continue;
      Finding f;
      f.file = pf.src->path;
      f.line = loop.line;
      f.rule = "tabbench-cancellation-poll";
      f.message = "unbounded loop in " + fn.qualified +
                  " never reaches a cancellation or watchdog poll; a "
                  "wedged iteration can never be cancelled";
      findings->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// TB_FAULT_POINT coverage report
// ---------------------------------------------------------------------------

namespace {

struct FaultSite {
  std::string file;
  size_t line = 0;
  std::string name;
};

/// Scans every parsed file for TB_FAULT_POINT sites (skipping the macro
/// definition itself), keyed by layer index (-1 = outside every layer).
std::map<int, std::vector<FaultSite>> CollectFaultSites(
    const std::vector<SourceFile>& files, const LayerSpec& layers) {
  const Model model = BuildModel(files);
  std::map<int, std::vector<FaultSite>> by_layer;
  for (const ParsedFile& pf : model.files) {
    for (size_t li = 0; li < pf.code_lines.size(); ++li) {
      const std::string& code = pf.code_lines[li];
      const size_t pos = code.find("TB_FAULT_POINT");
      if (pos == std::string::npos) continue;
      if (code.find("#define") != std::string::npos) continue;
      // The argument is a string literal (blanked in code_lines); read it
      // from the raw line.
      const std::string& raw = pf.raw_lines[li];
      std::string name;
      const size_t open = raw.find('(', raw.find("TB_FAULT_POINT"));
      if (open != std::string::npos) {
        size_t end = open + 1;
        while (end < raw.size() && raw[end] != ',' && raw[end] != ')') {
          ++end;
        }
        name = raw.substr(open + 1, end - open - 1);
        while (!name.empty() && (name.front() == ' ' ||
                                 name.front() == '"')) {
          name.erase(name.begin());
        }
        while (!name.empty() &&
               (name.back() == ' ' || name.back() == '"')) {
          name.pop_back();
        }
      }
      by_layer[LayerOf(layers, pf.src->path)].push_back(
          {pf.src->path, li + 1, name});
    }
  }
  return by_layer;
}

/// "" when a fault-point `name` conforms to the layer.component.action
/// convention; otherwise the reason it does not. `layer_name` is the
/// declared layer of the site's file ("" for files outside every layer,
/// which get the format check only). A layer named with underscores
/// matches either spelling of the prefix: layer net_io accepts "net_io."
/// and "net.io.".
std::string FaultNameProblem(const std::string& name,
                             const std::string& layer_name) {
  if (name.empty()) return "missing fault-point name";
  size_t segs = 1;
  bool bad_char = name.front() == '.' || name.back() == '.';
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '.') {
      ++segs;
      if (i + 1 < name.size() && name[i + 1] == '.') bad_char = true;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_')) {
      bad_char = true;
    }
  }
  if (bad_char) {
    return "fault-point name '" + name +
           "' must be lowercase dot-separated segments "
           "(layer.component.action)";
  }
  if (segs < 2) {
    return "fault-point name '" + name +
           "' needs at least two segments (layer.component.action)";
  }
  if (!layer_name.empty()) {
    std::string dotted = layer_name;
    for (char& c : dotted) {
      if (c == '_') c = '.';
    }
    if (name.rfind(layer_name + ".", 0) != 0 &&
        name.rfind(dotted + ".", 0) != 0) {
      return "fault-point name '" + name +
             "' must start with its file's layer ('" + layer_name +
             ".'): chaos schedules select faults by layer prefix";
    }
  }
  return "";
}

/// Every naming-convention violation across the collected sites, one
/// "file:line: reason" string per site.
std::vector<std::string> FaultNamingViolations(
    const std::map<int, std::vector<FaultSite>>& by_layer,
    const LayerSpec& layers) {
  std::vector<std::string> out;
  for (const auto& [layer_idx, sites] : by_layer) {
    const std::string layer_name =
        layer_idx >= 0 ? layers.layers[static_cast<size_t>(layer_idx)].name
                       : "";
    for (const FaultSite& s : sites) {
      const std::string problem = FaultNameProblem(s.name, layer_name);
      if (!problem.empty()) {
        out.push_back(s.file + ":" + std::to_string(s.line) + ": " +
                      problem);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string FaultCoverageReport(const std::vector<SourceFile>& files,
                                const LayerSpec& layers) {
  const std::map<int, std::vector<FaultSite>> by_layer =
      CollectFaultSites(files, layers);

  std::string out = "TB_FAULT_POINT coverage by layer\n";
  for (size_t li = 0; li < layers.layers.size(); ++li) {
    const auto it = by_layer.find(static_cast<int>(li));
    const size_t count = it == by_layer.end() ? 0 : it->second.size();
    out += "  " + layers.layers[li].name + ": " + std::to_string(count) +
           (count == 1 ? " site\n" : " sites\n");
    if (it == by_layer.end()) continue;
    for (const FaultSite& s : it->second) {
      out += "    " + s.file + ":" + std::to_string(s.line);
      if (!s.name.empty()) out += "  " + s.name;
      out += "\n";
    }
  }
  std::vector<std::string> zero;
  for (size_t li = 0; li < layers.layers.size(); ++li) {
    if (by_layer.count(static_cast<int>(li)) == 0) {
      zero.push_back(layers.layers[li].name);
    }
  }
  if (!zero.empty()) {
    out += "layers with zero fault points: " + JoinNames(zero) + "\n";
  }
  const auto outside = by_layer.find(-1);
  if (outside != by_layer.end()) {
    out += "outside declared layers: " +
           std::to_string(outside->second.size()) +
           (outside->second.size() == 1 ? " site\n" : " sites\n");
  }
  const std::vector<std::string> naming =
      FaultNamingViolations(by_layer, layers);
  if (!naming.empty()) {
    out += "naming-convention violations (layer.component.action):\n";
    for (const std::string& v : naming) out += "  " + v + "\n";
  }
  return out;
}

std::map<std::string, size_t> FaultSitesPerLayer(
    const std::vector<SourceFile>& files, const LayerSpec& layers) {
  const std::map<int, std::vector<FaultSite>> by_layer =
      CollectFaultSites(files, layers);
  std::map<std::string, size_t> counts;
  for (size_t li = 0; li < layers.layers.size(); ++li) {
    const auto it = by_layer.find(static_cast<int>(li));
    counts[layers.layers[li].name] =
        it == by_layer.end() ? 0 : it->second.size();
  }
  return counts;
}

std::vector<std::string> CheckFaultCoverage(
    const std::vector<SourceFile>& files, const LayerSpec& layers,
    const std::string& required_text) {
  const std::map<int, std::vector<FaultSite>> by_layer =
      CollectFaultSites(files, layers);
  std::map<std::string, size_t> counts;
  for (size_t li = 0; li < layers.layers.size(); ++li) {
    const auto it = by_layer.find(static_cast<int>(li));
    counts[layers.layers[li].name] =
        it == by_layer.end() ? 0 : it->second.size();
  }
  // The ratchet checks naming unconditionally: a site whose name lies
  // about its layer silently escapes every layer-prefixed chaos schedule.
  std::vector<std::string> violations =
      FaultNamingViolations(by_layer, layers);
  std::istringstream in(required_text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string layer;
    if (!(fields >> layer)) continue;  // blank / comment-only line
    size_t min_sites = 1;
    fields >> min_sites;  // optional; keeps the default on parse failure
    const auto it = counts.find(layer);
    if (it == counts.end()) {
      violations.push_back("line " + std::to_string(lineno) + ": layer '" +
                           layer +
                           "' is not declared in the layer spec (renamed or "
                           "removed? update the floor file alongside)");
      continue;
    }
    if (it->second < min_sites) {
      violations.push_back(
          "layer '" + layer + "' has " + std::to_string(it->second) +
          " TB_FAULT_POINT site" + (it->second == 1 ? "" : "s") +
          ", below its recorded floor of " + std::to_string(min_sites) +
          " — fault-injection coverage must not regress");
    }
  }
  return violations;
}

}  // namespace tabbench_analyze
