#include "tools/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "tools/lint_index.h"

namespace mbta::lint {

namespace {

// ---------------------------------------------------------------------------
// The per-file rule engine. Lexing lives in tools/lint_index.{h,cc} — the
// same token stream feeds both these rules and the whole-program passes.
// ---------------------------------------------------------------------------

class Linter {
 public:
  Linter(std::string_view path, const LexResult& lex, WaiverUseSet* used)
      : path_(path), scope_(ClassifyPath(path)), lex_(lex), used_(used) {}

  std::vector<Violation> Run() {
    if (scope_.library) {
      RuleUnordered();
      if (scope_.subsystem != "util" && scope_.subsystem != "obs") {
        RuleNondeterminism();
      }
      if (scope_.subsystem != "util") RuleFloatEq();
      RuleStdout();
      RuleObservabilityNames();
      if (scope_.subsystem != "util" && scope_.subsystem != "obs") {
        RuleRawClock();
      }
      RuleRawThreads();
      if (scope_.subsystem == "core" || scope_.subsystem == "flow") {
        RuleLoopAlloc();
      }
      if (scope_.header) RuleHeaderHygiene();
    }
    std::sort(violations_.begin(), violations_.end(),
              [](const Violation& a, const Violation& b) {
                return std::tie(a.line, a.rule, a.message) <
                       std::tie(b.line, b.rule, b.message);
              });
    return std::move(violations_);
  }

 private:
  bool Waived(int line, std::string_view tag) {
    for (const int l : {line, line - 1}) {
      const auto it = lex_.waivers.find(l);
      if (it == lex_.waivers.end()) continue;
      for (const Waiver& w : it->second) {
        if (w.tag == tag && w.has_reason) {
          if (used_ != nullptr) used_->emplace(l, w.tag);
          return true;
        }
      }
    }
    return false;
  }

  void Report(int line, std::string rule, std::string_view tag,
              std::string message) {
    if (Waived(line, tag)) return;
    violations_.push_back(
        Violation{std::string(path_), line, std::move(rule),
                  std::move(message)});
  }

  const Token& Tok(std::size_t i) const { return lex_.tokens[i]; }
  std::size_t Size() const { return lex_.tokens.size(); }
  bool IsPunct(std::size_t i, std::string_view p) const {
    return i < Size() && Tok(i).kind == Token::Kind::kPunct &&
           Tok(i).text == p;
  }
  bool IsIdent(std::size_t i, std::string_view name) const {
    return i < Size() && Tok(i).kind == Token::Kind::kIdent &&
           Tok(i).text == name;
  }

  /// Skips a balanced <...> starting at `i` (which must point at '<').
  /// Returns the index one past the closing '>'.
  std::size_t SkipTemplateArgs(std::size_t i) const {
    int depth = 0;
    while (i < Size()) {
      if (IsPunct(i, "<")) ++depth;
      if (IsPunct(i, ">")) {
        --depth;
        if (depth == 0) return i + 1;
      }
      // Give up on stray comparisons: a template argument list in a
      // declaration never contains ';'.
      if (IsPunct(i, ";")) return i;
      ++i;
    }
    return i;
  }

  // R1 — unordered containers in library code.
  void RuleUnordered() {
    std::set<std::string> unordered_vars;
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text == "unordered_map" || t.text == "unordered_set" ||
          t.text == "unordered_multimap" || t.text == "unordered_multiset") {
        if (!IsPunct(i + 1, "<")) continue;  // e.g. a bare mention
        Report(t.line, "R1", "unordered-ok",
               "std::" + t.text +
                   " in library code: iteration order is nondeterministic; "
                   "use std::map/std::set, sorted extraction, or a vector "
                   "scan, or waive a genuinely order-blind use with "
                   "// mbta-lint: unordered-ok(reason)");
        // Track the declared variable name, if any, so iteration over it
        // can be flagged even when the declaration itself is waived.
        std::size_t j = SkipTemplateArgs(i + 1);
        if (j < Size() && Tok(j).kind == Token::Kind::kIdent) {
          unordered_vars.insert(Tok(j).text);
        }
        continue;
      }
      // Range-for whose range expression names a tracked variable.
      if (t.text == "for" && IsPunct(i + 1, "(")) {
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < Size(); ++j) {
          if (IsPunct(j, "(")) ++depth;
          if (IsPunct(j, ")")) {
            --depth;
            if (depth == 0) break;
          }
          if (depth == 1 && IsPunct(j, ";")) break;  // classic for
          if (depth == 1 && IsPunct(j, ":")) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        int depth2 = 1;
        for (std::size_t j = colon + 1; j < Size() && depth2 > 0; ++j) {
          if (IsPunct(j, "(")) ++depth2;
          if (IsPunct(j, ")")) --depth2;
          if (Tok(j).kind == Token::Kind::kIdent &&
              unordered_vars.count(Tok(j).text) &&
              !IsPunct(j - 1, ".") && !IsPunct(j - 1, "->")) {
            Report(Tok(j).line, "R1", "unordered-ok",
                   "range-for over unordered container '" + Tok(j).text +
                       "': iteration order is nondeterministic");
            break;
          }
        }
        continue;
      }
      // Explicit iteration (begin/cbegin/rbegin) on a tracked variable.
      if (unordered_vars.count(t.text) && IsPunct(i + 1, ".") &&
          i + 2 < Size() &&
          (IsIdent(i + 2, "begin") || IsIdent(i + 2, "cbegin") ||
           IsIdent(i + 2, "rbegin"))) {
        Report(t.line, "R1", "unordered-ok",
               "iterator over unordered container '" + t.text +
                   "': iteration order is nondeterministic");
      }
    }
  }

  // R2 — nondeterminism sources in solver code.
  void RuleNondeterminism() {
    static const std::set<std::string> kBannedTypes = {
        "random_device", "system_clock"};
    static const std::set<std::string> kBannedCalls = {
        "rand", "srand", "drand48", "gettimeofday", "localtime", "gmtime",
        "time", "clock"};
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent) continue;
      const bool member = i > 0 && (IsPunct(i - 1, ".") ||
                                    IsPunct(i - 1, "->"));
      if (kBannedTypes.count(t.text) && !member) {
        Report(t.line, "R2", "nondet-ok",
               "std::" + t.text +
                   " in solver code: all randomness/time must flow through "
                   "seeded mbta::Rng or the obs timers (waive with "
                   "// mbta-lint: nondet-ok(reason))");
        continue;
      }
      if (kBannedCalls.count(t.text) && IsPunct(i + 1, "(") && !member) {
        Report(t.line, "R2", "nondet-ok",
               t.text +
                   "() in solver code: wall-clock/global-RNG reads make "
                   "runs irreproducible; use seeded mbta::Rng "
                   "(src/util/rng.h) or a ScopedPhase timer");
      }
    }
  }

  // R3 — float equality against literals.
  void RuleFloatEq() {
    for (std::size_t i = 0; i < Size(); ++i) {
      if (Tok(i).kind != Token::Kind::kPunct) continue;
      if (Tok(i).text != "==" && Tok(i).text != "!=") continue;
      const bool lhs = i > 0 && IsFloatLiteralToken(Tok(i - 1));
      const bool rhs = i + 1 < Size() && IsFloatLiteralToken(Tok(i + 1));
      if (lhs || rhs) {
        Report(Tok(i).line, "R3", "float-eq-ok",
               "floating-point " + Tok(i).text +
                   " comparison: use a tolerance (std::abs(a - b) <= eps) "
                   "or waive an exact sentinel check with "
                   "// mbta-lint: float-eq-ok(reason)");
      }
    }
  }

  // R4 — stdout writes in library code.
  void RuleStdout() {
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent) continue;
      const bool member = i > 0 && (IsPunct(i - 1, ".") ||
                                    IsPunct(i - 1, "->"));
      if (member) continue;
      const bool call = IsPunct(i + 1, "(");
      if (t.text == "cout" ||
          (call && (t.text == "printf" || t.text == "puts" ||
                    t.text == "putchar")) ||
          (call && t.text == "fprintf" && IsIdent(i + 2, "stdout"))) {
        Report(t.line, "R4", "stdout-ok",
               t.text +
                   " in library code: libraries report through return "
                   "values, SolveStats, or caller-supplied streams; only "
                   "CLI/bench/tools binaries may write to stdout");
      }
    }
  }

  // R5 — observability key grammar (counters, phases, fault points).
  void RuleObservabilityNames() {
    // Tracer span/instant names and span-arg keys share the counter
    // grammar: traces are diffed by name, so names must be stable
    // identifiers, not prose.
    static const std::set<std::string> kKeyApis = {
        "Add", "Set", "SetGauge", "Value", "Gauge", "Has",
        "Record", "TotalMs", "BeginSpan", "Instant", "RegisterThread",
        "Arg"};
    // FaultInjector APIs take the fault-point name as their first string
    // argument; MaybeFail is a free function, the rest are members.
    static const std::set<std::string> kFaultApis = {
        "Arm", "ArmProbabilistic", "Disarm", "ShouldFail", "HitCount",
        "MaybeFail"};
    for (std::size_t i = 0; i + 2 < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent) continue;
      if (kFaultApis.count(t.text) && IsPunct(i + 1, "(") &&
          (t.text == "MaybeFail" || IsPunct(i - 1, ".") ||
           IsPunct(i - 1, "->"))) {
        // First string literal inside the call parens is the point name.
        int depth = 0;
        for (std::size_t j = i + 1; j < Size(); ++j) {
          if (IsPunct(j, "(")) ++depth;
          if (IsPunct(j, ")") && --depth == 0) break;
          if (Tok(j).kind == Token::Kind::kString) {
            if (!IsValidCounterKey(Tok(j).text)) {
              Report(Tok(j).line, "R5", "name-ok",
                     "fault-point name \"" + Tok(j).text +
                         "\" does not match the slash-path grammar "
                         "[a-z0-9_]+(/[a-z0-9_]+)* from CONTRIBUTING.md");
            } else if (!IsRegisteredFaultNamespace(Tok(j).text)) {
              Report(Tok(j).line, "R5", "name-ok",
                     "fault-point \"" + Tok(j).text +
                         "\" is outside the registered namespaces "
                         "(flow/, io/, service/, solver/ — "
                         "CONTRIBUTING.md \"Robustness\"); register a new "
                         "namespace there before introducing one");
            }
            break;
          }
        }
        continue;
      }
      if (t.text == "ScopedPhase" || t.text == "ScopedSpan") {
        // First string literal inside the constructor parens. Phase
        // labels are single segments (nesting builds the slash path);
        // span names are full slash paths (the tracer does not nest
        // names, only depths).
        const bool is_span = t.text == "ScopedSpan";
        std::size_t j = i + 1;
        while (j < Size() && !IsPunct(j, "(")) ++j;
        int depth = 0;
        for (; j < Size(); ++j) {
          if (IsPunct(j, "(")) ++depth;
          if (IsPunct(j, ")") && --depth == 0) break;
          if (Tok(j).kind == Token::Kind::kString) {
            if (is_span && !IsValidCounterKey(Tok(j).text)) {
              Report(Tok(j).line, "R5", "name-ok",
                     "span name \"" + Tok(j).text +
                         "\" does not match the slash-path grammar "
                         "[a-z0-9_]+(/[a-z0-9_]+)* from CONTRIBUTING.md");
            } else if (!is_span && !IsValidPhaseLabel(Tok(j).text)) {
              Report(Tok(j).line, "R5", "name-ok",
                     "phase label \"" + Tok(j).text +
                         "\" is not a lower_snake_case segment "
                         "([a-z0-9_]+); nesting builds slash paths, do not "
                         "embed '/' in a label");
            }
            break;
          }
        }
        continue;
      }
      if (!kKeyApis.count(t.text)) continue;
      if (!(IsPunct(i - 1, ".") || IsPunct(i - 1, "->"))) continue;
      if (!IsPunct(i + 1, "(")) continue;
      if (Tok(i + 2).kind != Token::Kind::kString) continue;
      if (!IsValidCounterKey(Tok(i + 2).text)) {
        Report(Tok(i + 2).line, "R5", "name-ok",
               "counter/phase key \"" + Tok(i + 2).text +
                   "\" does not match the slash-path grammar "
                   "[a-z0-9_]+(/[a-z0-9_]+)* from CONTRIBUTING.md");
      }
    }
  }

  // R7 — raw monotonic clocks / sleeps outside the Clock seam.
  void RuleRawClock() {
    static const std::set<std::string> kBannedClocks = {
        "steady_clock", "high_resolution_clock"};
    static const std::set<std::string> kBannedSleeps = {
        "sleep_for", "sleep_until"};
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent) continue;
      if (kBannedClocks.count(t.text)) {
        Report(t.line, "R7", "clock-ok",
               "std::chrono::" + t.text +
                   " outside src/util and src/obs: read time through the "
                   "injectable Clock (src/util/clock.h) or a WallTimer so "
                   "tests can drive deadlines with FakeClock (waive with "
                   "// mbta-lint: clock-ok(reason))");
        continue;
      }
      // `.sleep_for(...)` / `->sleep_for(...)` is some other object's
      // member, not std::this_thread's blocking call.
      const bool member =
          i > 0 && (IsPunct(i - 1, ".") || IsPunct(i - 1, "->"));
      if (!member && kBannedSleeps.count(t.text) && IsPunct(i + 1, "(")) {
        Report(t.line, "R7", "clock-ok",
               t.text +
                   "() outside src/util and src/obs: blocking sleeps do "
                   "not belong in library code; poll a DeadlineGate or "
                   "push waiting to the caller");
      }
    }
  }

  // R8 — raw threading primitives in library code.
  void RuleRawThreads() {
    static const std::set<std::string> kBanned = {"thread", "jthread",
                                                  "async"};
    for (std::size_t i = 2; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent || !kBanned.count(t.text)) continue;
      // Only the qualified std:: forms: `std::this_thread` is one
      // identifier and member calls like `pool.async(...)` never carry
      // the std:: prefix, so neither trips this.
      if (!(IsIdent(i - 2, "std") && IsPunct(i - 1, "::"))) continue;
      Report(t.line, "R8", "thread-ok",
             "std::" + t.text +
                 " in library code: the library is single-threaded, "
                 "so spawning belongs to the caller (tests, tools, "
                 "bench); waive with // mbta-lint: thread-ok(reason)");
    }
  }

  // R9 — heap allocation inside solver inner loops (src/core, src/flow).
  void RuleLoopAlloc() {
    // Token ranges of every for/while body (braced block or single
    // statement). Nested loops produce nested ranges; membership in any
    // range means "inside a loop body". Loop *headers* are exempt —
    // `for (std::size_t i ...` and range-for over a container are fine.
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (std::size_t i = 0; i < Size(); ++i) {
      if (!(IsIdent(i, "for") || IsIdent(i, "while"))) continue;
      if (!IsPunct(i + 1, "(")) continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < Size(); ++j) {
        if (IsPunct(j, "(")) ++depth;
        if (IsPunct(j, ")") && --depth == 0) break;
      }
      if (j + 1 >= Size()) continue;
      const std::size_t body = j + 1;
      if (IsPunct(body, "{")) {
        int braces = 0;
        std::size_t k = body;
        for (; k < Size(); ++k) {
          if (IsPunct(k, "{")) ++braces;
          if (IsPunct(k, "}") && --braces == 0) break;
        }
        bodies.emplace_back(body + 1, k);
      } else {
        // Single-statement body up to its ';' (the do-while tail lands
        // here with an empty range, which is harmless).
        int braces = 0;
        int parens = 0;
        std::size_t k = body;
        for (; k < Size(); ++k) {
          if (IsPunct(k, "{")) ++braces;
          if (IsPunct(k, "}")) --braces;
          if (IsPunct(k, "(")) ++parens;
          if (IsPunct(k, ")")) --parens;
          if (IsPunct(k, ";") && braces == 0 && parens == 0) break;
        }
        bodies.emplace_back(body, k);
      }
    }
    if (bodies.empty()) return;
    const auto in_body = [&bodies](std::size_t i) {
      for (const auto& [s, e] : bodies) {
        if (i >= s && i < e) return true;
      }
      return false;
    };
    static const std::set<std::string> kContainers = {
        "vector", "string", "deque", "list", "forward_list", "map",
        "multimap", "set", "multiset", "queue", "priority_queue", "stack",
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset", "basic_string"};
    constexpr std::string_view kRemedy =
        ": solver inner loops must not touch the heap — use the solve's "
        "Arena scratch (util/arena.h) or hoist the allocation out of the "
        "loop; waive a genuinely cold path with "
        "// mbta-lint: alloc-ok(reason)";
    for (std::size_t i = 0; i < Size(); ++i) {
      const Token& t = Tok(i);
      if (t.kind != Token::Kind::kIdent || !in_body(i)) continue;
      if (t.text == "new") {
        // `.new`/`->new` cannot occur (keyword), so every mention is the
        // allocating expression (or a placement form — also suspect).
        Report(t.line, "R9", "alloc-ok",
               "operator new in a solver inner loop" + std::string(kRemedy));
        continue;
      }
      if ((t.text == "make_unique" || t.text == "make_shared") &&
          (IsPunct(i + 1, "<") || IsPunct(i + 1, "("))) {
        Report(t.line, "R9", "alloc-ok",
               "std::" + t.text + " in a solver inner loop" +
                   std::string(kRemedy));
        continue;
      }
      // std::-qualified container construction / declaration:
      // `std::vector<T> tmp`, `std::string(...)`, `std::string s`.
      // References and type mentions followed by `&`/`*`/`>` stay silent.
      if (kContainers.count(t.text) && i >= 2 && IsIdent(i - 2, "std") &&
          IsPunct(i - 1, "::")) {
        const bool constructs =
            IsPunct(i + 1, "(") || IsPunct(i + 1, "{") ||
            (i + 1 < Size() && Tok(i + 1).kind == Token::Kind::kIdent);
        // A template-id is only a construction if what follows the
        // closing '>' is a declarator or brace/paren initializer.
        if (!constructs && IsPunct(i + 1, "<")) {
          const std::size_t after = SkipTemplateArgs(i + 1);
          if (after < Size() &&
              (Tok(after).kind == Token::Kind::kIdent ||
               IsPunct(after, "(") || IsPunct(after, "{"))) {
            Report(t.line, "R9", "alloc-ok",
                   "std::" + t.text +
                       " constructed in a solver inner loop" +
                       std::string(kRemedy));
          }
          continue;
        }
        if (constructs) {
          Report(t.line, "R9", "alloc-ok",
                 "std::" + t.text + " constructed in a solver inner loop" +
                     std::string(kRemedy));
        }
      }
    }
  }

  // R6 — header hygiene: guard + curated IWYU.
  void RuleHeaderHygiene() {
    // Include guard: #pragma once anywhere, or the first directive pair
    // being #ifndef X / #define X.
    bool guarded = false;
    for (const PpDirective& d : lex_.directives) {
      if (d.text.find("pragma") != std::string::npos &&
          d.text.find("once") != std::string::npos) {
        guarded = true;
        break;
      }
    }
    if (!guarded && lex_.directives.size() >= 2) {
      const std::string& first = lex_.directives[0].text;
      const std::string& second = lex_.directives[1].text;
      const std::size_t ifndef = first.find("ifndef");
      if (ifndef != std::string::npos &&
          second.find("define") != std::string::npos) {
        std::string macro = first.substr(ifndef + 6);
        macro.erase(0, macro.find_first_not_of(" \t"));
        macro.erase(macro.find_last_not_of(" \t") + 1);
        guarded = !macro.empty() &&
                  second.find(macro) != std::string::npos;
      }
    }
    if (!guarded) {
      Report(1, "R6", "include-ok",
             "header has no include guard: use "
             "#ifndef MBTA_<PATH>_<FILE>_H_ / #define ... or #pragma once");
    }

    // Curated IWYU: std name -> acceptable providing headers.
    std::set<std::string> included;
    for (const PpDirective& d : lex_.directives) {
      const std::size_t inc = d.text.find("include");
      if (inc == std::string::npos) continue;
      const std::size_t open = d.text.find('<', inc);
      const std::size_t close = d.text.find('>', open);
      if (open == std::string::npos || close == std::string::npos) continue;
      included.insert(d.text.substr(open + 1, close - open - 1));
    }
    std::set<std::string> reported;
    for (std::size_t i = 0; i + 2 < Size(); ++i) {
      if (!IsIdent(i, "std") || !IsPunct(i + 1, "::")) continue;
      const Token& name = Tok(i + 2);
      if (name.kind != Token::Kind::kIdent) continue;
      const auto& providers = StdIncludeProviders();
      const auto it = providers.find(name.text);
      if (it == providers.end()) continue;
      bool satisfied = false;
      for (const std::string& h : it->second) {
        if (included.count(h)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied || !reported.insert(name.text).second) continue;
      Report(name.line, "R6", "include-ok",
             "uses std::" + name.text + " but does not include <" +
                 it->second.front() +
                 ">: headers must be self-contained (include what you use)");
    }
  }

  std::string_view path_;
  FileScope scope_;
  const LexResult& lex_;
  WaiverUseSet* used_;
  std::vector<Violation> violations_;
};

}  // namespace

const std::map<std::string, std::vector<std::string>>&
StdIncludeProviders() {
  static const std::map<std::string, std::vector<std::string>> kProviders = {
      {"vector", {"vector"}},
      {"string", {"string"}},
      {"to_string", {"string"}},
      {"string_view", {"string_view"}},
      {"map", {"map"}},
      {"multimap", {"map"}},
      {"set", {"set"}},
      {"multiset", {"set"}},
      {"unordered_map", {"unordered_map"}},
      {"unordered_set", {"unordered_set"}},
      {"optional", {"optional"}},
      {"nullopt", {"optional"}},
      {"span", {"span"}},
      {"unique_ptr", {"memory"}},
      {"shared_ptr", {"memory"}},
      {"weak_ptr", {"memory"}},
      {"make_unique", {"memory"}},
      {"make_shared", {"memory"}},
      {"function", {"functional"}},
      {"pair", {"utility"}},
      {"make_pair", {"utility"}},
      {"tuple", {"tuple"}},
      {"array", {"array"}},
      {"mt19937", {"random"}},
      {"mt19937_64", {"random"}},
      {"thread", {"thread"}},
      {"mutex", {"mutex"}},
      {"lock_guard", {"mutex"}},
      {"scoped_lock", {"mutex"}},
      {"unique_lock", {"mutex"}},
      {"atomic", {"atomic"}},
      {"numeric_limits", {"limits"}},
      {"size_t", {"cstddef", "cstdio", "cstdlib", "cstring"}},
      {"ptrdiff_t", {"cstddef"}},
      {"int8_t", {"cstdint"}},
      {"int16_t", {"cstdint"}},
      {"int32_t", {"cstdint"}},
      {"int64_t", {"cstdint"}},
      {"uint8_t", {"cstdint"}},
      {"uint16_t", {"cstdint"}},
      {"uint32_t", {"cstdint"}},
      {"uint64_t", {"cstdint"}},
  };
  return kProviders;
}

std::vector<Violation> LintFile(std::string_view path,
                                std::string_view content) {
  const LexResult lex = Lex(content);
  return LintLexed(path, lex, nullptr);
}

std::vector<Violation> LintLexed(std::string_view path, const LexResult& lex,
                                 WaiverUseSet* used) {
  return Linter(path, lex, used).Run();
}

bool IsValidCounterKey(std::string_view key) {
  if (key.empty() || key.front() == '/' || key.back() == '/') return false;
  bool segment_empty = true;
  for (const char c : key) {
    if (c == '/') {
      if (segment_empty) return false;
      segment_empty = true;
      continue;
    }
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
    segment_empty = false;
  }
  return !segment_empty;
}

bool IsValidPhaseLabel(std::string_view label) {
  return IsValidCounterKey(label) &&
         label.find('/') == std::string_view::npos;
}

bool IsRegisteredFaultNamespace(std::string_view point) {
  static const std::set<std::string, std::less<>> kNamespaces = {
      "flow", "io", "service", "solver"};
  return kNamespaces.count(point.substr(0, point.find('/'))) > 0;
}

std::vector<std::string> CollectFiles(const std::vector<std::string>& paths,
                                      std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto want = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc";
  };
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && want(it->path())) {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec && errors != nullptr) {
        errors->push_back(p + ": " + ec.message());
      }
    } else if (errors != nullptr) {
      errors->push_back(p + ": not a file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace mbta::lint
