#ifndef MBTA_TOOLS_LINT_INDEX_H_
#define MBTA_TOOLS_LINT_INDEX_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

/// The whole-program side of mbta_lint: a lightweight C++ indexer that
/// builds a repo-wide symbol table, include graph, and approximate call
/// graph straight from the token stream — no libclang, no compiler,
/// exactly the dependency-free stance of the per-file rules.
///
/// What the index guarantees, and what it only approximates, matters for
/// every pass built on top (tools/lint_passes.h):
///
///   * Lexing is exact: comments, string literals, raw strings and
///     preprocessor directives never leak tokens, so a banned identifier
///     in a doc comment cannot taint anything.
///   * Function *definitions* are recovered structurally (scope stack of
///     namespace / class braces; ctor-init lists and trailing return
///     types handled), keyed by `Class::name` — namespaces are not part
///     of the key, so two classes with the same name in different
///     namespaces alias. The repo has none; the approximation is
///     documented in CONTRIBUTING.md.
///   * The call graph is name-resolved, not type-resolved: a member call
///     `x.Solve()` links to *every* indexed `Solve` definition. That
///     over-approximation is deliberate — for taint and reachability we
///     want the union over possible virtual targets. Preprocessor
///     branches are all visible (#if bodies lex like plain code), so
///     both sides of every #if are analyzed.
///   * operator overloads and lambdas are not indexed as functions
///     (calls inside a lambda attribute to the enclosing function).
namespace mbta::lint {

// ---------------------------------------------------------------------------
// Lexer (shared with the per-file rule engine in lint_engine.h).
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Waiver {
  std::string tag;
  std::string reason;  // text inside (...), empty when absent
  bool has_reason = false;
};

struct PpDirective {
  int line;
  std::string text;  // full directive, continuations joined, no comments
};

struct LexResult {
  std::vector<Token> tokens;
  std::map<int, std::vector<Waiver>> waivers;  // by line
  std::vector<PpDirective> directives;
};

LexResult Lex(std::string_view src);

/// True for number tokens with a fractional part, exponent, or hex-float
/// marker — the operands R3 polices.
bool IsFloatLiteralToken(const Token& t);

// ---------------------------------------------------------------------------
// Path scoping (shared with lint_engine.h).
// ---------------------------------------------------------------------------

/// How a path is scoped for rule selection. Derived from the first
/// recognized component: src/<subsystem>/... is library code; tools/,
/// bench/, tests/, examples/ are exempt from the library-only rules.
struct FileScope {
  bool library = false;      // under src/
  bool header = false;       // ends in .h
  std::string subsystem;     // "core", "flow", ... ("" outside src/)
};

FileScope ClassifyPath(std::string_view path);

// ---------------------------------------------------------------------------
// The repo index.
// ---------------------------------------------------------------------------

/// One file handed to the analyzer; no filesystem access happens inside
/// the index, so tests feed in-memory fixtures.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One call site inside a function body.
struct CallSite {
  std::string name;       // unqualified callee name
  std::string qualifier;  // last `X` of `X::name(...)`, else ""
  bool member = false;    // obj.name(...) / obj->name(...)
  bool ctor_style = false;  // `Type var;` / `Type var(...)` declaration
  int line = 0;
  std::size_t token = 0;  // index of the name token in the file's stream
};

/// One lock acquisition inside a function body (MutexLock, MBTA_OBS_LOCK,
/// std::unique_lock / lock_guard / scoped_lock, or a direct .Lock()).
struct LockAcquisition {
  std::string mutex;  // last identifier of the lock expression
  int line = 0;
  std::size_t token = 0;  // index into the file's token stream
};

struct FunctionInfo {
  std::string name;        // unqualified
  std::string class_name;  // "" for free functions
  std::string qualified;   // Class::name, or name for free functions
  int line = 0;            // definition line
  std::size_t file = 0;    // index into RepoIndex::files
  std::size_t body_begin = 0;  // token range of the body, half-open
  std::size_t body_end = 0;
  bool is_ctor_or_dtor = false;
  bool no_tsa = false;  // MBTA_OBS_NO_TSA / MBTA_NO_THREAD_SAFETY_ANALYSIS
  std::vector<std::string> requires_mutexes;  // MBTA_REQUIRES(...)
  std::vector<CallSite> calls;
  std::vector<LockAcquisition> locks;
};

/// A field declared `T field MBTA_GUARDED_BY(mu);` (or the OBS variant).
struct GuardedField {
  std::string class_name;
  std::string field;
  std::string mutex;
  int line = 0;
};

struct FileIndex {
  std::string path;
  FileScope scope;
  LexResult lex;
  std::vector<FunctionInfo> functions;  // definitions in this file
  std::vector<GuardedField> guarded_fields;
  // class -> names of mutex-typed fields (mbta::Mutex / std::mutex).
  std::map<std::string, std::set<std::string>> class_mutexes;
  // Contract info harvested from *declarations* (in-class prototypes):
  // qualified name -> REQUIRES mutexes / no_tsa marker.
  std::map<std::string, std::vector<std::string>> requires_decls;
  std::set<std::string> no_tsa_decls;
  // Include-graph edges: repo-relative #include "..." targets.
  std::vector<std::string> repo_includes;
};

struct RepoIndex {
  std::vector<FileIndex> files;
  // Unqualified function name -> (file index, function index) of every
  // definition. The resolution seam for the call graph.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      functions_by_name;
  // class -> field -> guarding mutex, merged across files.
  std::map<std::string, std::map<std::string, std::string>> guards_by_class;
  // class -> mutex field names, merged across files.
  std::map<std::string, std::set<std::string>> mutexes_by_class;

  const FunctionInfo& Fn(std::pair<std::size_t, std::size_t> id) const {
    return files[id.first].functions[id.second];
  }
};

/// Builds the index over library files (src/**); non-library inputs are
/// skipped — tools, benches, and tests are not part of the program the
/// whole-program passes reason about.
RepoIndex BuildRepoIndex(const std::vector<SourceFile>& files);

}  // namespace mbta::lint

#endif  // MBTA_TOOLS_LINT_INDEX_H_
