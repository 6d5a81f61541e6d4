/// Command-line front end for the library: generate markets, solve
/// assignment problems, and evaluate/compare solutions without writing
/// any C++.
///
///   mbta_cli generate --dataset mturk --workers 500 --seed 7 --out m.market
///   mbta_cli stats    --market m.market
///   mbta_cli solve    --market m.market --solver greedy --alpha 0.5
///                     --out a.assignment
///   mbta_cli evaluate --market m.market --assignment a.assignment
///   mbta_cli compare  --market m.market --alpha 0.5
///
/// Solvers: every name in the solver registry (core/solver_registry.h);
/// the usage text lists them. exact-flow needs --objective modular.
///
/// Each command accepts exactly the flags its usage line lists; an
/// unknown flag, a valued flag given without a value, or a numeric value
/// that does not parse completely is a usage error (exit 1).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "core/solver_registry.h"
#include "gen/market_generator.h"
#include "io/market_io.h"
#include "market/metrics.h"
#include "obs/trace.h"
#include "service/market_service.h"
#include "util/deadline.h"
#include "util/stats.h"
#include "util/table.h"

namespace mbta::cli {
namespace {

/// Exit-code taxonomy (see CONTRIBUTING.md "Robustness"). Scripts depend
/// on these values; change them only with a changelog entry.
///  0  success
///  1  usage error: bad flags, unknown command/solver/dataset
///  2  bad input: a market/assignment file failed to parse or validate
///  3  degraded solve: a result was produced and written, but the
///     deadline/work budget expired first (best-effort answer)
///  4  internal error: unexpected exception or output write failure
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitBadInput = 2;
constexpr int kExitDegraded = 3;
constexpr int kExitInternal = 4;

/// Parses all of `text` as a T; false on an empty, partial or
/// out-of-range parse.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Flag values are checked against the command's FlagSpec list before
/// any command runs, so the typed getters below cannot see a malformed
/// number.
struct Args {
  /// Flag name → value; "" for a flag given bare, like `--stats`.
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    double value = fallback;
    const auto it = flags.find(key);
    if (it != flags.end()) ParseWhole(it->second, &value);
    return value;
  }
  std::uint64_t GetUint(const std::string& key,
                        std::uint64_t fallback) const {
    std::uint64_t value = fallback;
    const auto it = flags.find(key);
    if (it != flags.end()) ParseWhole(it->second, &value);
    return value;
  }
  bool GetBool(const std::string& key) const {
    return flags.find(key) != flags.end();
  }
  bool Require(const std::string& key, std::string* out) const {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      std::fprintf(stderr, "error: missing required flag --%s\n",
                   key.c_str());
      return false;
    }
    *out = it->second;
    return true;
  }
};

/// Dumps a solve's instrumentation: counters, gauges, and the phase
/// timing tree (paths are slash-nested, so indentation follows depth).
void PrintSolveStats(const SolveInfo& info) {
  if (!info.counters.empty()) {
    Table counters({"counter", "value"});
    for (const auto& [key, value] : info.counters.counters()) {
      counters.AddRow(
          {key, Table::Num(static_cast<std::int64_t>(value))});
    }
    for (const auto& [key, value] : info.counters.gauges()) {
      counters.AddRow({key, Table::Num(value)});
    }
    std::printf("%s", counters.ToString().c_str());
  }
  if (!info.phases.entries().empty()) {
    Table phases({"phase", "ms", "calls"});
    for (const auto& [path, entry] : info.phases.entries()) {
      phases.AddRow({path, Table::Num(entry.total_ms),
                     Table::Num(static_cast<std::int64_t>(entry.calls))});
    }
    std::printf("%s", phases.ToString().c_str());
  }
}

/// The registered solver names, comma-separated; modular-only ones
/// marked with '*'.
std::string SolverList() {
  std::string list;
  for (const std::string& name : SolverNames()) {
    if (!list.empty()) list += ", ";
    list += name;
    if (IsModularOnly(name)) list += "*";
  }
  return list;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: mbta_cli <generate|stats|solve|evaluate|compare|serve|replay>"
      " [--flag value ...]\n"
      "  generate --dataset uniform|zipf|mturk|upwork --workers N\n"
      "           [--tasks N] [--seed S] --out FILE\n"
      "  stats    --market FILE\n"
      "  solve    --market FILE [--solver greedy] [--alpha 0.5]\n"
      "           [--objective submodular|modular] [--seed S] [--stats]\n"
      "           [--work-budget N] [--deadline-ms MS] [--fallback]\n"
      "           [--trace FILE] --out FILE\n"
      "           --solver: %s (* needs --objective modular)\n"
      "  evaluate --market FILE --assignment FILE [--alpha 0.5]\n"
      "           [--objective submodular|modular]\n"
      "  compare  --market FILE [--alpha 0.5]\n"
      "           [--objective submodular|modular] [--seed S] [--stats]\n"
      "  serve    --script FILE [--wal FILE] [--epoch-batch N] [--queue N]\n"
      "           [--snapshot-every N] [--resolve-ratio R] [--work-budget N]\n"
      "           [--degrade-after-ms MS] [--alpha 0.5]\n"
      "           [--objective submodular|modular] [--out FILE]\n"
      "           [--trace FILE] [--stats]\n"
      "  replay   --wal FILE [--dump-state] [--stats], plus the serve\n"
      "           service flags (--epoch-batch ... --objective) the WAL\n"
      "           was written with\n"
      "--stats prints the solver's work counters and phase timings\n"
      "--work-budget/--deadline-ms bound the solve; --fallback runs the\n"
      "standard degradation chain %.*s (modular objective only)\n"
      "--trace FILE records the solve as a Chrome trace-event JSON file\n"
      "(open in Perfetto or chrome://tracing, analyze with mbta_trace)\n"
      "serve drives a resident MarketService from a delta script (one\n"
      "delta per line, literal `epoch` lines run an epoch); with --wal\n"
      "the service is durable and `replay` recovers it from disk\n"
      "exit codes: 0 ok, 1 usage, 2 bad input, 3 degraded solve, "
      "4 internal\n",
      SolverList().c_str(),
      static_cast<int>(kStandardFallbackChain.size()),
      kStandardFallbackChain.data());
  return kExitUsage;
}

ObjectiveParams MakeObjectiveParams(const Args& args) {
  ObjectiveParams params;
  params.alpha = args.GetDouble("alpha", 0.5);
  params.kind = args.Get("objective", "submodular") == "modular"
                    ? ObjectiveKind::kModular
                    : ObjectiveKind::kSubmodular;
  return params;
}

int Generate(const Args& args) {
  std::string out;
  if (!args.Require("out", &out)) return kExitUsage;
  const std::string dataset = args.Get("dataset", "uniform");
  const std::size_t workers =
      static_cast<std::size_t>(args.GetUint("workers", 1000));
  const std::size_t tasks =
      static_cast<std::size_t>(args.GetUint("tasks", workers));
  const std::uint64_t seed = args.GetUint("seed", 42);

  GeneratorConfig config;
  if (dataset == "uniform") {
    config = UniformConfig(workers, tasks, seed);
  } else if (dataset == "zipf") {
    config = ZipfConfig(workers, tasks, seed);
  } else if (dataset == "mturk") {
    config = MTurkLikeConfig(workers, seed);
  } else if (dataset == "upwork") {
    config = UpworkLikeConfig(workers, seed);
  } else {
    std::fprintf(stderr, "error: unknown dataset '%s'\n", dataset.c_str());
    return kExitUsage;
  }
  const LaborMarket market = GenerateMarket(config);
  std::string error;
  if (!WriteMarketToFile(market, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitInternal;
  }
  std::printf("wrote %s: %zu workers, %zu tasks, %zu edges\n", out.c_str(),
              market.NumWorkers(), market.NumTasks(), market.NumEdges());
  return kExitOk;
}

int Stats(const Args& args) {
  std::string path;
  if (!args.Require("market", &path)) return kExitUsage;
  std::string error;
  const auto market = ReadMarketFromFile(path, &error);
  if (!market) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }
  const MarketStats s = ComputeStats(*market);
  std::printf("name            %s\n", market->name().c_str());
  std::printf("workers         %zu (total capacity %lld)\n", s.num_workers,
              static_cast<long long>(s.total_worker_capacity));
  std::printf("tasks           %zu (total capacity %lld)\n", s.num_tasks,
              static_cast<long long>(s.total_task_capacity));
  std::printf("edges           %zu\n", s.num_edges);
  std::printf("avg worker deg  %.2f (max %.0f)\n", s.avg_worker_degree,
              s.max_worker_degree);
  std::printf("avg task deg    %.2f (max %.0f, gini %.3f)\n",
              s.avg_task_degree, s.max_task_degree, s.task_degree_gini);
  std::printf("avg payment     %.4f\n", s.avg_payment);
  std::printf("avg quality     %.4f\n", s.avg_quality);
  return kExitOk;
}

int Solve(const Args& args) {
  std::string market_path, out;
  if (!args.Require("market", &market_path) || !args.Require("out", &out)) {
    return kExitUsage;
  }
  std::string error;
  const auto market = ReadMarketFromFile(market_path, &error);
  if (!market) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }

  SolveOptions solve_options;
  solve_options.budget.max_work =
      args.GetUint("work-budget", DeadlineBudget::kUnlimitedWork);
  solve_options.budget.max_wall_ms = args.GetDouble("deadline-ms", 0.0);

  const MbtaProblem problem{&*market, MakeObjectiveParams(args)};
  std::unique_ptr<Solver> solver;
  // Every solver the solve runs: the one named, or each chain stage.
  std::vector<std::string> names;
  if (args.GetBool("fallback")) {
    // The degradation chain gives each optimizing stage the caller's
    // budget and lets the unbudgeted floor guarantee a complete answer.
    auto chain =
        CreateFallbackChain(kStandardFallbackChain, solve_options.budget);
    for (const FallbackSolver::Stage& stage : chain->stages()) {
      names.push_back(stage.solver->name());
    }
    solver = std::move(chain);
  } else {
    names.push_back(args.Get("solver", "greedy"));
    solver = CreateSolver(
        names[0], {.seed = args.GetUint("seed", 1), .market = &*market});
    if (!solver) {
      std::fprintf(stderr, "error: unknown solver '%s' (solvers: %s)\n",
                   names[0].c_str(), SolverList().c_str());
      return kExitUsage;
    }
  }
  for (const std::string& name : names) {
    if (IsModularOnly(name) &&
        problem.objective.kind != ObjectiveKind::kModular) {
      std::fprintf(stderr,
                   "error: solver '%s' needs --objective modular\n",
                   name.c_str());
      return kExitUsage;
    }
  }
  SolveInfo info;
  const std::string trace_path = args.Get("trace", "");
  std::unique_ptr<Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<Tracer>();
    info.phases.set_tracer(tracer.get());
  }
  Assignment a;
  {
    // Root span over the whole solve; headline counters land as args at
    // close so the trace is self-describing without the JSON record.
    ScopedSpan cli_span(tracer.get(), "cli/solve", "cli");
    a = solver->Solve(problem, solve_options, &info);
    cli_span.Arg("gain_evaluations",
                 static_cast<std::int64_t>(info.gain_evaluations));
    cli_span.Arg("pairs", static_cast<std::int64_t>(a.edges.size()));
    cli_span.Arg("deadline_hit",
                 static_cast<std::int64_t>(info.deadline_hit ? 1 : 0));
  }
  if (tracer != nullptr) {
    std::string trace_error;
    if (!tracer->WriteFile(trace_path, &trace_error)) {
      std::fprintf(stderr, "error: %s\n", trace_error.c_str());
      return kExitInternal;
    }
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
  if (!WriteAssignmentToFile(*market, a, out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitInternal;
  }
  const AssignmentMetrics metrics = Evaluate(problem.MakeObjective(), a);
  std::printf("solver %s: MB=%.4f RB=%.4f WB=%.4f pairs=%zu (%.1f ms)\n",
              solver->name().c_str(), metrics.mutual_benefit,
              metrics.requester_benefit, metrics.worker_benefit,
              metrics.num_assignments, info.wall_ms);
  if (args.GetBool("stats")) {
    std::printf("gain evaluations: %zu\n", info.gain_evaluations);
    PrintSolveStats(info);
  }
  std::printf("wrote %s\n", out.c_str());
  if (info.deadline_hit) {
    std::fprintf(stderr, "warning: budget expired (%s); wrote best-effort "
                         "assignment\n",
                 ToString(info.stop_reason));
    return kExitDegraded;
  }
  return kExitOk;
}

int EvaluateCmd(const Args& args) {
  std::string market_path, assignment_path;
  if (!args.Require("market", &market_path) ||
      !args.Require("assignment", &assignment_path)) {
    return kExitUsage;
  }
  std::string error;
  const auto market = ReadMarketFromFile(market_path, &error);
  if (!market) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }
  const auto assignment =
      ReadAssignmentFromFile(*market, assignment_path, &error);
  if (!assignment) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }
  const MutualBenefitObjective objective(&*market,
                                         MakeObjectiveParams(args));
  const AssignmentMetrics metrics = Evaluate(objective, *assignment);
  std::printf("mutual benefit     %.4f (alpha=%.2f, %s)\n",
              metrics.mutual_benefit, objective.alpha(),
              ToString(objective.kind()));
  std::printf("requester benefit  %.4f\n", metrics.requester_benefit);
  std::printf("worker benefit     %.4f\n", metrics.worker_benefit);
  std::printf("assignments        %zu\n", metrics.num_assignments);
  std::printf("tasks covered      %zu / %zu\n", metrics.tasks_covered,
              market->NumTasks());
  std::printf("active workers     %zu / %zu\n", metrics.workers_active,
              market->NumWorkers());
  std::printf("worker-benefit jain %.4f, gini %.4f\n",
              JainFairnessIndex(metrics.per_worker_benefit),
              GiniCoefficient(metrics.per_worker_benefit));
  return kExitOk;
}

int Compare(const Args& args) {
  std::string market_path;
  if (!args.Require("market", &market_path)) return kExitUsage;
  std::string error;
  const auto market = ReadMarketFromFile(market_path, &error);
  if (!market) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }
  const MbtaProblem problem{&*market, MakeObjectiveParams(args)};
  const bool show_stats = args.GetBool("stats");
  Table table({"solver", "MB", "RB", "WB", "pairs", "time(ms)"});
  std::vector<std::pair<std::string, SolveInfo>> all_stats;
  for (const auto& solver :
       CreateStandardSolvers(problem.objective.kind,
                             {.seed = args.GetUint("seed", 1)})) {
    SolveInfo info;
    const Assignment a = solver->Solve(problem, &info);
    const AssignmentMetrics m = Evaluate(problem.MakeObjective(), a);
    table.AddRow({solver->name(), Table::Num(m.mutual_benefit),
                  Table::Num(m.requester_benefit),
                  Table::Num(m.worker_benefit),
                  Table::Num(static_cast<std::int64_t>(m.num_assignments)),
                  Table::Num(info.wall_ms)});
    if (show_stats) all_stats.emplace_back(solver->name(), std::move(info));
  }
  std::printf("%s", table.ToString().c_str());
  for (const auto& [name, info] : all_stats) {
    std::printf("\n--- %s (gain evaluations: %zu) ---\n", name.c_str(),
                info.gain_evaluations);
    PrintSolveStats(info);
  }
  return kExitOk;
}

ServiceConfig MakeServiceConfig(const Args& args) {
  ServiceConfig config;
  config.wal_path = args.Get("wal", "");
  config.objective = MakeObjectiveParams(args);
  config.epoch_batch =
      static_cast<std::size_t>(args.GetUint("epoch-batch", 64));
  config.queue_capacity =
      static_cast<std::size_t>(args.GetUint("queue", 1024));
  config.snapshot_every = args.GetUint("snapshot-every", 16);
  config.resolve_ratio = args.GetDouble("resolve-ratio", 0.9);
  config.epoch_max_work =
      args.GetUint("work-budget", DeadlineBudget::kUnlimitedWork);
  config.degrade_after_ms = args.GetDouble("degrade-after-ms", 0.0);
  return config;
}

void PrintServiceSummary(const MarketService& service) {
  const ServiceState& state = service.state();
  std::printf("epochs %llu: %zu workers, %zu tasks, %zu pairs, %zu pending, "
              "objective %.6f\n",
              static_cast<unsigned long long>(state.epoch),
              state.workers.size(), state.tasks.size(), state.pairs.size(),
              state.pending.size(), service.objective_value());
}

int Serve(const Args& args) {
  std::string script_path;
  if (!args.Require("script", &script_path)) return kExitUsage;
  std::ifstream script_in(script_path);
  if (!script_in) {
    std::fprintf(stderr, "error: cannot open script %s\n",
                 script_path.c_str());
    return kExitBadInput;
  }
  std::string error;
  const auto script = ParseDeltaScript(script_in, &error);
  if (!script) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitBadInput;
  }

  MarketService service(MakeServiceConfig(args));
  const std::string trace_path = args.Get("trace", "");
  std::unique_ptr<Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<Tracer>();
    service.stats().phases.set_tracer(tracer.get());
  }
  if (!service.Start(&error)) {
    std::fprintf(stderr, "error: recovery failed: %s\n", error.c_str());
    return kExitBadInput;
  }
  std::size_t admitted = 0, shed = 0, rejected = 0;
  for (const ScriptEntry& entry : *script) {
    if (entry.epoch) {
      if (!service.RunEpoch(&error)) {
        std::fprintf(stderr, "error: epoch failed: %s\n", error.c_str());
        return kExitInternal;
      }
      continue;
    }
    std::string why;
    switch (service.Submit(entry.delta, &why)) {
      case SubmitResult::kAdmitted:
        ++admitted;
        break;
      case SubmitResult::kShed:
        ++shed;
        break;
      case SubmitResult::kRejected:
        ++rejected;
        std::fprintf(stderr, "warning: rejected delta: %s\n", why.c_str());
        break;
    }
  }
  // Drain anything the script left queued so the final state reflects
  // every admitted delta.
  while (!service.state().pending.empty()) {
    if (!service.RunEpoch(&error)) {
      std::fprintf(stderr, "error: epoch failed: %s\n", error.c_str());
      return kExitInternal;
    }
  }
  std::printf("deltas: %zu admitted, %zu shed, %zu rejected\n", admitted,
              shed, rejected);
  PrintServiceSummary(service);

  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    // Dump the final market through the standard market_io format so the
    // offline tools (stats/solve/compare) can pick up where serving
    // stopped.
    const LaborMarket market =
        BuildMarket(service.state(), MakeServiceConfig(args).edge_model);
    if (!WriteMarketToFile(market, out, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return kExitInternal;
    }
    std::printf("wrote %s\n", out.c_str());
  }
  if (tracer != nullptr) {
    std::string trace_error;
    if (!tracer->WriteFile(trace_path, &trace_error)) {
      std::fprintf(stderr, "error: %s\n", trace_error.c_str());
      return kExitInternal;
    }
    std::printf("wrote trace %s\n", trace_path.c_str());
  }
  if (args.GetBool("stats")) PrintSolveStats(service.stats());
  const bool degraded = service.stats().counters.Value(
                            "service/epoch/degraded") > 0 ||
                        service.stats().counters.Value(
                            "service/epoch/budget_hit") > 0;
  if (degraded) {
    std::fprintf(stderr,
                 "warning: some epochs ran degraded or hit the work "
                 "budget; assignment is best-effort\n");
    return kExitDegraded;
  }
  return kExitOk;
}

int Replay(const Args& args) {
  std::string wal_path;
  if (!args.Require("wal", &wal_path)) return kExitUsage;
  MarketService service(MakeServiceConfig(args));
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "error: recovery failed: %s\n", error.c_str());
    return kExitBadInput;
  }
  std::printf("recovered: replayed %llu deltas, %llu epochs "
              "(%llu WAL records total)\n",
              static_cast<unsigned long long>(service.stats().counters.Value(
                  "service/recovery/replayed_deltas")),
              static_cast<unsigned long long>(service.stats().counters.Value(
                  "service/recovery/replayed_epochs")),
              static_cast<unsigned long long>(service.state().wal_records));
  PrintServiceSummary(service);
  if (args.GetBool("dump-state")) {
    std::printf("%s", SerializeServiceState(service.state()).c_str());
  }
  if (args.GetBool("stats")) PrintSolveStats(service.stats());
  return kExitOk;
}

enum class FlagKind { kString, kUint, kDouble, kSwitch };

struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// The flags each command accepts, mirroring its Usage() line. Null for
/// an unknown command.
const std::vector<FlagSpec>* CommandFlags(const std::string& command) {
  using K = FlagKind;
  // The MarketService configuration (MakeServiceConfig): serve takes it
  // to run, replay to recover the same way.
  const auto service = [](std::vector<FlagSpec> extra) {
    std::vector<FlagSpec> flags = {
        {"wal", K::kString},          {"epoch-batch", K::kUint},
        {"queue", K::kUint},          {"snapshot-every", K::kUint},
        {"resolve-ratio", K::kDouble}, {"work-budget", K::kUint},
        {"degrade-after-ms", K::kDouble}, {"alpha", K::kDouble},
        {"objective", K::kString},    {"stats", K::kSwitch}};
    flags.insert(flags.end(), extra.begin(), extra.end());
    return flags;
  };
  static const std::map<std::string, std::vector<FlagSpec>> kFlags = {
      {"generate",
       {{"dataset", K::kString},
        {"workers", K::kUint},
        {"tasks", K::kUint},
        {"seed", K::kUint},
        {"out", K::kString}}},
      {"stats", {{"market", K::kString}}},
      {"solve",
       {{"market", K::kString},
        {"solver", K::kString},
        {"alpha", K::kDouble},
        {"objective", K::kString},
        {"seed", K::kUint},
        {"stats", K::kSwitch},
        {"work-budget", K::kUint},
        {"deadline-ms", K::kDouble},
        {"fallback", K::kSwitch},
        {"trace", K::kString},
        {"out", K::kString}}},
      {"evaluate",
       {{"market", K::kString},
        {"assignment", K::kString},
        {"alpha", K::kDouble},
        {"objective", K::kString}}},
      {"compare",
       {{"market", K::kString},
        {"alpha", K::kDouble},
        {"objective", K::kString},
        {"seed", K::kUint},
        {"stats", K::kSwitch}}},
      {"serve", service({{"script", K::kString},
                         {"out", K::kString},
                         {"trace", K::kString}})},
      {"replay", service({{"dump-state", K::kSwitch}})},
  };
  const auto it = kFlags.find(command);
  return it == kFlags.end() ? nullptr : &it->second;
}

/// Checks every given flag against `specs`; prints the first problem and
/// returns false.
bool ValidateFlags(const std::string& command, const Args& args,
                   const std::vector<FlagSpec>& specs) {
  for (const auto& [name, value] : args.flags) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& s : specs) {
      if (name == s.name) spec = &s;
    }
    const char* problem = nullptr;
    if (spec == nullptr) {
      problem = "is not a flag of";
    } else if (spec->kind != FlagKind::kSwitch && value.empty()) {
      problem = "needs a value in";
    } else if (spec->kind == FlagKind::kUint) {
      std::uint64_t parsed = 0;
      if (!ParseWhole(value, &parsed)) problem = "needs a whole number in";
    } else if (spec->kind == FlagKind::kDouble) {
      double parsed = 0.0;
      if (!ParseWhole(value, &parsed)) problem = "needs a number in";
    }
    if (problem != nullptr) {
      std::fprintf(stderr, "error: --%s %s '%s'\n", name.c_str(), problem,
                   command.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const std::vector<FlagSpec>* specs = CommandFlags(command);
  if (specs == nullptr) return Usage();
  Args args;
  for (int i = 2; i < argc;) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    // A flag followed by another flag (or by nothing) is bare, e.g.
    // `--stats`; otherwise the next token is its value.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[argv[i] + 2] = argv[i + 1];
      i += 2;
    } else {
      args.flags[argv[i] + 2] = "";
      i += 1;
    }
  }
  if (!ValidateFlags(command, args, *specs)) return kExitUsage;
  if (command == "generate") return Generate(args);
  if (command == "stats") return Stats(args);
  if (command == "solve") return Solve(args);
  if (command == "evaluate") return EvaluateCmd(args);
  if (command == "compare") return Compare(args);
  if (command == "serve") return Serve(args);
  if (command == "replay") return Replay(args);
  return Usage();
}

}  // namespace
}  // namespace mbta::cli

int main(int argc, char** argv) {
  try {
    return mbta::cli::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return mbta::cli::kExitInternal;
  } catch (...) {
    std::fprintf(stderr, "internal error: unknown exception\n");
    return mbta::cli::kExitInternal;
  }
}
