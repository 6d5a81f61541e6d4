#ifndef MBTA_BENCH_BENCH_UTIL_H_
#define MBTA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "gen/market_generator.h"
#include "market/metrics.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/phase_timer.h"
#include "util/table.h"

namespace mbta::bench {

/// Prints the standard experiment banner. Every bench binary regenerates
/// one reconstructed table/figure of the paper (see DESIGN.md for the
/// source-text caveat: only the abstract was available, so these are the
/// reconstructed experiments, labeled by the ids used in EXPERIMENTS.md).
inline void PrintBanner(const char* experiment_id, const char* description,
                        const char* workload) {
  std::printf("==================================================\n");
  std::printf("%s (reconstructed)\n", experiment_id);
  std::printf("%s\n", description);
  std::printf("workload: %s\n", workload);
  std::printf("==================================================\n");
}

/// One solver's evaluated run on a problem.
struct SolverRun {
  std::string solver;
  AssignmentMetrics metrics;
  SolveInfo info;
};

inline SolverRun RunSolver(const Solver& solver, const MbtaProblem& problem,
                           const SolveOptions& options = {}) {
  SolverRun run;
  run.solver = solver.name();
  const Assignment a = solver.Solve(problem, options, &run.info);
  run.metrics = Evaluate(problem.MakeObjective(), a);
  return run;
}

/// Solver line-up for size sweeps: the flow-based matching baseline is
/// excluded (its augmenting-path count scales with the assignment size and
/// dominates wall-clock at the largest sweep points) and local search is
/// capped at two passes. See fig9 for the dedicated runtime study.
std::vector<std::unique_ptr<Solver>> SweepSolvers(std::uint64_t seed);

/// The four evaluation datasets at a common worker scale.
inline std::vector<GeneratorConfig> StandardDatasets(std::size_t workers,
                                                     std::uint64_t seed) {
  return {UniformConfig(workers, workers, seed),
          ZipfConfig(workers, workers, seed),
          MTurkLikeConfig(workers, seed), UpworkLikeConfig(workers, seed)};
}

/// Removes `flag <value>` from argv (if present) and returns the value,
/// or "" when the flag is absent. Needed by binaries that forward argv to
/// another flag parser (fig9 hands it to google-benchmark).
std::string ConsumeFlagValue(int* argc, char** argv, std::string_view flag);

/// ConsumeFlagValue for the `--json <path>` flag every bench binary takes.
inline std::string ConsumeJsonFlag(int* argc, char** argv) {
  return ConsumeFlagValue(argc, argv, "--json");
}

/// Structured result sink behind the `--json <path>` flag every bench
/// binary accepts. When the flag is absent the log is disabled and every
/// call is a cheap no-op, so the printed tables stay the primary output.
///
/// The emitted document is schema-versioned (see kJsonSchemaVersion and
/// CONTRIBUTING.md):
///
///   {"schema_version": 2, "experiment": ..., "workload": ...,
///    "host": {"os", "arch", "cores", "compiler", "timestamp_unix"},
///    "rows": [{"params": {...}, "solver": ..., "metrics": {...},
///              "counters": {...}, "gauges": {...},
///              "histograms": {key: {"boundaries", "counts", "count",
///                                   "sum", "min", "max"}},
///              "phases": {path: {"ms", "calls"}}}]}
///
/// Rows added via AddRow carry only params + metrics (no solver field);
/// rows added via AddRun also record the solver name, its SolveStats
/// counters, gauges, histograms, and phase timings. Schema history:
/// v1 had no "histograms" object; v2 added it (bench_compare reads both).
class JsonLog {
 public:
  /// Ordered key/value pairs identifying a row within the experiment
  /// (e.g. {"workers", "500"}). Values are strings so sweeps over sizes,
  /// alphas, and dataset names all match byte-exactly across runs.
  using Params = std::vector<std::pair<std::string, std::string>>;
  using Metrics = std::vector<std::pair<std::string, double>>;

  /// Scans argv for `--json <path>`; the log stays disabled without it.
  JsonLog(int argc, char* const* argv, std::string experiment,
          std::string workload);
  /// Directly bound to `path` (empty = disabled).
  JsonLog(std::string path, std::string experiment, std::string workload);
  JsonLog(const JsonLog&) = delete;
  JsonLog& operator=(const JsonLog&) = delete;
  /// Writes the file if enabled and not yet written.
  ~JsonLog();

  bool enabled() const { return !path_.empty(); }

  /// Records a solver run: metrics, counters, gauges, and phase timings.
  /// `extra` appends experiment-specific metrics (e.g. fairness indices)
  /// after the standard set.
  void AddRun(Params params, const SolverRun& run, Metrics extra = {});

  /// Records a generic metric row (experiments whose data points are not
  /// solver runs, e.g. accuracy curves).
  void AddRow(Params params, Metrics metrics);

  /// Writes the document to `path`. Returns false (with a message on
  /// stderr) if the file cannot be written. Idempotent.
  bool Write();

 private:
  struct Row {
    Params params;
    std::string solver;  // empty for AddRow rows
    Metrics metrics;
    CounterRegistry counters;
    HistogramRegistry histograms;
    PhaseTimings phases;
  };

  std::string path_;
  std::string experiment_;
  std::string workload_;
  std::vector<Row> rows_;
  bool written_ = false;
};

/// Version of the JSON document layout written by JsonLog. Bump on any
/// backwards-incompatible change and record the migration in
/// CONTRIBUTING.md. v2 added the per-row "histograms" object.
inline constexpr int kJsonSchemaVersion = 2;

}  // namespace mbta::bench

#endif  // MBTA_BENCH_BENCH_UTIL_H_
