#include "bench/bench_util.h"

#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "core/solver_registry.h"
#include "obs/json_writer.h"

namespace mbta::bench {

std::vector<std::unique_ptr<Solver>> SweepSolvers(std::uint64_t seed) {
  return CreateSolvers({"greedy", "threshold", "local-search",
                        "worker-centric", "requester-centric", "random",
                        "online-greedy"},
                       {.seed = seed, .max_passes = 2});
}

std::string ConsumeFlagValue(int* argc, char** argv,
                             std::string_view flag) {
  for (int i = 1; i + 1 < *argc; ++i) {
    if (std::string_view(argv[i]) == flag) {
      std::string value = argv[i + 1];
      for (int j = i + 2; j < *argc; ++j) argv[j - 2] = argv[j];
      *argc -= 2;
      return value;
    }
  }
  return "";
}

namespace {

std::string FindJsonFlag(int argc, char* const* argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

void WriteHost(JsonWriter& w) {
  w.Key("host");
  w.BeginObject();
#if defined(__unix__) || defined(__APPLE__)
  utsname uts{};
  if (uname(&uts) == 0) {
    w.Key("os");
    w.String(uts.sysname);
    w.Key("arch");
    w.String(uts.machine);
  }
#endif
  w.Key("cores");
  w.Number(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
#if defined(__VERSION__)
  w.Key("compiler");
  w.String(__VERSION__);
#endif
  w.Key("timestamp_unix");
  w.Number(static_cast<std::int64_t>(std::time(nullptr)));
  w.EndObject();
}

}  // namespace

JsonLog::JsonLog(int argc, char* const* argv, std::string experiment,
                 std::string workload)
    : JsonLog(FindJsonFlag(argc, argv), std::move(experiment),
              std::move(workload)) {}

JsonLog::JsonLog(std::string path, std::string experiment,
                 std::string workload)
    : path_(std::move(path)),
      experiment_(std::move(experiment)),
      workload_(std::move(workload)) {}

JsonLog::~JsonLog() { Write(); }

void JsonLog::AddRun(Params params, const SolverRun& run, Metrics extra) {
  if (!enabled()) return;
  Row row;
  row.params = std::move(params);
  row.solver = run.solver;
  row.metrics = {
      {"mutual_benefit", run.metrics.mutual_benefit},
      {"requester_benefit", run.metrics.requester_benefit},
      {"worker_benefit", run.metrics.worker_benefit},
      {"num_assignments", static_cast<double>(run.metrics.num_assignments)},
      {"tasks_covered", static_cast<double>(run.metrics.tasks_covered)},
      {"workers_active", static_cast<double>(run.metrics.workers_active)},
      {"wall_ms", run.info.wall_ms},
      {"gain_evaluations",
       static_cast<double>(run.info.gain_evaluations)},
  };
  for (auto& metric : extra) row.metrics.push_back(std::move(metric));
  row.counters = run.info.counters;
  row.histograms = run.info.histograms;
  row.phases = run.info.phases;
  rows_.push_back(std::move(row));
}

void JsonLog::AddRow(Params params, Metrics metrics) {
  if (!enabled()) return;
  Row row;
  row.params = std::move(params);
  row.metrics = std::move(metrics);
  rows_.push_back(std::move(row));
}

bool JsonLog::Write() {
  if (!enabled() || written_) return true;
  written_ = true;

  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Number(kJsonSchemaVersion);
  w.Key("experiment");
  w.String(experiment_);
  w.Key("workload");
  w.String(workload_);
  WriteHost(w);
  w.Key("rows");
  w.BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    w.Key("params");
    w.BeginObject();
    for (const auto& [key, value] : row.params) {
      w.Key(key);
      w.String(value);
    }
    w.EndObject();
    if (!row.solver.empty()) {
      w.Key("solver");
      w.String(row.solver);
    }
    w.Key("metrics");
    w.BeginObject();
    for (const auto& [key, value] : row.metrics) {
      w.Key(key);
      w.Number(value);
    }
    w.EndObject();
    if (!row.counters.empty()) {
      w.Key("counters");
      w.BeginObject();
      for (const auto& [key, value] : row.counters.counters()) {
        w.Key(key);
        w.Number(value);
      }
      w.EndObject();
      if (!row.counters.gauges().empty()) {
        w.Key("gauges");
        w.BeginObject();
        for (const auto& [key, value] : row.counters.gauges()) {
          w.Key(key);
          w.Number(value);
        }
        w.EndObject();
      }
    }
    if (!row.histograms.empty()) {
      w.Key("histograms");
      w.BeginObject();
      for (const auto& [key, hist] : row.histograms.histograms()) {
        w.Key(key);
        w.BeginObject();
        w.Key("boundaries");
        w.BeginArray();
        for (const double b : hist.boundaries()) w.Number(b);
        w.EndArray();
        w.Key("counts");
        w.BeginArray();
        for (const std::uint64_t c : hist.bucket_counts()) w.Number(c);
        w.EndArray();
        w.Key("count");
        w.Number(hist.total_count());
        w.Key("sum");
        w.Number(hist.sum());
        w.Key("min");
        w.Number(hist.min());
        w.Key("max");
        w.Number(hist.max());
        w.EndObject();
      }
      w.EndObject();
    }
    if (!row.phases.entries().empty()) {
      w.Key("phases");
      w.BeginObject();
      for (const auto& [path, entry] : row.phases.entries()) {
        w.Key(path);
        w.BeginObject();
        w.Key("ms");
        w.Number(entry.total_ms);
        w.Key("calls");
        w.Number(entry.calls);
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write JSON log to %s\n",
                 path_.c_str());
    return false;
  }
  const std::string& doc = w.str();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote JSON log: %s (%zu rows)\n", path_.c_str(),
              rows_.size());
  return true;
}

}  // namespace mbta::bench
