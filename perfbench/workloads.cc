/// Workload runner of the repository benchmark. run.py builds and calls
/// it; see README.md for the workloads and metrics.
///
///   perfbench_workloads --workload cli-flow-500|service-500
///                    --seed N --seconds S --trace 0|1
///                    --work-dir DIR --out RESULT.json [--trace-file T.json]
///
/// The runner generates its inputs from the seed, times the public calls
/// of each layer from outside (`ReadMarketFromFile`, `Solver::Solve`,
/// `ValidateAssignment`, `WriteAssignmentToFile`,
/// `MarketService::{Start,Submit,RunEpoch}`), checks every output, and
/// writes one JSON record of metrics, the work-count fingerprint and
/// failures to RESULT.json. A human-readable report goes to stderr.
///
/// With --trace 1 the first half of the run is untraced and the second
/// half runs with a Tracer attached: ScopedSpans from this file wrap each
/// public call, and the library's own SolveStats phases nest under them.
/// The trace is written to --trace-file for tools/mbta_trace.
///
/// Exit codes: 0 ran (failures are in the record), 1 usage, 2 setup error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "core/exact_flow_solver.h"
#include "core/solver.h"
#include "core/validate.h"
#include "gen/market_generator.h"
#include "io/market_io.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "service/market_service.h"
#include "service/state.h"
#include "util/stats.h"

namespace mbta::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
  std::string trace_file;
};

/// The run's record: what was attempted, what failed (with the first few
/// reasons), every metric by name, and the deterministic work counts.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> fingerprint;
  /// Sample counts behind the median and percentile metrics.
  std::map<std::string, std::uint64_t> samples;

  /// Counts one operation; a false `ok` is a failure with `why`.
  void Op(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// A time-boxed loop: it goes on until `seconds` have passed since
/// `start`, stopping early when one more item as long as the last one
/// would overrun, but never before `min_items` items.
bool KeepGoing(Clock::time_point start, double seconds, std::size_t items,
               std::size_t min_items, double last_item_s) {
  if (items < min_items) return true;
  return SecondsBetween(start, Clock::now()) + last_item_s <= seconds;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Puts epoch_ms_p50 and the sample counts; the caller puts the p90.
PercentileSummary PutLatencies(Result* r, const std::vector<double>& ms) {
  const PercentileSummary s = SummarizeLatencies(ms);
  r->metrics["epoch_ms_p50"] = s.p50;
  r->samples["epoch_ms"] = s.samples;
  r->samples["epoch_ms_p90_above"] = s.above_p90;
  return s;
}

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F field) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) v.push_back(field(item));
  return Percentile(std::move(v), 50);
}

/// Set-up is timed as whole passes, each generating and writing every
/// input of the run: kSetupPasses before the timed loop, then one after
/// each untraced round or session, so that the passes are spread over the
/// whole run; setup_s is their median. A pass takes 30 ms (service-500) or
/// 0.3 s (cli-flow-500), and the shared host's speed changes every few
/// seconds, so passes run back to back would all read one moment of it.
constexpr std::size_t kSetupPasses = 3;

template <typename F>
class SetupTimer {
 public:
  explicit SetupTimer(F pass) : pass_(std::move(pass)) {
    for (std::size_t i = 0; i < kSetupPasses; ++i) Pass();
  }

  void Pass() {
    const auto t0 = Clock::now();
    pass_();
    setup_s_.push_back(SecondsBetween(t0, Clock::now()));
  }

  void Put(Result* r) const {
    r->metrics["setup_s"] = Percentile(setup_s_, 50);
    r->samples["setup_s"] = setup_s_.size();
  }

 private:
  F pass_;
  std::vector<double> setup_s_;
};

std::vector<EdgeId> Sorted(std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Named work counters, as CounterRegistry::counters() holds them.
using Counts = std::map<std::string, std::uint64_t, std::less<>>;

double Counter(const Counts& counters, const std::string& key) {
  const auto it = counters.find(key);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

// ---------------------------------------------------------------------------
// cli-flow-500: the `mbta_cli solve` path with exact-flow.
//
// One run cycles through several markets drawn from the seed, so a run's
// figures describe the preset rather than one draw of it: a single
// 500-worker MTurk-like market's flow time and objective move by about
// 10% from seed to seed.

/// Markets per run, and the seed stride between them (market 0 is the
/// preset at the run's own seed).
constexpr std::size_t kMarkets = 8;
constexpr std::uint64_t kSeedStride = 1000003;
/// Untraced rounds per run, at the least: each market is replayed at
/// least twice.
constexpr std::size_t kMinRounds = 2;

struct CliMarket {
  std::string path;
  double file_mb = 0.0;
  double entities = 0.0;
  /// Set by the market's first op; every later op must repeat them.
  bool solved = false;
  double mb = 0.0;
  std::size_t gain_evaluations = 0;
  Counts counters;
};

struct CliOp {
  std::size_t market = 0;
  double op_s = 0.0;
  double read_s = 0.0;
  double solve_s = 0.0;
  double validate_s = 0.0;
  double write_s = 0.0;
  double recover_s = 0.0;
  double augment_ms = 0.0;
  double build_graph_ms = 0.0;
};

/// One op on market `index`: read, solve, validate, write (timed as the
/// op), then read the assignment back (timed as recovery) and check the
/// outputs.
CliOp RunCliOp(const Solver& solver, const ObjectiveParams& objective,
               std::vector<CliMarket>& markets, std::size_t index,
               const std::string& out_path, Tracer* t, Result* r) {
  CliMarket& m = markets[index];
  CliOp op;
  op.market = index;
  SolveStats stats;
  stats.phases.set_tracer(t);
  std::string error;
  std::optional<LaborMarket> market;
  Assignment a;
  ValidationResult check;
  bool written = false;
  const auto t0 = Clock::now();
  auto t1 = t0, t2 = t0, t3 = t0, t4 = t0;
  {
    ScopedSpan op_span(t, "bench/op", "bench");
    {
      ScopedSpan span(t, "io/read", "io");
      market = ReadMarketFromFile(m.path, &error);
    }
    t1 = Clock::now();
    if (market) {
      const MbtaProblem problem{&*market, objective};
      {
        ScopedSpan span(t, "core/solve", "core");
        a = solver.Solve(problem, SolveOptions{}, &stats);
      }
      t2 = Clock::now();
      {
        ScopedSpan span(t, "validate/assignment", "validate");
        check = ValidateAssignment(problem, a);
      }
      t3 = Clock::now();
      {
        ScopedSpan span(t, "io/write", "io");
        written = WriteAssignmentToFile(*market, a, out_path, &error);
      }
      t4 = Clock::now();
    }
  }
  if (!market || !written) {
    r->Op(false, "io: " + error);
    return op;
  }
  op.op_s = SecondsBetween(t0, t4);
  op.read_s = SecondsBetween(t0, t1);
  op.solve_s = SecondsBetween(t1, t2);
  op.validate_s = SecondsBetween(t2, t3);
  op.write_s = SecondsBetween(t3, t4);
  op.augment_ms = stats.phases.TotalMs("flow/augment");
  op.build_graph_ms = stats.phases.TotalMs("flow/build_graph");

  // Recovery of the committed result: read the assignment file back.
  const auto t5 = Clock::now();
  std::optional<Assignment> back;
  {
    ScopedSpan span(t, "io/read_assignment", "io");
    back = ReadAssignmentFromFile(*market, out_path, &error);
  }
  op.recover_s = SecondsBetween(t5, Clock::now());

  ScopedSpan span(t, "bench/check", "bench");
  std::string why;
  if (!check.ok()) {
    why = "validator: " + check.Message();
  } else if (!back || Sorted(back->edges) != Sorted(a.edges)) {
    why = "assignment file does not read back: " + error;
  } else if (!m.solved) {
    m.solved = true;
    m.mb = check.recomputed_value;
    m.gain_evaluations = stats.gain_evaluations;
    m.counters = stats.counters.counters();
  } else if (check.recomputed_value != m.mb ||
             stats.gain_evaluations != m.gain_evaluations ||
             stats.counters.counters() != m.counters) {
    why = "a repeat of one market's op differs in mb or work counters";
  }
  r->Op(why.empty(), why);
  return op;
}

void RunCli(const Options& opt, Tracer* tracer, Result* r) {
  ObjectiveParams objective;
  objective.alpha = 0.5;
  objective.kind = ObjectiveKind::kModular;
  const std::string out_path = opt.work_dir + "/assignment.txt";

  // Set-up: generate each market and write its input file.
  std::vector<CliMarket> markets(kMarkets);
  SetupTimer setup([&] {
    for (std::size_t i = 0; i < markets.size(); ++i) {
      CliMarket& m = markets[i];
      m.path = opt.work_dir + "/market-" + std::to_string(i) + ".txt";
      const LaborMarket market = GenerateMarket(
          MTurkLikeConfig(500, opt.seed + i * kSeedStride));
      std::string error;
      if (!WriteMarketToFile(market, m.path, &error)) {
        std::fprintf(stderr, "setup: %s\n", error.c_str());
        std::exit(2);
      }
      m.file_mb = static_cast<double>(fs::file_size(m.path)) / 1e6;
      m.entities =
          static_cast<double>(market.NumWorkers() + market.NumTasks());
    }
  });

  const ExactFlowSolver solver;

  // A round runs one op on every market, so every market is replayed
  // equally often. Untraced rounds until half the run (or all of it), at
  // least kMinRounds; then, with --trace 1, traced rounds for the rest.
  std::vector<CliOp> untraced;
  std::vector<CliOp> traced;
  const auto start = Clock::now();
  double round_s = 0.0;
  auto round = [&](Tracer* t, std::vector<CliOp>* ops) {
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < markets.size(); ++i) {
      ops->push_back(RunCliOp(solver, objective, markets, i, out_path, t, r));
    }
    round_s = SecondsBetween(r0, Clock::now());
  };
  std::size_t rounds = 0;
  while (KeepGoing(start, opt.trace ? opt.seconds / 2 : opt.seconds, rounds,
                   kMinRounds, round_s)) {
    round(nullptr, &untraced);
    ++rounds;
    setup.Pass();
  }
  setup.Put(r);
  std::size_t traced_rounds = 0;
  while (opt.trace &&
         KeepGoing(start, opt.seconds, traced_rounds, 1, round_s)) {
    round(tracer, &traced);
    ++traced_rounds;
  }

  // The work counts and objective of one op per market, summed.
  double mb = 0.0;
  Counts counters;
  std::uint64_t gain_evaluations = 0;
  for (const CliMarket& m : markets) {
    mb += m.mb / static_cast<double>(markets.size());
    gain_evaluations += m.gain_evaluations;
    for (const auto& [key, value] : m.counters) counters[key] += value;
  }
  r->fingerprint["core.gain_evaluations"] = gain_evaluations;
  r->fingerprint["flow.dijkstra_runs"] =
      static_cast<std::uint64_t>(Counter(counters, "flow/dijkstra_runs"));
  r->fingerprint["flow.arcs_scanned"] =
      static_cast<std::uint64_t>(Counter(counters, "flow/arcs_scanned"));
  r->fingerprint["service.bulk.gain_evaluations"] = 0;
  r->fingerprint["service.epoch.gain_evaluations"] = 0;

  // End-to-end metrics, from the untraced ops only. Other tenants of a
  // shared host slow these ops by up to 2x for seconds to minutes at a
  // time, and only ever add time; so each market's figure is the fastest
  // of its replays (rounds), and the run's figures are taken over those.
  std::vector<double> best_op_s(markets.size(), 1e300);
  std::vector<double> best_solve_ms(markets.size(), 1e300);
  std::vector<double> read_s, recover_s;
  for (const CliOp& o : untraced) {
    best_op_s[o.market] = std::min(best_op_s[o.market], o.op_s);
    best_solve_ms[o.market] =
        std::min(best_solve_ms[o.market], o.solve_s * 1e3);
    read_s.push_back(o.read_s);
    recover_s.push_back(o.recover_s);
  }
  double entities = 0.0;
  for (std::size_t i = 0; i < markets.size(); ++i) {
    entities += markets[i].entities;
    std::fprintf(stderr,
                 "market %zu: %.0f entities, %zu gain evaluations, fastest "
                 "op %.4f s, fastest solve %.2f ms\n",
                 i, markets[i].entities, markets[i].gain_evaluations,
                 best_op_s[i], best_solve_ms[i]);
  }
  const double best_round_s = Summarize(best_op_s).sum;
  r->metrics["mb"] = mb;
  r->metrics["solve_s"] = best_round_s / static_cast<double>(markets.size());
  r->samples["solve_s"] = untraced.size();
  r->samples["replays"] = rounds;
  // The fastest read and read-back of the run: short, memory-bound ops.
  r->metrics["bulk_load_s"] = Summarize(read_s).min;
  r->metrics["recover_s"] = Summarize(recover_s).min;
  // One solve time per market, too few for ten samples above the p90;
  // every workload prints the metric, so this one interpolates between the
  // two slowest markets (util/stats Percentile), and the sample counts say
  // so. The nearest rank would be the slowest market alone.
  PutLatencies(r, best_solve_ms);
  r->metrics["epoch_ms_p90"] = Percentile(best_solve_ms, 90);
  r->metrics["deltas_per_s"] = entities / best_round_s;

  // Per-layer metrics, from the traced ops when there are any.
  const std::vector<CliOp>& ops = traced.empty() ? untraced : traced;
  double file_mb = 0.0, read_total_s = 0.0;
  for (const CliOp& o : ops) {
    file_mb += markets[o.market].file_mb;
    read_total_s += o.read_s;
  }
  r->metrics["io.read_ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.read_s; }) * 1e3;
  r->metrics["io.read_mb_per_s"] = file_mb / read_total_s;
  r->metrics["io.write_ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.write_s; }) * 1e3;
  r->metrics["core.solve_ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.solve_s; }) * 1e3;
  r->metrics["validate.ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.validate_s; }) * 1e3;
  r->metrics["flow.augment_ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.augment_ms; });
  r->metrics["flow.build_graph_ms"] =
      MedianOf(ops, [](const CliOp& o) { return o.build_graph_ms; });
  const double dijkstras = Counter(counters, "flow/dijkstra_runs");
  const double paths = Counter(counters, "flow/augmenting_paths");
  r->metrics["core.gain_evaluations"] = static_cast<double>(gain_evaluations);
  r->metrics["flow.dijkstra_runs"] = dijkstras;
  r->metrics["flow.arcs_scanned"] = Counter(counters, "flow/arcs_scanned");
  r->metrics["flow.augmenting_paths"] = paths;
  r->metrics["flow.paths_per_dijkstra"] =
      dijkstras > 0 ? paths / dijkstras : 0.0;
  if (opt.trace) {
    const double untraced_op =
        MedianOf(untraced, [](const CliOp& o) { return o.op_s; });
    const double traced_op =
        MedianOf(traced, [](const CliOp& o) { return o.op_s; });
    r->metrics["obs.trace_overhead_pct"] =
        100.0 * (traced_op - untraced_op) / untraced_op;
    r->samples["traced_ops"] = traced.size();
  }
}

// ---------------------------------------------------------------------------
// service-500: a durable MarketService under a bulk load, churn and restart.

/// The named phases of one epoch, as MarketService records them.
constexpr const char* kEpochPhases[] = {
    "service/epoch/apply",    "service/epoch/rebuild",
    "service/epoch/repair",   "service/epoch/full_resolve",
    "service/epoch/validate", "wal",
    "snapshot"};

/// What one epoch committed, kept from the first session so that later
/// sessions of the same stream can be checked cheaply against it.
struct EpochCommitRecord {
  std::uint32_t state_crc = 0;
  double value = 0.0;
};

/// Restarts per session: each starts a fresh service on the same files.
constexpr int kRestarts = 2;
/// Untraced sessions per run, at the least: every step of the stream is
/// replayed at least twice.
constexpr std::size_t kMinSessions = 2;

struct Session {
  double bulk_s = 0.0;
  std::vector<double> recover_s;  // one per restart
  std::vector<double> epoch_ms;   // RunEpoch wall time, per churn epoch
  std::vector<double> batch_s;    // Submit plus RunEpoch, per churn epoch
  std::vector<double> submit_us;
  std::map<std::string, double> phase_ms;  // churn totals per phase
  double bulk_repair_ms = 0.0;
  double bulk_rebuild_ms = 0.0;
  std::uint64_t bulk_gain_evaluations = 0;
  std::uint64_t churn_gain_evaluations = 0;
  std::uint64_t full_resolves = 0;
  std::uint64_t dropped_pairs = 0;
  std::uint64_t stale = 0;
  std::uint64_t churn_deltas = 0;
  double wal_bytes_per_delta = 0.0;
  double mb = 0.0;
};

/// Checks the service's committed assignment against a market rebuilt
/// from its state: every pair must be an eligible edge and the whole must
/// be validator-clean, with the committed objective value agreeing.
bool CheckCommitted(const MarketService& service, const ServiceConfig& config,
                    std::string* why) {
  const ServiceState& state = service.state();
  const LaborMarket market = BuildMarket(state, config.edge_model);
  std::map<std::uint64_t, WorkerId> worker_index;
  std::map<std::uint64_t, TaskId> task_index;
  for (std::size_t i = 0; i < state.workers.size(); ++i) {
    worker_index.emplace(state.workers[i].id, static_cast<WorkerId>(i));
  }
  for (std::size_t i = 0; i < state.tasks.size(); ++i) {
    task_index.emplace(state.tasks[i].id, static_cast<TaskId>(i));
  }
  Assignment a;
  for (const StablePair& p : state.pairs) {
    const auto w = worker_index.find(p.worker);
    const auto t = task_index.find(p.task);
    EdgeId edge = kInvalidEdge;
    if (w != worker_index.end() && t != task_index.end()) {
      for (const Incidence& inc : market.WorkerEdges(w->second)) {
        if (market.EdgeTask(inc.edge) == t->second) edge = inc.edge;
      }
    }
    if (edge == kInvalidEdge) {
      *why = "committed pair is not an eligible edge";
      return false;
    }
    a.edges.push_back(edge);
  }
  ValidationOptions options;
  options.reported_value = service.objective_value();
  const ValidationResult check =
      ValidateAssignment(MbtaProblem{&market, config.objective}, a, options);
  if (!check.ok()) *why = "validator: " + check.Message();
  return check.ok();
}

/// Checks the epoch `service` just ran. The first session validates every
/// epoch against the rebuilt market and records what it committed; later
/// sessions replay the same stream and must commit the identical state.
void CheckEpoch(const MarketService& service, const ServiceConfig& config,
                bool ran, const std::string& error,
                std::vector<EpochCommitRecord>* record, std::size_t epoch,
                Tracer* t, Result* r) {
  ScopedSpan span(t, "bench/check", "bench");
  if (!ran) {
    r->Op(false, "epoch: " + error);
    return;
  }
  const EpochCommitRecord now{StateChecksum(service.state()),
                              service.objective_value()};
  if (epoch == record->size()) {
    std::string why;
    r->Op(CheckCommitted(service, config, &why), why);
    record->push_back(now);
    return;
  }
  const EpochCommitRecord& want = (*record)[epoch];
  r->Op(now.state_crc == want.state_crc && now.value == want.value,
        "a repeat of the stream committed a different state");
}

Session RunSession(const ServiceStream& stream, const ServiceConfig& base,
                   const std::string& dir,
                   std::vector<EpochCommitRecord>* record, Tracer* t,
                   Result* r) {
  Session out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServiceConfig config = base;
  config.wal_path = dir + "/service.wal";
  std::string error;
  std::string live_state;
  {
    MarketService service(config);
    service.stats().phases.set_tracer(t);
    bool started = false;
    {
      ScopedSpan span(t, "service/start", "service");
      started = service.Start(&error);
    }
    r->Op(started, "start: " + error);
    if (!started) return out;
    const SolveStats& stats = service.stats();
    auto submit = [&](const Delta& d) {
      const auto s0 = Clock::now();
      SubmitResult admitted;
      {
        ScopedSpan span(t, "service/submit", "service");
        admitted = service.Submit(d, &error);
      }
      out.submit_us.push_back(SecondsBetween(s0, Clock::now()) * 1e6);
      r->Op(admitted == SubmitResult::kAdmitted, "submit: " + error);
    };
    auto run_epoch = [&] {
      ScopedSpan span(t, "service/run_epoch", "service");
      return service.RunEpoch(&error);
    };

    // (a) Bulk load: every arrival, then one epoch.
    const auto t0 = Clock::now();
    for (const Delta& d : stream.bulk) submit(d);
    bool ran = run_epoch();
    out.bulk_s = SecondsBetween(t0, Clock::now());
    out.bulk_repair_ms = stats.phases.TotalMs("service/epoch/repair");
    out.bulk_rebuild_ms = stats.phases.TotalMs("service/epoch/rebuild");
    out.bulk_gain_evaluations = stats.gain_evaluations;
    CheckEpoch(service, config, ran, error, record, 0, t, r);

    // (b) Churn: one epoch per batch.
    const std::uint64_t full0 =
        stats.counters.Value("service/epoch/full_resolve");
    const std::uint64_t dropped0 =
        stats.counters.Value("service/repair/dropped_pairs");
    const std::uint64_t stale0 = stats.counters.Value("service/delta/stale");
    for (std::size_t e = 0; e < stream.churn.size(); ++e) {
      const auto b0 = Clock::now();
      for (const Delta& d : stream.churn[e]) submit(d);
      std::map<std::string, double> before;
      for (const char* phase : kEpochPhases) {
        before[phase] = stats.phases.TotalMs(phase);
      }
      const auto e0 = Clock::now();
      ran = run_epoch();
      const auto e1 = Clock::now();
      out.epoch_ms.push_back(SecondsBetween(e0, e1) * 1e3);
      out.batch_s.push_back(SecondsBetween(b0, e1));
      out.churn_deltas += stream.churn[e].size();
      double named = 0.0;
      for (const char* phase : kEpochPhases) {
        const double ms = stats.phases.TotalMs(phase) - before[phase];
        out.phase_ms[phase] += ms;
        named += ms;
      }
      out.phase_ms["other"] += out.epoch_ms.back() - named;
      CheckEpoch(service, config, ran, error, record, e + 1, t, r);
    }
    out.churn_gain_evaluations =
        stats.gain_evaluations - out.bulk_gain_evaluations;
    out.full_resolves =
        stats.counters.Value("service/epoch/full_resolve") - full0;
    out.dropped_pairs =
        stats.counters.Value("service/repair/dropped_pairs") - dropped0;
    out.stale = stats.counters.Value("service/delta/stale") - stale0;
    out.mb = service.objective_value();
    live_state = SerializeServiceState(service.state());
    const double deltas =
        static_cast<double>(stream.bulk.size() + out.churn_deltas);
    out.wal_bytes_per_delta =
        static_cast<double>(fs::file_size(config.wal_path) +
                            fs::file_size(config.wal_path + ".snap")) /
        deltas;
  }

  // (c) Restart on the files churn left: snapshot load plus WAL replay.
  // A restart writes nothing, so each one recovers the same state.
  for (int i = 0; i < kRestarts; ++i) {
    MarketService again(config);
    again.stats().phases.set_tracer(t);
    const auto t0 = Clock::now();
    bool started = false;
    {
      ScopedSpan span(t, "service/start", "service");
      started = again.Start(&error);
    }
    out.recover_s.push_back(SecondsBetween(t0, Clock::now()));
    r->Op(started && SerializeServiceState(again.state()) == live_state,
          started ? "recovered state differs from the live state"
                  : "restart: " + error);
  }
  fs::remove_all(dir);
  return out;
}

void RunService(const Options& opt, Tracer* tracer, Result* r) {
  // Set-up: draw the stream and write it as a delta script.
  const std::string script_path = opt.work_dir + "/stream.txt";
  ServiceStream stream;
  SetupTimer setup([&] {
    stream = MakeServiceStream(opt.seed);
    std::ofstream script(script_path);
    for (const Delta& d : stream.bulk) script << FormatDelta(d) << '\n';
    script << "epoch\n";
    for (const std::vector<Delta>& batch : stream.churn) {
      for (const Delta& d : batch) script << FormatDelta(d) << '\n';
      script << "epoch\n";
    }
    script.close();
    if (!script) {
      std::fprintf(stderr, "setup: cannot write %s\n", script_path.c_str());
      std::exit(2);
    }
  });

  ServiceConfig base;
  base.edge_model = stream.edge_model;
  base.objective.alpha = 0.5;
  base.objective.kind = ObjectiveKind::kSubmodular;
  base.epoch_batch = stream.bulk.size();  // the bulk load is one epoch
  base.queue_capacity = std::max<std::size_t>(1024, stream.bulk.size());

  std::vector<EpochCommitRecord> record;
  std::vector<Session> untraced;
  std::vector<Session> traced;
  const auto start = Clock::now();
  double last_s = 0.0;
  auto session = [&](Tracer* t) {
    const auto s0 = Clock::now();
    Session s = RunSession(
        stream, base,
        opt.work_dir + "/session-" +
            std::to_string(untraced.size() + traced.size()),
        &record, t, r);
    last_s = SecondsBetween(s0, Clock::now());
    std::fprintf(stderr, "session %zu%s: %.2f s, bulk load %.3f s\n",
                 untraced.size() + traced.size() + 1, t ? " (traced)" : "",
                 last_s, s.bulk_s);
    if (!untraced.empty()) {
      const Session& first = untraced.front();
      r->Op(s.bulk_gain_evaluations == first.bulk_gain_evaluations &&
                s.churn_gain_evaluations == first.churn_gain_evaluations,
            "sessions of one stream differ in work counts");
    }
    return s;
  };
  while (KeepGoing(start, opt.trace ? opt.seconds / 2 : opt.seconds,
                   untraced.size(), kMinSessions, last_s)) {
    untraced.push_back(session(nullptr));
    setup.Pass();
  }
  setup.Put(r);
  while (opt.trace &&
         KeepGoing(start, opt.seconds, traced.size(), 1, last_s)) {
    traced.push_back(session(tracer));
  }

  const Session& first = untraced.front();
  r->fingerprint["core.gain_evaluations"] = 0;
  r->fingerprint["flow.dijkstra_runs"] = 0;
  r->fingerprint["flow.arcs_scanned"] = 0;
  r->fingerprint["service.bulk.gain_evaluations"] =
      first.bulk_gain_evaluations;
  r->fingerprint["service.epoch.gain_evaluations"] =
      first.churn_gain_evaluations;

  // End-to-end metrics, from the untraced sessions only. Every session
  // replays the same stream, so each step (the bulk load, each churn
  // epoch, a restart) is timed once per session and, as for the CLI
  // workloads, its figure is the fastest of its replays.
  const std::size_t epochs = first.epoch_ms.size();
  std::vector<double> best_epoch_ms(epochs, 1e300);
  std::vector<double> best_batch_s(epochs, 1e300);
  std::vector<double> recover_s, bulk_s;
  for (const Session& s : untraced) {
    if (s.epoch_ms.size() != epochs) continue;  // a failed Start, counted
    bulk_s.push_back(s.bulk_s);
    for (std::size_t e = 0; e < epochs; ++e) {
      best_epoch_ms[e] = std::min(best_epoch_ms[e], s.epoch_ms[e]);
      best_batch_s[e] = std::min(best_batch_s[e], s.batch_s[e]);
    }
    recover_s.insert(recover_s.end(), s.recover_s.begin(), s.recover_s.end());
  }
  const double churn_s = Summarize(best_batch_s).sum;
  r->metrics["mb"] = first.mb;
  r->metrics["bulk_load_s"] = Summarize(bulk_s).min;
  r->metrics["recover_s"] = Summarize(recover_s).min;
  r->metrics["solve_s"] =
      r->metrics["bulk_load_s"] + churn_s + r->metrics["recover_s"];
  r->metrics["epoch_ms_p90"] = PutLatencies(r, best_epoch_ms).p90.value();
  r->metrics["deltas_per_s"] =
      static_cast<double>(first.churn_deltas) / churn_s;
  r->samples["replays"] = untraced.size();
  r->samples["recover_s"] = recover_s.size();

  // Per-layer metrics, from the traced sessions when there are any.
  const std::vector<Session>& sessions = traced.empty() ? untraced : traced;
  r->metrics["service.bulk.repair_ms"] =
      MedianOf(sessions, [](const Session& s) { return s.bulk_repair_ms; });
  r->metrics["service.bulk.rebuild_ms"] =
      MedianOf(sessions, [](const Session& s) { return s.bulk_rebuild_ms; });
  r->metrics["service.bulk.gain_evaluations"] =
      static_cast<double>(first.bulk_gain_evaluations);
  double traced_epochs = 0.0, epoch_total_ms = 0.0;
  std::map<std::string, double> phase_ms;
  std::vector<double> submit_us;
  for (const Session& s : sessions) {
    traced_epochs += static_cast<double>(s.epoch_ms.size());
    for (double ms : s.epoch_ms) epoch_total_ms += ms;
    for (const auto& [phase, ms] : s.phase_ms) phase_ms[phase] += ms;
    submit_us.insert(submit_us.end(), s.submit_us.begin(), s.submit_us.end());
  }
  for (const auto& [phase, ms] : phase_ms) {
    const std::string label = phase.substr(phase.rfind('/') + 1);
    r->metrics["service.epoch." + label + "_ms"] = ms / traced_epochs;
  }
  r->metrics["service.epoch.gain_evaluations"] =
      static_cast<double>(first.churn_gain_evaluations);
  r->metrics["service.epoch.full_resolves"] =
      static_cast<double>(first.full_resolves);
  r->metrics["service.repair.dropped_pairs"] =
      static_cast<double>(first.dropped_pairs);
  r->metrics["service.delta.stale"] = static_cast<double>(first.stale);
  r->metrics["service.submit_us"] = Percentile(std::move(submit_us), 50);
  r->metrics["service.wal.bytes_per_delta"] = first.wal_bytes_per_delta;
  if (opt.trace) {
    double untraced_ms = 0.0, untraced_epochs = 0.0;
    for (const Session& s : untraced) {
      for (double ms : s.epoch_ms) untraced_ms += ms;
      untraced_epochs += static_cast<double>(s.epoch_ms.size());
    }
    const double untraced_mean = untraced_ms / untraced_epochs;
    r->metrics["obs.trace_overhead_pct"] =
        100.0 * (epoch_total_ms / traced_epochs - untraced_mean) /
        untraced_mean;
    r->samples["traced_sessions"] = traced.size();
  }
}

// ---------------------------------------------------------------------------

std::string ToJson(const Options& opt, const Result& r) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(opt.workload);
  w.Key("seed");
  w.Number(opt.seed);
  w.Key("attempted");
  w.Number(r.attempted);
  w.Key("failed");
  w.Number(r.failed);
  w.Key("failures");
  w.BeginArray();
  for (const std::string& why : r.failures) w.String(why);
  w.EndArray();
  auto object = [&w](const char* key, const auto& map) {
    w.Key(key);
    w.BeginObject();
    for (const auto& [name, value] : map) {
      w.Key(name);
      w.Number(value);
    }
    w.EndObject();
  };
  object("metrics", r.metrics);
  object("fingerprint", r.fingerprint);
  object("samples", r.samples);
  w.EndObject();
  return w.TakeString();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out FILE [--trace-file FILE]\n");
  return 1;
}

int Main(int argc, char** argv) {
  Options opt;
  if (argc % 2 != 1) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--out") {
      opt.out = value;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return Usage();
    }
  }
  if (opt.work_dir.empty() || opt.out.empty() ||
      (opt.trace && opt.trace_file.empty())) {
    return Usage();
  }
  fs::create_directories(opt.work_dir);

  Result r;
  Tracer tracer(1 << 20);
  if (opt.workload == "cli-flow-500") {
    RunCli(opt, &tracer, &r);
  } else if (opt.workload == "service-500") {
    RunService(opt, &tracer, &r);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return Usage();
  }
  r.metrics["peak_rss_mb"] = PeakRssMb();
  if (opt.trace) {
    std::string error;
    if (tracer.dropped_events() != 0) {
      r.Op(false, "the tracer dropped events");
    } else if (!tracer.WriteFile(opt.trace_file, &error)) {
      r.Op(false, "trace: " + error);
    }
  }

  std::ofstream out(opt.out);
  out << ToJson(opt, r) << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace mbta::perfbench

int main(int argc, char** argv) { return mbta::perfbench::Main(argc, argv); }
