/// Smoke benchmark suite: a pinned set of small workloads run through
/// every solver, emitting one structured JSON row per (workload, solver)
/// pair for `bench_compare` to diff between two builds (see
/// scripts/bench_smoke.sh). Workloads are deliberately small so two
/// back-to-back runs fit in CI; wall-clock comparisons are therefore
/// noisy and bench_compare applies a floor below which only the
/// deterministic counters are compared.
///
/// Doubles as the instrumentation-determinism gate: every solver is run
/// once without a SolveStats sink and once with one, and the two
/// assignments must match edge-for-edge (instrumentation must never
/// perturb results). Exits nonzero on any mismatch.
///
/// `--trace <path>` additionally records the whole suite as one Chrome
/// trace-event file (first instrumented repeat of every row lands on the
/// shared timeline). CI runs the suite twice with `--trace` and asserts
/// the two traces are sequence-identical with `mbta_trace --diff`.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "core/solver.h"
#include "core/solver_registry.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "service/market_service.h"
#include "service/state.h"
#include "util/clock.h"
#include "util/mem.h"
#include "util/rng.h"

namespace {

using namespace mbta;

struct Workload {
  std::string name;
  LaborMarket market;
  ObjectiveParams objective;
};

/// One operation of the resident-service churn stream: an epoch barrier
/// or a delta for the admission queue.
struct ServiceOp {
  bool run_epoch = false;
  Delta delta;
};

/// Seeded churn stream for the resident-service row: arrivals on both
/// sides, occasional departures, attribute patches, and an epoch barrier
/// roughly every eight deltas. Sized so the market settles around a
/// couple hundred live entities — enough that per-epoch rebuild+repair
/// dominates the row, small enough for best-of-3 in CI.
std::vector<ServiceOp> ServiceChurnStream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ServiceOp> ops;
  std::vector<std::uint64_t> workers;
  std::vector<std::uint64_t> tasks;
  std::uint64_t next_worker = 1;
  std::uint64_t next_task = 1u << 20;
  constexpr int kOps = 600;
  for (int i = 0; i < kOps; ++i) {
    ServiceOp op;
    if (rng.NextDouble() < 0.125 && i > 0) {
      op.run_epoch = true;
      ops.push_back(op);
      continue;
    }
    Delta& d = op.delta;
    const double kind = rng.NextDouble();
    if (kind < 0.38 || (workers.empty() && tasks.empty())) {
      d.kind = DeltaKind::kAddWorker;
      d.id = next_worker++;
      d.worker.capacity = 1 + static_cast<int>(rng.NextBounded(3));
      d.worker.unit_cost = rng.NextDouble(0.0, 0.5);
      d.worker.reliability = rng.NextDouble(0.5, 1.0);
      workers.push_back(d.id);
    } else if (kind < 0.76 || tasks.empty()) {
      d.kind = DeltaKind::kAddTask;
      d.id = next_task++;
      d.task.capacity = 1 + static_cast<int>(rng.NextBounded(2));
      d.task.payment = rng.NextDouble(0.3, 2.0);
      d.task.value = rng.NextDouble(0.5, 3.0);
      d.task.difficulty = rng.NextDouble(0.0, 0.6);
      tasks.push_back(d.id);
    } else if (kind < 0.82 && !workers.empty()) {
      const std::size_t at = rng.NextBounded(workers.size());
      d.kind = DeltaKind::kRemoveWorker;
      d.id = workers[at];
      workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.88 && !tasks.empty()) {
      const std::size_t at = rng.NextBounded(tasks.size());
      d.kind = DeltaKind::kRemoveTask;
      d.id = tasks[at];
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (kind < 0.95 || workers.empty()) {
      d.kind = DeltaKind::kTaskPayment;
      d.id = tasks[rng.NextBounded(tasks.size())];
      d.amount = rng.NextDouble(0.2, 2.5);
    } else {
      d.kind = DeltaKind::kWorkerCapacity;
      d.id = workers[rng.NextBounded(workers.size())];
      d.capacity = 1 + static_cast<int>(rng.NextBounded(4));
    }
    ops.push_back(op);
  }
  return ops;
}

/// Runs `solver` once without instrumentation and `repeats` times with
/// it, keeping the fastest wall time (counters are identical across
/// repeats by determinism). Every instrumented assignment is compared
/// edge-for-edge against the uninstrumented one, which catches both
/// nondeterminism across repeats and instrumentation perturbing the
/// result. Returns false on any mismatch.
///
/// When `tracer` is non-null the first instrumented repeat emits spans
/// onto it (first only: repeats would triple every span with no new
/// information, and the trace-determinism gate wants one canonical
/// sequence per row). Peak RSS is published as a gauge, not a counter —
/// it is monotone across the whole process and varies with allocator
/// behavior, so it must stay out of the exact counter diff. Per-repeat
/// wall times land in the "latency/solve_ms" histogram; the latency/
/// prefix keeps time-valued buckets out of bench_compare's exact diff.
bool RunOne(const Solver& solver, const MbtaProblem& problem, int repeats,
            bench::SolverRun* out, Tracer* tracer) {
  const Assignment plain = solver.Solve(problem, SolveOptions{});
  out->solver = solver.name();
  Histogram solve_ms(LatencyBoundariesMs());
  for (int i = 0; i < repeats; ++i) {
    SolveInfo info;
    if (i == 0) info.phases.set_tracer(tracer);
    const Assignment instrumented =
        solver.Solve(problem, SolveOptions{}, &info);
    if (instrumented.edges != plain.edges) {
      std::fprintf(stderr,
                   "FAIL: %s returned a different assignment on "
                   "instrumented repeat %d\n",
                   solver.name().c_str(), i);
      return false;
    }
    solve_ms.Record(info.wall_ms);
    if (i == 0) {
      out->metrics = Evaluate(problem.MakeObjective(), instrumented);
      out->info = std::move(info);
      out->info.phases.set_tracer(nullptr);
    } else {
      out->info.wall_ms = std::min(out->info.wall_ms, info.wall_ms);
    }
  }
  out->info.histograms.Add("latency/solve_ms", solve_ms);
  out->info.counters.SetGauge("mem/peak_rss_kb",
                              static_cast<double>(PeakRssKb()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      bench::ConsumeFlagValue(&argc, argv, "--trace");
  std::unique_ptr<Tracer> tracer_storage;
  if (!trace_path.empty()) tracer_storage = std::make_unique<Tracer>();
  Tracer* const tracer = tracer_storage.get();
  bench::PrintBanner(
      "Smoke suite: pinned workloads for the perf-regression gate",
      "per (workload, solver): determinism check + best-of-3 wall time, "
      "counters and phase timings; diff two runs with bench_compare",
      "mturk 300 / uniform 250x250 / upwork 300 submodular + mturk 300 "
      "modular + uniform 350x350 lazy vs plain greedy + resident-service "
      "churn stream, alpha=0.5, seed 42");
  bench::JsonLog json(argc, argv, "smoke",
                      "pinned small workloads, alpha=0.5, seed 42");

  std::vector<Workload> workloads;
  workloads.push_back({"mturk-300",
                       GenerateMarket(MTurkLikeConfig(300, 42)),
                       {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}});
  workloads.push_back({"uniform-250",
                       GenerateMarket(UniformConfig(250, 250, 42)),
                       {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}});
  workloads.push_back({"upwork-300",
                       GenerateMarket(UpworkLikeConfig(300, 42)),
                       {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}});

  constexpr int kRepeats = 3;
  bool ok = true;
  Table table({"workload", "solver", "MB", "time(ms)", "gain evals"});
  const auto report = [&](const Workload& w, const bench::SolverRun& run) {
    json.AddRun({{"workload", w.name}}, run);
    table.AddRow({w.name, run.solver, Table::Num(run.metrics.mutual_benefit),
                  Table::Num(run.info.wall_ms),
                  Table::Num(static_cast<std::int64_t>(
                      run.info.gain_evaluations))});
  };
  // Random and the online family are seeded with 7; local search is
  // capped at two passes — each row is solved six times (repeats +
  // determinism checks) and uncapped passes would dominate the suite.
  const auto run_row = [&](const Workload& w, std::string_view name) {
    const auto solver =
        CreateSolver(name, {.seed = 7, .max_passes = 2, .market = &w.market});
    bench::SolverRun run;
    ok = RunOne(*solver, {&w.market, w.objective}, kRepeats, &run, tracer) &&
         ok;
    report(w, run);
  };

  for (const Workload& w : workloads) {
    // Every registered solver but the modular-only ones, which get
    // their own workload below.
    for (const std::string& name : SolverNames()) {
      if (!IsModularOnly(name)) run_row(w, name);
    }
  }

  // Modular workload: the exact flow solver only accepts this objective.
  {
    const Workload modular{"mturk-300-modular",
                           GenerateMarket(MTurkLikeConfig(300, 42)),
                           {.alpha = 0.5, .kind = ObjectiveKind::kModular}};
    for (const char* name : {"exact-flow", "greedy"}) {
      run_row(modular, name);
    }
  }

  // Lazy vs plain greedy on a workload large enough (~2M gain
  // evaluations per plain solve) that the lazy heap's saving clears
  // scheduler noise. The workload key predates this pair of rows and is
  // kept so their committed baselines stay comparable.
  {
    const Workload par{"uniform-350-par",
                       GenerateMarket(UniformConfig(350, 350, 42)),
                       {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular}};
    for (const char* name : {"greedy", "greedy-plain"}) run_row(par, name);
  }

  // Resident-service row: a seeded churn stream driven through an
  // in-memory MarketService (no WAL — disk latency is jitter the perf
  // gate must not see), putting epoch throughput and the service/*
  // counter family into the committed baseline. The repeats double as an
  // end-to-end determinism gate mirroring the recovery contract: every
  // repeat must serialize to the byte-identical final ServiceState.
  {
    const std::vector<ServiceOp> ops = ServiceChurnStream(42);
    bench::SolverRun run;
    run.solver = "market-service";
    Histogram epoch_ms(LatencyBoundariesMs());
    const SteadyClock& clock = SteadyClock::Instance();
    std::string reference_state;
    for (int i = 0; i < kRepeats && ok; ++i) {
      ServiceConfig config;
      config.epoch_batch = 32;
      config.queue_capacity = 4096;
      MarketService service(std::move(config));
      if (i == 0) service.stats().phases.set_tracer(tracer);
      std::string error;
      bool repeat_ok = service.Start(&error);
      const double stream_start = clock.NowMs();
      for (const ServiceOp& op : ops) {
        if (!repeat_ok) break;
        if (op.run_epoch) {
          const double epoch_start = clock.NowMs();
          repeat_ok = service.RunEpoch(&error);
          epoch_ms.Record(clock.NowMs() - epoch_start);
        } else {
          // The queue is sized past the stream, so anything but
          // admission means the stream generator and the service
          // disagree — a finding, not noise.
          repeat_ok =
              service.Submit(op.delta, &error) == SubmitResult::kAdmitted;
        }
      }
      while (repeat_ok && !service.state().pending.empty()) {
        const double epoch_start = clock.NowMs();
        repeat_ok = service.RunEpoch(&error);
        epoch_ms.Record(clock.NowMs() - epoch_start);
      }
      const double total_ms = clock.NowMs() - stream_start;
      if (!repeat_ok) {
        std::fprintf(stderr, "FAIL: market-service repeat %d: %s\n", i,
                     error.c_str());
        ok = false;
        break;
      }
      const std::string state = SerializeServiceState(service.state());
      if (i == 0) {
        reference_state = state;
        run.info = service.stats();
        run.info.phases.set_tracer(nullptr);
        run.info.wall_ms = total_ms;
        run.metrics.mutual_benefit = service.objective_value();
        run.metrics.num_assignments = service.state().pairs.size();
      } else {
        run.info.wall_ms = std::min(run.info.wall_ms, total_ms);
        if (state != reference_state) {
          std::fprintf(stderr,
                       "FAIL: market-service repeat %d serialized to a "
                       "different final state than repeat 0\n",
                       i);
          ok = false;
        }
      }
    }
    run.info.histograms.Add("latency/epoch_ms", epoch_ms);
    run.info.counters.SetGauge("mem/peak_rss_kb",
                               static_cast<double>(PeakRssKb()));
    const Workload churn{"service-churn-600", LaborMarket{}, {}};
    report(churn, run);
  }

  std::printf("%s\n", table.ToString().c_str());
  if (!ok) {
    std::fprintf(stderr, "smoke suite FAILED: see messages above\n");
    return 1;
  }
  std::printf("determinism: all solvers byte-identical with "
              "instrumentation attached\n");
  if (tracer != nullptr) {
    std::string trace_error;
    if (!tracer->WriteFile(trace_path, &trace_error)) {
      std::fprintf(stderr, "error: %s\n", trace_error.c_str());
      return 1;
    }
    std::printf("wrote trace: %s\n", trace_path.c_str());
  }
  return 0;
}
