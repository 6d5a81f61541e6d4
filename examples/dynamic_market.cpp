/// Dynamic market maintenance: workers quit and requesters withdraw jobs
/// all day; re-solving from scratch after every event would both waste
/// compute and reshuffle assignments people already agreed to. This
/// example loads a market into an in-memory MarketService, streams
/// departure events through its epochs with the re-solve escape hatch
/// off (so every epoch is the service's local repair), and compares the
/// result against one full greedy re-solve on value, stability of the
/// standing assignments (Jaccard), and wall-clock.
///
///   $ ./build/examples/dynamic_market

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/greedy_solver.h"
#include "gen/market_generator.h"
#include "service/market_service.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

/// 1 − Jaccard similarity of two sorted pair lists.
double Churn(const std::vector<mbta::StablePair>& a,
             const std::vector<mbta::StablePair>& b) {
  std::vector<mbta::StablePair> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  const std::size_t unioned = a.size() + b.size() - common.size();
  return unioned == 0 ? 0.0
                      : 1.0 - static_cast<double>(common.size()) /
                                  static_cast<double>(unioned);
}

}  // namespace

int main() {
  using namespace mbta;

  const GeneratorConfig generator = UpworkLikeConfig(1000, 3);
  const LaborMarket generated = GenerateMarket(generator);
  const std::size_t arrivals = generated.NumWorkers() + generated.NumTasks();

  ServiceConfig config;
  config.edge_model = generator.edge_model;
  config.objective = {.alpha = 0.5, .kind = ObjectiveKind::kSubmodular};
  config.resolve_ratio = 0.0;  // repair only: no full re-solve per epoch
  config.epoch_batch = arrivals;
  config.queue_capacity = arrivals;
  MarketService service(config);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "start failed: %s\n", error.c_str());
    return 1;
  }

  // The generated workers and tasks arrive as add deltas (stable id =
  // generated index) and are assigned in one bulk epoch.
  for (WorkerId w = 0; w < generated.NumWorkers(); ++w) {
    Delta delta;
    delta.kind = DeltaKind::kAddWorker;
    delta.id = w;
    delta.worker = generated.worker(w);
    if (service.Submit(delta, &error) != SubmitResult::kAdmitted) {
      std::fprintf(stderr, "worker %u not admitted: %s\n", w, error.c_str());
      return 1;
    }
  }
  for (TaskId t = 0; t < generated.NumTasks(); ++t) {
    Delta delta;
    delta.kind = DeltaKind::kAddTask;
    delta.id = t;
    delta.task = generated.task(t);
    if (service.Submit(delta, &error) != SubmitResult::kAdmitted) {
      std::fprintf(stderr, "task %u not admitted: %s\n", t, error.c_str());
      return 1;
    }
  }
  WallTimer load_timer;
  if (!service.RunEpoch(&error)) {
    std::fprintf(stderr, "bulk epoch failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("bulk load: %zu workers, %zu tasks -> %zu pairs, MB = %.1f "
              "(%.2f ms)\n\n",
              service.state().workers.size(), service.state().tasks.size(),
              service.state().pairs.size(), service.objective_value(),
              load_timer.ElapsedMs());

  std::printf("%5s  %-22s  %10s  %9s  %11s  %10s\n", "event", "kind",
              "MB after", "pairs", "churn (1-J)", "epoch ms");

  Rng rng(7);
  double total_epoch_ms = 0.0;
  constexpr int kEvents = 12;
  for (int event = 0; event < kEvents; ++event) {
    const ServiceState& state = service.state();
    Delta departure;
    char description[64];
    if (rng.NextBool(0.6)) {
      departure.kind = DeltaKind::kRemoveWorker;
      departure.id = state.workers[rng.NextBounded(state.workers.size())].id;
      std::snprintf(description, sizeof(description), "worker %llu quits",
                    static_cast<unsigned long long>(departure.id));
    } else {
      departure.kind = DeltaKind::kRemoveTask;
      departure.id = state.tasks[rng.NextBounded(state.tasks.size())].id;
      std::snprintf(description, sizeof(description), "job %llu withdrawn",
                    static_cast<unsigned long long>(departure.id));
    }
    const std::vector<StablePair> before = state.pairs;
    WallTimer timer;
    if (service.Submit(departure, &error) != SubmitResult::kAdmitted ||
        !service.RunEpoch(&error)) {
      std::fprintf(stderr, "event %d failed: %s\n", event, error.c_str());
      return 1;
    }
    const double ms = timer.ElapsedMs();
    total_epoch_ms += ms;
    std::printf("%5d  %-22s  %10.1f  %9zu  %11.4f  %10.3f\n", event,
                description, service.objective_value(),
                service.state().pairs.size(),
                Churn(before, service.state().pairs), ms);
  }

  // What would a full re-solve cost, and how much would it reshuffle?
  const ServiceState& state = service.state();
  const LaborMarket market = BuildMarket(state, config.edge_model);
  const MbtaProblem problem{&market, config.objective};
  WallTimer timer;
  const Assignment resolved = GreedySolver().Solve(problem);
  const double resolve_ms = timer.ElapsedMs();
  std::vector<StablePair> resolved_pairs;
  for (EdgeId e : resolved.edges) {
    resolved_pairs.push_back({state.workers[market.EdgeWorker(e)].id,
                              state.tasks[market.EdgeTask(e)].id});
  }
  std::sort(resolved_pairs.begin(), resolved_pairs.end());
  const double reshuffle = Churn(state.pairs, resolved_pairs);
  const double resolved_value = problem.MakeObjective().Value(resolved);

  std::printf("\n%d repair epochs took %.2f ms total; one full greedy "
              "re-solve takes %.2f ms\n",
              kEvents, total_epoch_ms, resolve_ms);
  std::printf("a re-solve now would change %.1f%% of the standing "
              "assignments (Jaccard %.3f) and move MB by %+.2f%%\n",
              100.0 * reshuffle, 1.0 - reshuffle,
              100.0 * (resolved_value / service.objective_value() - 1.0));
  return 0;
}
