#include "bench_lib.h"

#include <algorithm>
#include <cmath>

#include "gen/market_generator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mbta::perfbench {

PercentileSummary SummarizeLatencies(std::vector<double> samples) {
  PercentileSummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  out.p50 = Percentile(samples, 50);
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least 90% of the set at or
  // below it.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(samples.size())));
  out.above_p90 = samples.size() - rank;
  if (out.above_p90 >= PercentileSummary::kMinTail) {
    out.p90 = samples[rank - 1];
  }
  return out;
}

namespace {

/// Live entities per side after the bulk load; churn holds each side
/// within ±5% of it.
constexpr std::size_t kPerSide = 500;
/// 126 churn epochs after the bulk epoch end on epoch 127, so a restart
/// replays the 15 epochs after the last snapshot (epoch 112; one every 16
/// epochs), and the churn epoch times have 12 samples above their p90.
constexpr std::size_t kChurnEpochs = 126;
constexpr std::size_t kDeltasPerEpoch = 32;

/// Live stable ids of one side, with O(1) random removal. Order is a
/// pure function of the operation sequence, so draws stay seeded.
class LiveSet {
 public:
  void Add(std::uint64_t id) { ids_.push_back(id); }
  std::size_t size() const { return ids_.size(); }
  std::uint64_t Pick(Rng& rng) const { return ids_[rng.NextBounded(size())]; }
  std::uint64_t TakeRandom(Rng& rng) {
    const std::size_t at = rng.NextBounded(size());
    const std::uint64_t id = ids_[at];
    ids_[at] = ids_.back();
    ids_.pop_back();
    return id;
  }

 private:
  std::vector<std::uint64_t> ids_;
};

}  // namespace

ServiceStream MakeServiceStream(std::uint64_t seed) {
  // Arrivals on a side exceed its departures by at most the 5% headroom,
  // and the two together use at most every churn delta, so this pool
  // never runs dry (checked below all the same).
  const std::size_t pool =
      kPerSide + kChurnEpochs * kDeltasPerEpoch / 2 + kPerSide / 20 + 2;
  const GeneratorConfig gen = UniformConfig(pool, pool, seed);
  const LaborMarket entities = GenerateMarket(gen);

  ServiceStream stream;
  stream.edge_model = gen.edge_model;
  std::size_t next_worker = 0;
  std::size_t next_task = 0;
  LiveSet workers;
  LiveSet tasks;

  auto add_worker = [&](std::vector<Delta>& out) {
    MBTA_CHECK(next_worker < entities.NumWorkers());
    Delta d;
    d.kind = DeltaKind::kAddWorker;
    d.id = next_worker + 1;
    d.worker = entities.worker(static_cast<WorkerId>(next_worker));
    ++next_worker;
    workers.Add(d.id);
    out.push_back(std::move(d));
  };
  auto add_task = [&](std::vector<Delta>& out) {
    MBTA_CHECK(next_task < entities.NumTasks());
    Delta d;
    d.kind = DeltaKind::kAddTask;
    d.id = next_task + 1;
    d.task = entities.task(static_cast<TaskId>(next_task));
    ++next_task;
    tasks.Add(d.id);
    out.push_back(std::move(d));
  };

  for (std::size_t i = 0; i < kPerSide; ++i) add_worker(stream.bulk);
  for (std::size_t i = 0; i < kPerSide; ++i) add_task(stream.bulk);

  const std::size_t high = kPerSide + kPerSide / 20;
  const std::size_t low = kPerSide - kPerSide / 20;
  Rng rng(seed ^ 0x5e41c3f0a7d2b619ULL);
  stream.churn.resize(kChurnEpochs);
  for (std::vector<Delta>& batch : stream.churn) {
    for (std::size_t i = 0; i < kDeltasPerEpoch; ++i) {
      const double u = rng.NextDouble();
      if (u < 0.8) {
        // Arrivals then departures, 20% per side each; the ±5% band
        // turns an arrival on a full side into a departure and back.
        const bool worker_side = u < 0.2 || (u >= 0.4 && u < 0.6);
        LiveSet& live = worker_side ? workers : tasks;
        const bool add = live.size() >= high   ? false
                         : live.size() <= low ? true
                                              : u < 0.4;
        if (add) {
          worker_side ? add_worker(batch) : add_task(batch);
        } else {
          Delta d;
          d.kind = worker_side ? DeltaKind::kRemoveWorker
                               : DeltaKind::kRemoveTask;
          d.id = live.TakeRandom(rng);
          batch.push_back(std::move(d));
        }
      } else if (u < 0.9) {
        Delta d;
        d.kind = DeltaKind::kTaskPayment;
        d.id = tasks.Pick(rng);
        // A payment drawn from the preset's own distribution.
        d.amount = entities.task(static_cast<TaskId>(
                                     rng.NextBounded(entities.NumTasks())))
                       .payment;
        batch.push_back(std::move(d));
      } else {
        Delta d;
        if (rng.NextBool(0.5)) {
          d.kind = DeltaKind::kWorkerCapacity;
          d.id = workers.Pick(rng);
          d.capacity = static_cast<int>(rng.NextInt(gen.worker_capacity_min,
                                                    gen.worker_capacity_max));
        } else {
          d.kind = DeltaKind::kTaskCapacity;
          d.id = tasks.Pick(rng);
          d.capacity = static_cast<int>(
              rng.NextInt(gen.task_capacity_min, gen.task_capacity_max));
        }
        batch.push_back(std::move(d));
      }
    }
  }
  return stream;
}

}  // namespace mbta::perfbench
