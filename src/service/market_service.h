#ifndef MBTA_SERVICE_MARKET_SERVICE_H_
#define MBTA_SERVICE_MARKET_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/problem.h"
#include "service/match_cache.h"
#include "service/snapshot.h"
#include "service/state.h"
#include "service/wal.h"
#include "util/clock.h"
#include "util/deadline.h"
#include "util/fault_injector.h"

namespace mbta {

/// Configuration of a resident MarketService. The default value is a
/// pure in-memory service (no durability) with moderate batching.
struct ServiceConfig {
  /// Delta WAL path; empty disables durability entirely (no WAL, no
  /// snapshots — benches and simple tests).
  std::string wal_path;
  /// Snapshot path; defaults to wal_path + ".snap" when durable.
  std::string snapshot_path;

  /// Edge model connecting eligible worker/task pairs on each rebuild.
  EdgeModelParams edge_model;
  ObjectiveParams objective;

  /// Max deltas consumed per epoch.
  std::size_t epoch_batch = 64;
  /// Bound on the admission queue. Arrivals and attribute changes past
  /// the bound are shed (deterministically: reject-newest); departures
  /// are always admitted — shedding a departure would keep ghost
  /// entities alive.
  std::size_t queue_capacity = 1024;
  /// Write a snapshot every N epochs (0 = never).
  std::uint64_t snapshot_every = 16;

  /// Escape hatch: in a normal epoch, when the repaired objective falls
  /// below `resolve_ratio` x the reference value, run a full greedy
  /// re-solve and keep the better result. 0 disables the hatch.
  double resolve_ratio = 0.9;
  /// Work-unit budget per epoch repair (gain evaluations). Wall-clock
  /// budgets are deliberately NOT used inside the solve: work units are
  /// deterministic, so live runs and WAL replay do identical work.
  std::uint64_t epoch_max_work = DeadlineBudget::kUnlimitedWork;
  /// Degraded-mode trigger: when the previous epoch took longer than
  /// this many wall-clock ms, the next epoch runs repair-only (no escape
  /// hatch). 0 disables degradation. The decision is recorded in the
  /// epoch's WAL record, so replay reproduces it without a clock.
  double degrade_after_ms = 0.0;

  /// Injectable seams (tests): wall clock for the degrade decision,
  /// fault injection for the service/* fault points, fsync for the WAL
  /// and snapshots, and an observer handed each market an epoch
  /// assembles, right after assembly: the reach market (see RunEpoch),
  /// then the full market when the escape hatch fires.
  const Clock* clock = nullptr;
  FaultInjector* faults = nullptr;
  FileSyncer* syncer = nullptr;
  std::function<void(const LaborMarket&)> market_observer;
};

/// Outcome of one Submit call.
enum class SubmitResult {
  kAdmitted,  ///< logged (when durable) and queued for the next epoch
  kShed,      ///< admission queue full — dropped, never logged
  kRejected,  ///< failed field validation — dropped, never logged
};

/// A resident task-assignment service: owns the evolving market spec and
/// the committed assignment, absorbs typed deltas, and re-optimizes in
/// batched epochs via incremental repair (src/core/repair.h) under a
/// deterministic work budget.
///
/// Durability contract (CONTRIBUTING.md, "Serving & durability"):
/// admitted deltas are appended to the WAL before they enter the queue;
/// epoch commits append an epoch record carrying the objective bits and
/// a state checksum, then fsync. Recovery = snapshot load + WAL replay,
/// and is *byte-identical*: the recovered ServiceState serializes to
/// exactly the bytes of the uninterrupted live state at the same epoch
/// boundary (epoch solving spends work units, never wall time, and the
/// one wall-clock decision — degraded mode — is recorded in the log).
///
/// Any WAL/snapshot failure (injected or real) fails the whole service:
/// `failed()` turns true, every later Submit/RunEpoch refuses, and the
/// process is expected to restart and recover from disk. Injected
/// faults additionally propagate as FaultInjectedError so crash tests
/// can observe the exact kill point.
class MarketService {
 public:
  explicit MarketService(ServiceConfig config);
  ~MarketService();

  MarketService(const MarketService&) = delete;
  MarketService& operator=(const MarketService&) = delete;

  /// Brings the service up. Durable services recover from the snapshot +
  /// WAL when present (amputating a torn WAL tail first), then open the
  /// WAL for append; in-memory services start empty. Returns false and
  /// fills `error` when recovery fails structurally (corrupt snapshot,
  /// foreign WAL, replay checksum mismatch — deleting the files is the
  /// only way forward, and that is the operator's call, not ours).
  bool Start(std::string* error = nullptr);

  /// Validates and admits one delta (see SubmitResult). Admitted deltas
  /// take effect at the next RunEpoch.
  SubmitResult Submit(const Delta& delta, std::string* error = nullptr);

  /// Runs one epoch: consume up to epoch_batch pending deltas, fix which
  /// carried pairs survive (re-anchored by stable ids), assemble the
  /// reach market from the skill-match cache — every entity, but only
  /// the edges incident to a touched entity plus the surviving carried
  /// pairs' edges — repair locally on it, optionally escape-hatch to a
  /// full re-solve on the full market, validate, commit to the WAL,
  /// maybe snapshot. The reach market keeps BuildMarket's dense ids and
  /// relative edge order, so the epoch commits what a full-market epoch
  /// would, bit for bit. Returns false on failure (service failed /
  /// validation error).
  bool RunEpoch(std::string* error = nullptr);

  bool started() const { return started_; }
  bool failed() const { return failed_; }

  /// The committed logical state (entities, pairs, queue, progress).
  const ServiceState& state() const { return state_; }
  /// Objective value committed by the last epoch (0 before any epoch).
  double objective_value() const { return last_value_; }
  /// Mode the last epoch ran in.
  EpochMode last_mode() const { return last_mode_; }
  /// SkillMatch calls the epoch path has made since construction: |W|·|T|
  /// on the first epoch run (live or replayed), then arrivals × other
  /// side. Tests pin rebuild cost with it; it stays out of
  /// stats().counters so the bench counter sets do not change.
  std::uint64_t skill_matches() const { return match_cache_.skill_matches(); }

  /// Service-lifetime observability: service/* counters, the
  /// service/epoch/... phase tree, and (when a tracer is attached via
  /// stats().phases.set_tracer) one span per phase. Aggregated across
  /// epochs, mbta_trace-compatible.
  SolveStats& stats() { return stats_; }
  const SolveStats& stats() const { return stats_; }

 private:
  bool RecoverFromDisk(std::string* error);
  /// The deterministic epoch core shared by live serving and WAL replay:
  /// consumes exactly `num_deltas` queued deltas and solves in `mode`.
  /// Mutates state_ (entities, pairs, epoch) but performs NO I/O.
  void ExecuteEpoch(EpochMode mode, std::uint32_t num_deltas);

  ServiceConfig config_;
  bool durable_ = false;
  bool started_ = false;
  bool failed_ = false;

  ServiceState state_;
  /// Derived from state_'s entity lists, never persisted.
  MatchCache match_cache_;
  WalWriter wal_;
  double last_value_ = 0.0;
  EpochMode last_mode_ = EpochMode::kNormal;
  double last_epoch_ms_ = 0.0;
  SolveStats stats_;
};

}  // namespace mbta

#endif  // MBTA_SERVICE_MARKET_SERVICE_H_
