#ifndef MBTA_SERVICE_STATE_H_
#define MBTA_SERVICE_STATE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "market/labor_market.h"
#include "service/delta.h"

namespace mbta {

/// A worker/task annotated with the caller-chosen stable id it keeps for
/// the lifetime of the service (dense LaborMarket indices shift whenever
/// an earlier entity departs; stable ids never do).
struct StableWorker {
  std::uint64_t id = 0;
  Worker worker;
};

struct StableTask {
  std::uint64_t id = 0;
  Task task;
};

/// One assignment pair in stable-id space.
struct StablePair {
  std::uint64_t worker = 0;
  std::uint64_t task = 0;

  bool operator==(const StablePair& o) const {
    return worker == o.worker && task == o.task;
  }
  bool operator<(const StablePair& o) const {
    return worker != o.worker ? worker < o.worker : task < o.task;
  }
};

/// The complete logical state of a resident MarketService, in stable-id
/// space. Everything the service needs to resume after a crash lives
/// here — entities (insertion order, which fixes dense indices on
/// rebuild), the committed assignment, the admitted-but-unapplied delta
/// queue, and the epoch/WAL progress markers. `Serialize` produces a
/// canonical byte string (17-significant-digit doubles, fixed section
/// order), so two states are identical iff their serializations are
/// byte-identical — that is the recovery determinism contract tests
/// compare.
struct ServiceState {
  std::vector<StableWorker> workers;
  std::vector<StableTask> tasks;
  /// Committed assignment, kept sorted by (worker, task) stable id.
  std::vector<StablePair> pairs;
  /// Admitted deltas waiting for the next epoch, oldest first.
  std::deque<Delta> pending;
  /// Epochs committed so far.
  std::uint64_t epoch = 0;
  /// WAL records already reflected in this state (replay skip count).
  std::uint64_t wal_records = 0;
  /// Bit pattern of the full re-solve reference objective (see
  /// MarketService escape hatch); 0 before the first epoch.
  std::uint64_t reference_bits = 0;

  /// Index of the entity with stable id `id`, or npos. Linear scan: it
  /// serves per-delta application; the epoch path and the snapshot parser
  /// map ids through sorted indexes built once per pass instead.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t WorkerIndex(std::uint64_t id) const;
  std::size_t TaskIndex(std::uint64_t id) const;
};

/// Applies one delta to the entity lists (arrival appends, departure
/// erases the entity and its pairs, attribute changes patch in place).
/// Fails — leaving `state` untouched — when the target id is absent (or,
/// for arrivals, already present). Does NOT touch `pending`, `epoch`, or
/// the progress markers; the epoch loop owns those.
bool ApplyDelta(ServiceState& state, const Delta& delta,
                std::string* error = nullptr);

/// Rebuilds the dense LaborMarket for the current entity lists: worker i
/// of the market is state.workers[i], edges are derived from
/// `edge_model` via ConnectEligiblePairs. Deterministic in the entity
/// order, which Serialize pins. Each service epoch assembles the part of
/// this market it can reach from its skill-match cache (MatchCache);
/// this from-scratch form is that assembly's oracle and the checker's
/// view of a state.
LaborMarket BuildMarket(const ServiceState& state,
                        const EdgeModelParams& edge_model);

/// Canonical text form (see struct comment). Layout, in market_io style:
///
///   mbta-service-state v1
///   epoch <n>
///   wal_records <n>
///   reference <u64 bit pattern>
///   workers <count>
///   w <stable_id> <capacity> <unit_cost> <fatigue> <reliability> <skill...>
///   tasks <count>
///   t <stable_id> <capacity> <payment> <value> <difficulty> <requester> <skill...>
///   pairs <count>
///   a <worker_id> <task_id>
///   pending <count>
///   d <delta line>
std::string SerializeServiceState(const ServiceState& state);

/// Parses a serialized state through the line grammar of io/text_codec.h,
/// hardened like market_io's readers: section counts are overflow-proof
/// and capped before any pre-allocation, entity fields pass ValidWorker /
/// ValidTask, duplicate stable ids and dangling pair endpoints are
/// rejected (one sorted-id pass per section). Returns std::nullopt and
/// fills `error` on the first problem.
std::optional<ServiceState> ParseServiceState(std::string_view text,
                                              std::string* error = nullptr);

/// CRC-32 of SerializeServiceState(state) — the state checksum embedded
/// in epoch WAL records and snapshot trailers.
std::uint32_t StateChecksum(const ServiceState& state);

}  // namespace mbta

#endif  // MBTA_SERVICE_STATE_H_
