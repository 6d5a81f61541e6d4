#ifndef MBTA_SERVICE_DELTA_H_
#define MBTA_SERVICE_DELTA_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "market/types.h"

namespace mbta {

/// One typed market mutation submitted to the resident MarketService.
/// Entities are addressed by *stable ids* (caller-chosen uint64, unique
/// per side for the lifetime of the log) — never by the dense indices of
/// a built LaborMarket, which shift whenever an earlier entity departs.
enum class DeltaKind : std::uint8_t {
  kAddWorker = 1,       ///< worker arrival; payload in `worker`
  kAddTask = 2,         ///< task posted; payload in `task`
  kRemoveWorker = 3,    ///< worker departure
  kRemoveTask = 4,      ///< task withdrawn
  kWorkerCapacity = 5,  ///< worker capacity changed; payload in `capacity`
  kTaskCapacity = 6,    ///< task capacity changed; payload in `capacity`
  kTaskPayment = 7,     ///< task payment changed; payload in `amount`
  kTaskValue = 8,       ///< task value changed; payload in `amount`
};

const char* ToString(DeltaKind kind);

struct Delta {
  DeltaKind kind = DeltaKind::kAddWorker;
  /// Stable id of the target entity (the *new* entity's id for arrivals).
  std::uint64_t id = 0;
  /// kAddWorker payload (the Worker::id field is ignored; the service
  /// assigns dense indices on rebuild).
  Worker worker;
  /// kAddTask payload (Task::id likewise ignored).
  Task task;
  /// kWorkerCapacity / kTaskCapacity payload.
  int capacity = 0;
  /// kTaskPayment / kTaskValue payload.
  double amount = 0.0;

  bool operator==(const Delta& other) const;
};

/// Field-level sanity independent of market state: arrivals pass the
/// readers' ValidWorker / ValidTask range check (io/text_codec.h),
/// capacities are >= 0 and amounts finite and >= 0. Returns false and
/// fills `error` (when non-null) on the first problem. The service
/// additionally checks id liveness at admission.
bool ValidateDelta(const Delta& delta, std::string* error = nullptr);

/// Text codec, one delta per line — the format of delta *script* files
/// driven by `mbta_cli serve` and embedded in snapshots for the pending
/// queue. Lines:
///
///   add-worker <id> <capacity> <unit_cost> <fatigue> <reliability> [skill...]
///   add-task <id> <capacity> <payment> <value> <difficulty> <requester> [skill...]
///   rm-worker <id>
///   rm-task <id>
///   worker-capacity <id> <capacity>
///   task-capacity <id> <capacity>
///   task-payment <id> <payment>
///   task-value <id> <value>
///
/// Fields follow the line grammar of io/text_codec.h: ids are unsigned
/// decimal integers, capacities signed ones, and every other number a
/// finite double. FormatDelta emits 17-significant-digit doubles, so a
/// formatted delta parses back bit-identical — snapshot round trips
/// preserve state exactly. ParseDelta rejects bad spellings, NaN/Inf, bad
/// ranges, and trailing junk.
std::string FormatDelta(const Delta& delta);
/// Appends FormatDelta(delta) to `out`.
void AppendFormattedDelta(const Delta& delta, std::string* out);
std::optional<Delta> ParseDelta(std::string_view line,
                                std::string* error = nullptr);

/// One entry of a delta script: either a delta or an epoch barrier (the
/// literal line "epoch"), telling `mbta_cli serve` to run an epoch here.
struct ScriptEntry {
  bool epoch = false;  ///< true: run an epoch; `delta` is unused
  Delta delta;
};

/// Parses a whole script (blank lines and '#' comments skipped). Returns
/// std::nullopt and fills `error` with a 1-based line diagnostic on the
/// first bad line. The stream form reads `in` to its end first.
std::optional<std::vector<ScriptEntry>> ParseDeltaScript(
    std::string_view text, std::string* error = nullptr);
std::optional<std::vector<ScriptEntry>> ParseDeltaScript(
    std::istream& in, std::string* error = nullptr);

/// Binary codec used inside WAL records. Fixed little-endian layout,
/// doubles as IEEE bit patterns (byte-identical round trip). DecodeDelta
/// re-runs ValidateDelta, so a hostile record cannot smuggle NaN/Inf or
/// absurd skill dimensions into market state even if its checksum was
/// forged.
void EncodeDelta(const Delta& delta, std::string* out);
bool DecodeDelta(std::string_view bytes, Delta* delta,
                 std::string* error = nullptr);

}  // namespace mbta

#endif  // MBTA_SERVICE_DELTA_H_
