#ifndef MBTA_IO_MARKET_IO_H_
#define MBTA_IO_MARKET_IO_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "market/assignment.h"
#include "market/labor_market.h"

namespace mbta {

class FaultInjector;

/// Plain-text persistence for markets and assignments.
///
/// Market format (line-oriented, sections in fixed order):
///
///   mbta-market v1
///   name <name>
///   workers <count>
///   w <capacity> <unit_cost> <fatigue> <reliability> <skill...>
///   ...
///   tasks <count>
///   t <capacity> <payment> <value> <difficulty> <requester> <skill...>
///   ...
///   edges <count>
///   e <worker> <task> <quality> <worker_benefit>
///   ...
///
/// Entity ids are implicit (line order). Skill vectors may be empty.
/// Assignment format:
///
///   mbta-assignment v1
///   pairs <count>
///   a <worker> <task>
///   ...
///
/// One grammar covers these and the service's delta scripts and
/// snapshots; io/text_codec.h implements it:
/// - Lines are trimmed of C `isspace`; blank and '#' lines are skipped.
///   The name is what follows "name " (a bare "name" is the empty name).
/// - Fields are whitespace-separated, each consumed whole, and nothing
///   may follow a line's last field.
/// - Capacities are decimal integers; ids, requesters and counts are
///   unsigned ones (no '-'). Other fields are finite doubles in
///   std::from_chars spelling ("0.5", "1e-05"). No field takes a '+', an
///   integer no fraction or exponent, and a double that underflows
///   ("1e-400") is an error. Writers emit "%.17g": doubles round-trip
///   bit-identically.
/// - Ceilings: 50 M workers or tasks, 500 M edges or pairs, 4096 skill
///   dimensions, and no more edges than workers * tasks, so a hostile
///   header cannot drive a pre-allocation.
///
/// Readers check ranges (ValidWorker / ValidTask), reject repeated edges
/// and pairs, and report the first problem, quoting its line, through
/// `error` — files are external input and never abort the process. They
/// accept an optional FaultInjector and fire the "io/read" fault point
/// once per entity line, so tests can script dying reads (see
/// CONTRIBUTING.md "Robustness").

/// Serializes a market.
void WriteMarket(const LaborMarket& market, std::ostream& out);
bool WriteMarketToFile(const LaborMarket& market, const std::string& path,
                       std::string* error = nullptr);

/// Parses a market from a whole buffer; returns std::nullopt and fills
/// `error` on failure.
std::optional<LaborMarket> ReadMarket(std::string_view text,
                                      std::string* error,
                                      FaultInjector* faults = nullptr);
std::optional<LaborMarket> ReadMarketFromFile(const std::string& path,
                                              std::string* error,
                                              FaultInjector* faults = nullptr);

/// Serializes an assignment as (worker, task) pairs of `market`.
void WriteAssignment(const LaborMarket& market, const Assignment& a,
                     std::ostream& out);
bool WriteAssignmentToFile(const LaborMarket& market, const Assignment& a,
                           const std::string& path,
                           std::string* error = nullptr);

/// Parses an assignment against `market`, resolving (worker, task) pairs
/// to edge ids. Fails on unknown pairs or infeasible results.
std::optional<Assignment> ReadAssignment(const LaborMarket& market,
                                         std::string_view text,
                                         std::string* error,
                                         FaultInjector* faults = nullptr);
std::optional<Assignment> ReadAssignmentFromFile(const LaborMarket& market,
                                                 const std::string& path,
                                                 std::string* error,
                                                 FaultInjector* faults = nullptr);

}  // namespace mbta

#endif  // MBTA_IO_MARKET_IO_H_
