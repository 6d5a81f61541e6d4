#ifndef MBTA_SERVICE_TEXT_CODEC_H_
#define MBTA_SERVICE_TEXT_CODEC_H_

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>

#include "service/delta.h"

namespace mbta {

/// Spelling shared by the delta and state text codecs (internal to
/// src/service). Numbers go through std::to_chars straight into the
/// output string: integers are plain decimal and doubles are "%.17g"
/// (`general`, precision 17), byte for byte what an ostream with
/// setprecision(17) writes — so formatted doubles parse back
/// bit-identical and the canonical state bytes never depend on the codec.
template <std::integral Int>
void AppendNumber(Int value, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  out->append(buf, r.ptr);
}

inline void AppendNumber(double value, std::string* out) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

/// Appends FormatDelta(delta) to `out`.
void AppendFormattedDelta(const Delta& delta, std::string* out);

/// Append the payload of an add-worker / add-task line after its verb:
/// "<id> <capacity> <unit_cost> <fatigue> <reliability> [skill...]" and
/// "<id> <capacity> <payment> <value> <difficulty> <requester> [skill...]".
/// Snapshot entity lines reuse them.
void AppendWorkerFields(std::uint64_t id, const Worker& w, std::string* out);
void AppendTaskFields(std::uint64_t id, const Task& t, std::string* out);

}  // namespace mbta

#endif  // MBTA_SERVICE_TEXT_CODEC_H_
