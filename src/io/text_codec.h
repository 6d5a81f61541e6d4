#ifndef MBTA_IO_TEXT_CODEC_H_
#define MBTA_IO_TEXT_CODEC_H_

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "market/types.h"
#include "util/fault_injector.h"

namespace mbta {

/// The one text codec: every market, assignment, delta-script and
/// snapshot line is read and written here, over whole-buffer string_views
/// with no per-line allocation. io/market_io.h states the grammar.

/// Hard ceilings on untrusted counts, checked before any loop trusts one.
inline constexpr std::uint64_t kMaxEntities = 50'000'000;  // workers, tasks
inline constexpr std::uint64_t kMaxPairs = 500'000'000;    // edges, pairs
inline constexpr std::uint64_t kMaxPending = 10'000'000;   // queued deltas
inline constexpr std::size_t kMaxSkillDims = 4096;         // per skill vector

/// Stores `message` in `*error` when `error` is non-null.
void SetError(std::string* error, std::string_view message);

/// Reads `in` to its end.
std::string ReadAll(std::istream& in);
/// Reads the file at `path` whole into `*text`; false if it cannot.
bool ReadFile(const std::string& path, std::string* text);

/// Yields the trimmed, non-blank, non-'#' lines of a buffer.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// Next content line; false at the end of the buffer.
  bool NextLine(std::string_view* line);
  /// 1-based physical number of the line NextLine last returned.
  std::size_t line_number() const { return line_number_; }

 private:
  std::string_view rest_;
  std::size_t line_number_ = 0;
};

/// A std::from_chars cursor over the whitespace-separated fields of a line.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) : rest_(line) {}

  /// Next field, whatever it spells; false when none is left.
  bool Word(std::string_view* word);
  /// True when the next field is exactly `word`.
  bool Expect(std::string_view word) {
    std::string_view got;
    return Word(&got) && got == word;
  }
  /// Parses the next field, whole, into an integer or a finite double.
  template <typename Number>
    requires std::integral<Number> || std::floating_point<Number>
  bool Take(Number* value) {
    std::string_view word;
    if (!Word(&word)) return false;
    const char* end = word.data() + word.size();
    const std::from_chars_result r = std::from_chars(word.data(), end, *value);
    if (r.ec != std::errc() || r.ptr != end) return false;
    if constexpr (std::floating_point<Number>) return std::isfinite(*value);
    return true;
  }
  /// True when no field is left.
  bool Done() const;
  /// The unread rest of the line.
  std::string_view rest() const { return rest_; }

 private:
  std::string_view rest_;
};

/// Reads the next line as "<keyword> <count>" and enforces `ceiling`.
bool ExpectCount(LineReader& lines, std::string_view keyword,
                 std::uint64_t ceiling, std::size_t* count,
                 std::string* error);
/// Reads the next line as "<keyword> <u64>".
bool ExpectScalar(LineReader& lines, std::string_view keyword,
                  std::uint64_t* value, std::string* error);

/// Reads the `count` lines of a section, firing the "io/read" fault point
/// before each. `parse(line, &why)` returns false on a bad line; the error
/// is then `why`, or "bad <what> line: <line>" when `why` is left empty.
/// A section that ends early is "truncated <what> section".
template <typename Parse>
bool ReadSection(LineReader& lines, std::size_t count, std::string_view what,
                 FaultInjector* faults, std::string* error, Parse parse) {
  std::string_view line;
  std::string why;
  for (std::size_t i = 0; i < count; ++i) {
    MaybeFail(faults, "io/read");
    if (!lines.NextLine(&line)) {
      SetError(error, "truncated " + std::string(what) + " section");
      return false;
    }
    if (!parse(line, &why)) {
      SetError(error, !why.empty() ? why
                                   : "bad " + std::string(what) +
                                         " line: " + std::string(line));
      return false;
    }
  }
  return true;
}

template <std::integral Int>
void AppendNumber(Int value, std::string* out) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  out->append(buf, r.ptr);
}

/// Doubles as "%.17g" (general, precision 17): printf's bytes, and they
/// read back bit-identical.
inline void AppendNumber(double value, std::string* out) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

/// Appends the line "<keyword> <value>", as ExpectCount/ExpectScalar read it.
void AppendKeyword(std::string_view keyword, std::uint64_t value,
                   std::string* out);

/// The range rules of a worker and a task, shared by every reader and by
/// ValidateDelta: finite numerics, non-negative capacity, costs and
/// payments, fatigue in (0, 1], reliability and difficulty in [0, 1], at
/// most kMaxSkillDims finite, non-negative skill weights. On failure,
/// `why` (when non-null) names the broken rule.
bool ValidWorker(const Worker& w, std::string* why = nullptr);
bool ValidTask(const Task& t, std::string* why = nullptr);

/// Parse-and-append pair for the entity fields every format shares,
/// through the end of the line:
///   worker: <capacity> <unit_cost> <fatigue> <reliability> [skill...]
///   task:   <capacity> <payment> <value> <difficulty> <requester> [skill...]
/// Parsing checks spelling only; ranges are ValidWorker's / ValidTask's.
bool ParseWorkerFields(FieldCursor& fields, Worker* w);
bool ParseTaskFields(FieldCursor& fields, Task* t);
void AppendWorkerFields(const Worker& w, std::string* out);
void AppendTaskFields(const Task& t, std::string* out);

}  // namespace mbta

#endif  // MBTA_IO_TEXT_CODEC_H_
