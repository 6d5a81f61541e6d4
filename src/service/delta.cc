#include "service/delta.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "io/text_codec.h"

namespace mbta {

namespace {

/// The text verbs, indexed by DeltaKind.
constexpr const char* kVerbs[] = {
    "unknown",         "add-worker",    "add-task",
    "rm-worker",       "rm-task",       "worker-capacity",
    "task-capacity",   "task-payment",  "task-value"};

// --- little-endian scalar codec -------------------------------------------

void PutU32(std::uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutDouble(double v, std::string* out) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Bounds-checked read cursor over an untrusted byte string.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  bool TakeU8(std::uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool TakeU32(std::uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool TakeU64(std::uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool TakeDouble(double* v) {
    std::uint64_t bits = 0;
    if (!TakeU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

bool TakeSkills(Cursor& cur, SkillVector* skills) {
  std::uint32_t n = 0;
  if (!cur.TakeU32(&n)) return false;
  if (n > kMaxSkillDims) return false;  // ceiling before reserve
  skills->clear();
  skills->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double s = 0.0;
    if (!cur.TakeDouble(&s)) return false;
    skills->push_back(s);
  }
  return true;
}

}  // namespace

const char* ToString(DeltaKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kVerbs) ? kVerbs[k] : "unknown";
}

bool Delta::operator==(const Delta& other) const {
  if (kind != other.kind || id != other.id) return false;
  switch (kind) {
    case DeltaKind::kAddWorker:
      return worker.capacity == other.worker.capacity &&
             worker.unit_cost == other.worker.unit_cost &&
             worker.fatigue == other.worker.fatigue &&
             worker.reliability == other.worker.reliability &&
             worker.skills == other.worker.skills;
    case DeltaKind::kAddTask:
      return task.capacity == other.task.capacity &&
             task.payment == other.task.payment &&
             task.value == other.task.value &&
             task.difficulty == other.task.difficulty &&
             task.requester == other.task.requester &&
             task.required_skills == other.task.required_skills;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      return true;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      return capacity == other.capacity;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      return amount == other.amount;
  }
  return false;
}

bool ValidateDelta(const Delta& delta, std::string* error) {
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      return ValidWorker(delta.worker, error);
    case DeltaKind::kAddTask:
      return ValidTask(delta.task, error);
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      return true;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      if (delta.capacity < 0) {
        SetError(error, "capacity must be >= 0");
        return false;
      }
      return true;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      if (!std::isfinite(delta.amount) || delta.amount < 0.0) {
        SetError(error, "amount must be finite and >= 0");
        return false;
      }
      return true;
  }
  SetError(error, "unknown delta kind");
  return false;
}

void AppendFormattedDelta(const Delta& delta, std::string* out) {
  *out += ToString(delta.kind);
  *out += ' ';
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      AppendNumber(delta.id, out);
      *out += ' ';
      AppendWorkerFields(delta.worker, out);
      return;
    case DeltaKind::kAddTask:
      AppendNumber(delta.id, out);
      *out += ' ';
      AppendTaskFields(delta.task, out);
      return;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      AppendNumber(delta.id, out);
      *out += ' ';
      AppendNumber(delta.capacity, out);
      return;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      AppendNumber(delta.id, out);
      *out += ' ';
      AppendNumber(delta.amount, out);
      return;
  }
  AppendNumber(delta.id, out);  // departures carry the id alone
}

std::string FormatDelta(const Delta& delta) {
  std::string out;
  AppendFormattedDelta(delta, &out);
  return out;
}

std::optional<Delta> ParseDelta(std::string_view line, std::string* error) {
  FieldCursor fields(line);
  std::string_view verb;
  if (!fields.Word(&verb)) {
    SetError(error, "empty delta line");
    return std::nullopt;
  }
  const auto known = std::find(std::begin(kVerbs) + 1, std::end(kVerbs), verb);
  if (known == std::end(kVerbs)) {
    SetError(error, "unknown delta verb: " + std::string(verb));
    return std::nullopt;
  }
  Delta d;
  d.kind = static_cast<DeltaKind>(known - std::begin(kVerbs));
  bool ok = fields.Take(&d.id);
  switch (d.kind) {
    case DeltaKind::kAddWorker:
      ok = ok && ParseWorkerFields(fields, &d.worker);
      break;
    case DeltaKind::kAddTask:
      ok = ok && ParseTaskFields(fields, &d.task);
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      ok = ok && fields.Take(&d.capacity);
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      ok = ok && fields.Take(&d.amount);
      break;
  }
  if (!ok || !fields.Done()) {
    SetError(error, "bad delta line: " + std::string(line));
    return std::nullopt;
  }
  if (!ValidateDelta(d, error)) return std::nullopt;
  return d;
}

std::optional<std::vector<ScriptEntry>> ParseDeltaScript(
    std::string_view text, std::string* error) {
  std::vector<ScriptEntry> entries;
  LineReader lines(text);
  std::string_view line;
  while (lines.NextLine(&line)) {
    ScriptEntry entry;
    if (line == "epoch") {
      entry.epoch = true;
    } else {
      std::string why;
      std::optional<Delta> d = ParseDelta(line, &why);
      if (!d.has_value()) {
        SetError(error,
                 "line " + std::to_string(lines.line_number()) + ": " + why);
        return std::nullopt;
      }
      entry.delta = std::move(*d);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::optional<std::vector<ScriptEntry>> ParseDeltaScript(std::istream& in,
                                                         std::string* error) {
  return ParseDeltaScript(ReadAll(in), error);
}

void EncodeDelta(const Delta& delta, std::string* out) {
  out->push_back(static_cast<char>(delta.kind));
  PutU64(delta.id, out);
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      PutU32(static_cast<std::uint32_t>(delta.worker.capacity), out);
      PutDouble(delta.worker.unit_cost, out);
      PutDouble(delta.worker.fatigue, out);
      PutDouble(delta.worker.reliability, out);
      PutU32(static_cast<std::uint32_t>(delta.worker.skills.size()), out);
      for (double s : delta.worker.skills) PutDouble(s, out);
      break;
    case DeltaKind::kAddTask:
      PutU32(static_cast<std::uint32_t>(delta.task.capacity), out);
      PutDouble(delta.task.payment, out);
      PutDouble(delta.task.value, out);
      PutDouble(delta.task.difficulty, out);
      PutU32(delta.task.requester, out);
      PutU32(static_cast<std::uint32_t>(delta.task.required_skills.size()),
             out);
      for (double s : delta.task.required_skills) PutDouble(s, out);
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      PutU32(static_cast<std::uint32_t>(delta.capacity), out);
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      PutDouble(delta.amount, out);
      break;
  }
}

bool DecodeDelta(std::string_view bytes, Delta* delta, std::string* error) {
  Cursor cur(bytes);
  std::uint8_t kind = 0;
  Delta d;
  bool ok = cur.TakeU8(&kind) && cur.TakeU64(&d.id);
  if (ok && (kind < static_cast<std::uint8_t>(DeltaKind::kAddWorker) ||
             kind > static_cast<std::uint8_t>(DeltaKind::kTaskValue))) {
    SetError(error, "unknown delta kind byte");
    return false;
  }
  if (ok) d.kind = static_cast<DeltaKind>(kind);
  std::uint32_t cap = 0;
  switch (d.kind) {
    case DeltaKind::kAddWorker:
      ok = ok && cur.TakeU32(&cap) && cur.TakeDouble(&d.worker.unit_cost) &&
           cur.TakeDouble(&d.worker.fatigue) &&
           cur.TakeDouble(&d.worker.reliability) &&
           TakeSkills(cur, &d.worker.skills);
      if (ok && cap > static_cast<std::uint32_t>(
                          std::numeric_limits<int>::max())) {
        ok = false;
      }
      if (ok) d.worker.capacity = static_cast<int>(cap);
      break;
    case DeltaKind::kAddTask:
      ok = ok && cur.TakeU32(&cap) && cur.TakeDouble(&d.task.payment) &&
           cur.TakeDouble(&d.task.value) && cur.TakeDouble(&d.task.difficulty) &&
           cur.TakeU32(&d.task.requester) &&
           TakeSkills(cur, &d.task.required_skills);
      if (ok && cap > static_cast<std::uint32_t>(
                          std::numeric_limits<int>::max())) {
        ok = false;
      }
      if (ok) d.task.capacity = static_cast<int>(cap);
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      ok = ok && cur.TakeU32(&cap);
      if (ok && cap > static_cast<std::uint32_t>(
                          std::numeric_limits<int>::max())) {
        ok = false;
      }
      if (ok) d.capacity = static_cast<int>(cap);
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      ok = ok && cur.TakeDouble(&d.amount);
      break;
  }
  if (!ok || !cur.AtEnd()) {
    SetError(error, "malformed delta record");
    return false;
  }
  if (!ValidateDelta(d, error)) return false;
  *delta = std::move(d);
  return true;
}

}  // namespace mbta
