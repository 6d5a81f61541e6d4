#include "io/text_codec.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <istream>

namespace mbta {

namespace {

/// C `isspace`: the line rule trims it, fields are separated by it.
constexpr std::string_view kSpace = " \t\r\n\v\f";

bool AllFinite(std::initializer_list<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool ValidSkills(const SkillVector& skills, std::string* why) {
  if (skills.size() > kMaxSkillDims) {
    SetError(why, "skill vector too long");
    return false;
  }
  for (double s : skills) {
    if (!std::isfinite(s) || s < 0.0) {
      SetError(why, "skill weights must be finite and >= 0");
      return false;
    }
  }
  return true;
}

/// Skills run to the end of the line. Past kMaxSkillDims + 1 entries the
/// fields are still spell-checked but no longer stored: the vector is
/// already too long for ValidSkills, and a hostile line may not grow it.
bool ParseSkills(FieldCursor& fields, SkillVector* skills) {
  double v = 0.0;
  while (!fields.Done()) {
    if (!fields.Take(&v)) return false;
    if (skills->size() <= kMaxSkillDims) skills->push_back(v);
  }
  return true;
}

void AppendSkills(const SkillVector& skills, std::string* out) {
  for (double s : skills) {
    *out += ' ';
    AppendNumber(s, out);
  }
}

bool ExpectKeyword(LineReader& lines, std::string_view keyword,
                   std::string_view what, std::uint64_t* value,
                   std::string* error) {
  std::string_view line;
  if (!lines.NextLine(&line)) {
    SetError(error, "unexpected end of file before '" + std::string(keyword) +
                        "'");
    return false;
  }
  FieldCursor fields(line);
  if (fields.Expect(keyword) && fields.Take(value) && fields.Done()) {
    return true;
  }
  SetError(error, "expected '" + std::string(keyword) + " <" +
                      std::string(what) + ">', got: " + std::string(line));
  return false;
}

}  // namespace

void SetError(std::string* error, std::string_view message) {
  if (error != nullptr) error->assign(message);
}

std::string ReadAll(std::istream& in) {
  std::string text;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

bool ReadFile(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  *text = ReadAll(in);
  return !in.bad();
}

bool LineReader::NextLine(std::string_view* line) {
  while (!rest_.empty()) {
    const std::size_t end = std::min(rest_.find('\n'), rest_.size());
    const std::string_view raw = rest_.substr(0, end);
    rest_.remove_prefix(std::min(end + 1, rest_.size()));
    ++line_number_;
    const std::size_t first = raw.find_first_not_of(kSpace);
    if (first == std::string_view::npos || raw[first] == '#') continue;
    *line = raw.substr(first, raw.find_last_not_of(kSpace) - first + 1);
    return true;
  }
  return false;
}

bool FieldCursor::Word(std::string_view* word) {
  rest_.remove_prefix(std::min(rest_.find_first_not_of(kSpace), rest_.size()));
  if (rest_.empty()) return false;
  const std::size_t end = std::min(rest_.find_first_of(kSpace), rest_.size());
  *word = rest_.substr(0, end);
  rest_.remove_prefix(end);
  return true;
}

bool FieldCursor::Done() const {
  return rest_.find_first_not_of(kSpace) == std::string_view::npos;
}

bool ExpectCount(LineReader& lines, std::string_view keyword,
                 std::uint64_t ceiling, std::size_t* count,
                 std::string* error) {
  std::uint64_t n = 0;
  if (!ExpectKeyword(lines, keyword, "count", &n, error)) return false;
  if (n > ceiling) {
    SetError(error, "implausible " + std::string(keyword) + " count " +
                        std::to_string(n) + " (limit " +
                        std::to_string(ceiling) + ")");
    return false;
  }
  *count = static_cast<std::size_t>(n);
  return true;
}

bool ExpectScalar(LineReader& lines, std::string_view keyword,
                  std::uint64_t* value, std::string* error) {
  return ExpectKeyword(lines, keyword, "value", value, error);
}

void AppendKeyword(std::string_view keyword, std::uint64_t value,
                   std::string* out) {
  *out += keyword;
  *out += ' ';
  AppendNumber(value, out);
  *out += '\n';
}

bool ValidWorker(const Worker& w, std::string* why) {
  if (!AllFinite({w.unit_cost, w.fatigue, w.reliability}) ||
      w.capacity < 0 || w.unit_cost < 0.0 || w.fatigue <= 0.0 ||
      w.fatigue > 1.0 || w.reliability < 0.0 || w.reliability > 1.0) {
    SetError(why, "bad worker fields");
    return false;
  }
  return ValidSkills(w.skills, why);
}

bool ValidTask(const Task& t, std::string* why) {
  if (!AllFinite({t.payment, t.value, t.difficulty}) || t.capacity < 0 ||
      t.payment < 0.0 || t.value < 0.0 || t.difficulty < 0.0 ||
      t.difficulty > 1.0) {
    SetError(why, "bad task fields");
    return false;
  }
  return ValidSkills(t.required_skills, why);
}

bool ParseWorkerFields(FieldCursor& fields, Worker* w) {
  return fields.Take(&w->capacity) && fields.Take(&w->unit_cost) &&
         fields.Take(&w->fatigue) && fields.Take(&w->reliability) &&
         ParseSkills(fields, &w->skills);
}

bool ParseTaskFields(FieldCursor& fields, Task* t) {
  return fields.Take(&t->capacity) && fields.Take(&t->payment) &&
         fields.Take(&t->value) && fields.Take(&t->difficulty) &&
         fields.Take(&t->requester) &&
         ParseSkills(fields, &t->required_skills);
}

void AppendWorkerFields(const Worker& w, std::string* out) {
  AppendNumber(w.capacity, out);
  for (double v : {w.unit_cost, w.fatigue, w.reliability}) {
    *out += ' ';
    AppendNumber(v, out);
  }
  AppendSkills(w.skills, out);
}

void AppendTaskFields(const Task& t, std::string* out) {
  AppendNumber(t.capacity, out);
  for (double v : {t.payment, t.value, t.difficulty}) {
    *out += ' ';
    AppendNumber(v, out);
  }
  *out += ' ';
  AppendNumber(t.requester, out);
  AppendSkills(t.required_skills, out);
}

}  // namespace mbta
