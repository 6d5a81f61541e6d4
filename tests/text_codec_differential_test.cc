// Differential check of the one text codec (io/text_codec.h) against the
// istringstream readers and ostream writers it replaced
// (tests/reference_text_readers.h), over a fixed corpus in all four text
// formats: markets, assignments, delta scripts and service snapshots.
//
// The corpus is every generator preset, service-written delta scripts
// and snapshots, market_io_fuzz_test's seeded line-drop, duplicate,
// truncate and byte-mutation families applied to each format, and a
// hostile family with one exemplar per spelling the old readers
// misread. On every input both versions must agree on accept/reject,
// error text and the bits of what they read, unless the disagreement
// belongs to one of the declared classes below; the test attributes each
// disagreement and fails on any it cannot attribute.

#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "gen/market_generator.h"
#include "io/market_io.h"
#include "io/text_codec.h"
#include "service/delta.h"
#include "service/market_service.h"
#include "service/snapshot.h"
#include "service/state.h"
#include "tests/reference_text_readers.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace mbta {
namespace {

enum class Format { kMarket, kAssignment, kScript, kSnapshot };

/// Why the two readers may disagree. Each class is a spelling the old
/// readers accepted by reading part of a field, or (kUntrimmed) a line
/// the old market reader did not trim.
enum Class {
  kFraction,       ///< fraction or exponent in an integer field: "3.5"
  kMinusUnsigned,  ///< '-' in an unsigned field, which the old one wrapped
  kLeadingPlus,    ///< a leading '+'
  kOutOfRange,     ///< a double that underflows, such as "1e-400"
  kUntrimmed,      ///< a market/assignment line with outer whitespace
  kRunOn,          ///< a number run into more text: "0.5.3", "25Xw"
  kExtraFields,    ///< fields after an edge/pair/count line's last one
  kCeilingWording,  ///< over-ceiling count, which the old readers worded
                    ///< apart: "(max N)" in snapshots, and a count of
                    ///< 2^63 or more was an "expected" error
  kNumClasses,
};

constexpr const char* kClassNames[kNumClasses] = {
    "fraction/exponent in an integer field",
    "'-' in an unsigned field",
    "leading '+'",
    "out-of-range double",
    "untrimmed market/assignment line",
    "number run into more text",
    "fields after the last one of an edge/pair/count line",
    "over-ceiling count worded as in markets",
};

/// One reader's verdict: accept/reject, the error, and a bit-exact dump
/// of what was read.
struct Outcome {
  bool ok = false;
  std::string error;
  std::string dump;
  bool operator==(const Outcome&) const = default;
};

void PutBits(double v, std::string* out) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf,
                               std::bit_cast<std::uint64_t>(v), 16);
  out->append(buf, r.ptr);
  *out += ' ';
}

void PutInt(std::uint64_t v, std::string* out) {
  *out += std::to_string(v);
  *out += ' ';
}

void DumpWorker(const Worker& w, std::string* out) {
  *out += std::to_string(w.capacity) + ' ';
  for (double v : {w.unit_cost, w.fatigue, w.reliability}) PutBits(v, out);
  *out += "| ";
  for (double s : w.skills) PutBits(s, out);
  *out += '\n';
}

void DumpTask(const Task& t, std::string* out) {
  *out += std::to_string(t.capacity) + ' ';
  for (double v : {t.payment, t.value, t.difficulty}) PutBits(v, out);
  PutInt(t.requester, out);
  *out += "| ";
  for (double s : t.required_skills) PutBits(s, out);
  *out += '\n';
}

std::string DumpMarket(const LaborMarket& m) {
  std::string out = "name[" + m.name() + "]\n";
  for (const Worker& w : m.workers()) DumpWorker(w, &out);
  for (const Task& t : m.tasks()) DumpTask(t, &out);
  for (EdgeId e = 0; e < m.NumEdges(); ++e) {
    PutInt(m.EdgeWorker(e), &out);
    PutInt(m.EdgeTask(e), &out);
    PutBits(m.Quality(e), &out);
    PutBits(m.WorkerBenefit(e), &out);
    out += '\n';
  }
  return out;
}

void DumpDelta(const Delta& d, std::string* out) {
  PutInt(static_cast<std::uint64_t>(d.kind), out);
  PutInt(d.id, out);
  switch (d.kind) {
    case DeltaKind::kAddWorker:
      DumpWorker(d.worker, out);
      return;
    case DeltaKind::kAddTask:
      DumpTask(d.task, out);
      return;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      *out += std::to_string(d.capacity) + ' ';
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      PutBits(d.amount, out);
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
  }
  *out += '\n';
}

std::string DumpState(const ServiceState& s) {
  std::string out;
  for (std::uint64_t v : {s.epoch, s.wal_records, s.reference_bits}) {
    PutInt(v, &out);
  }
  out += '\n';
  for (const StableWorker& w : s.workers) {
    PutInt(w.id, &out);
    DumpWorker(w.worker, &out);
  }
  for (const StableTask& t : s.tasks) {
    PutInt(t.id, &out);
    DumpTask(t.task, &out);
  }
  for (const StablePair& p : s.pairs) {
    PutInt(p.worker, &out);
    PutInt(p.task, &out);
  }
  out += '\n';
  for (const Delta& d : s.pending) DumpDelta(d, &out);
  return out;
}

template <typename T, typename Dump>
Outcome Verdict(const std::optional<T>& value, const std::string& error,
                Dump dump) {
  Outcome o;
  o.ok = value.has_value();
  if (o.ok) {
    o.dump = dump(*value);
  } else {
    o.error = error;
  }
  return o;
}

std::string DumpScript(const std::vector<ScriptEntry>& entries) {
  std::string out;
  for (const ScriptEntry& e : entries) {
    if (e.epoch) {
      out += "epoch\n";
    } else {
      DumpDelta(e.delta, &out);
    }
  }
  return out;
}

std::string DumpAssignment(const Assignment& a) {
  std::string out;
  for (EdgeId e : a.edges) PutInt(e, &out);
  return out;
}

/// Each test has its own file: ctest runs them in parallel.
std::string SnapshotPath(const char* test = "read") {
  return (std::filesystem::temp_directory_path() /
          (std::string("mbta_text_codec_differential_") + test + ".snap"))
      .string();
}

/// The reader under test on one input. Snapshots go through the file
/// reader, so the trailer check is covered too.
Outcome ReadNew(Format format, const std::string& text,
                const LaborMarket& market) {
  std::string error;
  switch (format) {
    case Format::kMarket:
      return Verdict(ReadMarket(text, &error), error,
                     DumpMarket);
    case Format::kAssignment:
      return Verdict(ReadAssignment(market, text, &error),
                     error, DumpAssignment);
    case Format::kScript:
      return Verdict(ParseDeltaScript(text, &error), error,
                     DumpScript);
    case Format::kSnapshot: {
      std::FILE* f = std::fopen(SnapshotPath().c_str(), "wb");
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      return Verdict(ReadSnapshot(SnapshotPath(), &error), error, DumpState);
    }
  }
  return {};
}

Outcome ReadOld(Format format, const std::string& text,
                const LaborMarket& market) {
  std::string error;
  std::istringstream in(text);
  switch (format) {
    case Format::kMarket:
      return Verdict(reference::ReadMarket(in, &error), error, DumpMarket);
    case Format::kAssignment:
      return Verdict(reference::ReadAssignment(market, in, &error), error,
                     DumpAssignment);
    case Format::kScript:
      return Verdict(reference::ParseDeltaScript(in, &error), error,
                     DumpScript);
    case Format::kSnapshot:
      return Verdict(
          reference::ReadSnapshotContents(text, SnapshotPath(), &error),
          error, DumpState);
  }
  return {};
}

// --- attribution ---------------------------------------------------------

enum class Field { kWord, kInt, kUnsigned, kDouble };

struct Schema {
  std::vector<Field> fields;
  bool skills = false;  ///< doubles may follow the fixed fields
  /// The old reader checked nothing follows the last field.
  bool checked_end = true;
};

std::vector<std::string_view> Split(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t at = 0;
  while (true) {
    at = line.find_first_not_of(" \t\r\n\v\f", at);
    if (at == std::string_view::npos) return words;
    const std::size_t end =
        std::min(line.find_first_of(" \t\r\n\v\f", at), line.size());
    words.push_back(line.substr(at, end - at));
    at = end;
  }
}

constexpr Field W = Field::kWord, I = Field::kInt, U = Field::kUnsigned,
                D = Field::kDouble;

std::optional<Schema> DeltaSchema(std::string_view verb,
                                  std::vector<Field> prefix) {
  Schema s{std::move(prefix), false, true};
  const auto add = [&s](std::initializer_list<Field> f) {
    s.fields.insert(s.fields.end(), f);
  };
  if (verb == "add-worker") {
    add({W, U, I, D, D, D});
    s.skills = true;
  } else if (verb == "add-task") {
    add({W, U, I, D, D, D, U});
    s.skills = true;
  } else if (verb == "rm-worker" || verb == "rm-task") {
    add({W, U});
  } else if (verb == "worker-capacity" || verb == "task-capacity") {
    add({W, U, I});
  } else if (verb == "task-payment" || verb == "task-value") {
    add({W, U, D});
  } else {
    return std::nullopt;
  }
  return s;
}

std::optional<Schema> SchemaOf(Format format, std::string_view line) {
  const std::vector<std::string_view> words = Split(line);
  if (words.empty()) return std::nullopt;
  const std::string_view tag = words[0];
  switch (format) {
    case Format::kMarket:
    case Format::kAssignment:
      if (tag == "workers" || tag == "tasks" || tag == "edges" ||
          tag == "pairs") {
        return Schema{{W, U}, false, false};
      }
      if (tag == "w") return Schema{{W, I, D, D, D}, true, true};
      if (tag == "t") return Schema{{W, I, D, D, D, U}, true, true};
      if (tag == "e") return Schema{{W, U, U, D, D}, false, false};
      if (tag == "a") return Schema{{W, U, U}, false, false};
      return std::nullopt;
    case Format::kScript:
      return DeltaSchema(tag, {});
    case Format::kSnapshot:
      if (tag == "epoch" || tag == "wal_records" || tag == "reference" ||
          tag == "workers" || tag == "tasks" || tag == "pairs" ||
          tag == "pending" || tag == "checksum") {
        return Schema{{W, U}, false, true};
      }
      if (tag == "w") return Schema{{W, U, I, D, D, D}, true, true};
      if (tag == "t") return Schema{{W, U, I, D, D, D, U}, true, true};
      if (tag == "a") return Schema{{W, U, U}, false, true};
      if (tag == "d" && words.size() > 1) return DeltaSchema(words[1], {W});
      return std::nullopt;
  }
  return std::nullopt;
}

/// The declared class of the first field of `line` the new grammar
/// rejects where the old reader read something.
std::optional<Class> Classify(Format format, std::string_view line) {
  const std::optional<Schema> schema = SchemaOf(format, line);
  if (!schema.has_value()) return std::nullopt;
  const std::vector<std::string_view> words = Split(line);
  for (std::size_t i = 0; i < words.size(); ++i) {
    Field type = Field::kDouble;
    if (i < schema->fields.size()) {
      type = schema->fields[i];
    } else if (!schema->skills) {
      return schema->checked_end ? std::nullopt
                                 : std::optional<Class>(kExtraFields);
    }
    const std::string_view word = words[i];
    const char* end = word.data() + word.size();
    if (type == Field::kWord) continue;
    if (word.front() == '+') return kLeadingPlus;
    if (type == Field::kUnsigned && word.front() == '-') return kMinusUnsigned;
    if (type == Field::kDouble) {
      double v = 0.0;
      const auto r = std::from_chars(word.data(), end, v);
      if (r.ec == std::errc::result_out_of_range && r.ptr == end) {
        return kOutOfRange;
      }
      if (r.ec == std::errc() && r.ptr != end) return kRunOn;
      continue;
    }
    long long v = 0;
    const auto r = std::from_chars(word.data(), end, v);
    if (r.ec == std::errc() && r.ptr != end) {
      const char next = *r.ptr;
      return next == '.' || next == 'e' || next == 'E' ? kFraction : kRunOn;
    }
  }
  return std::nullopt;
}

/// The line a new-reader error quotes, if it quotes one.
std::optional<std::string> QuotedLine(const std::string& error) {
  for (const char* prefix :
       {"bad worker line: ", "bad task line: ", "bad edge line: ",
        "duplicate edge: ", "bad pair line: ", "pair is not an eligible edge: ",
        "bad delta line: ", "bad pending line: ",
        "pair references unknown entity: ", "', got: "}) {
    const std::size_t at = error.find(prefix);
    if (at != std::string::npos) {
      return error.substr(at + std::string_view(prefix).size());
    }
  }
  return std::nullopt;
}

/// Each line trimmed the way the new reader trims it, with the bare
/// "name" line (the trimmed spelling of an empty name) as the old writer
/// spelled it.
std::string Trimmed(const std::string& text) {
  std::string out;
  std::size_t at = 0;
  int content_lines = 0;
  while (at <= text.size()) {
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    std::string_view line(text.data() + at, nl - at);
    const std::size_t first = line.find_first_not_of(" \t\r\n\v\f");
    if (first == std::string_view::npos) {
      line = {};
    } else {
      line = line.substr(first, line.find_last_not_of(" \t\r\n\v\f") -
                                    first + 1);
      if (line.front() != '#') ++content_lines;
    }
    out += line;
    if (content_lines == 2 && line == "name") out += ' ';
    if (nl == text.size()) break;
    out += '\n';
    at = nl + 1;
  }
  return out;
}

/// Whether two rejections differ only in how an over-ceiling count is
/// worded: the new "implausible <kw> count <n> (limit <c>)" against the
/// old snapshot's "(max <c>)", or against an old "expected" error for a
/// count too large for a long long.
bool CeilingWording(std::string now, std::string old) {
  const std::string wrap = "snapshot parse error: ";
  if (now.starts_with(wrap) && old.starts_with(wrap)) {
    now.erase(0, wrap.size());
    old.erase(0, wrap.size());
  }
  if (!now.starts_with("implausible ")) return false;
  std::string as_old = now;
  as_old.replace(as_old.find("(limit "), 7, "(max ");
  if (as_old == old) return true;
  const std::size_t at = now.find(" count ") + 7;
  const std::string n = now.substr(at, now.find(' ', at) - at);
  const std::string keyword = now.substr(12, at - 7 - 12);
  const std::string line = keyword + " " + n;
  return old == "expected '" + keyword + " <count>', got: " + line &&
         std::stoull(n) > 9223372036854775807ull;
}

std::optional<Class> Attribute(Format format, const std::string& text,
                               const Outcome& now, const Outcome& old,
                               const LaborMarket& market) {
  if (!now.ok && !old.ok && CeilingWording(now.error, old.error)) {
    return kCeilingWording;
  }
  if ((format == Format::kMarket || format == Format::kAssignment) &&
      ReadOld(format, Trimmed(text), market) == now) {
    return kUntrimmed;
  }
  if (now.ok) return std::nullopt;
  if (format == Format::kSnapshot &&
      now.error.starts_with("snapshot has malformed checksum trailer")) {
    const std::size_t at = text.rfind("checksum ");
    return Classify(format, std::string_view(text).substr(at));
  }
  const std::optional<std::string> line = QuotedLine(now.error);
  if (!line.has_value()) return std::nullopt;
  return Classify(format, *line);
}

// --- corpus --------------------------------------------------------------

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string ReplaceLine(const std::string& text, std::size_t index,
                        const std::string& line) {
  std::vector<std::string> lines = SplitLines(text);
  lines.at(index) = line;
  return JoinLines(lines);
}

std::string Sealed(const std::string& body) {
  return body + "checksum " + std::to_string(Crc32(body)) + "\n";
}

std::string MarketText(const LaborMarket& m) {
  std::ostringstream out;
  reference::WriteMarket(m, out);
  return out.str();
}

/// A hand-built market with subnormal, "1e-05"-style and empty-name
/// spellings.
LaborMarket EdgeValueMarket(const std::string& name) {
  LaborMarketBuilder b;
  b.SetName(name);
  Worker w;
  w.capacity = 2;
  w.unit_cost = 1e-05;
  w.fatigue = 0.5;
  w.reliability = 4.9406564584124654e-324;
  w.skills = {2.2250738585072014e-308, 1e-300, 0.1, 123456789.125};
  b.AddWorker(w);
  w.unit_cost = 0.0;
  w.skills = {0.0, 0.0, 0.5, 1.0};
  b.AddWorker(w);
  Task t;
  t.capacity = 3;
  t.payment = 1e-05;
  t.value = 1e22;
  t.difficulty = 9.8813129168249309e-324;
  t.requester = 4294967295u;
  t.required_skills = {0.30000000000000004, 1e-07, 0.0, 5e-324};
  b.AddTask(t);
  Task plain;
  plain.required_skills = {1.0, 0.0, 0.0, 0.0};
  b.AddTask(plain);
  b.AddEdge(0, 0, EdgeAttributes{1e-05, 5e-324});
  b.AddEdge(0, 1, EdgeAttributes{1.0, 0.0});
  b.AddEdge(1, 1, EdgeAttributes{0.1, 1e300});
  return b.Build();
}

std::vector<LaborMarket> BaseMarkets() {
  std::vector<LaborMarket> markets;
  for (std::uint64_t seed : {1, 2}) {
    markets.push_back(GenerateMarket(UniformConfig(8, 7, seed)));
    markets.push_back(GenerateMarket(ZipfConfig(8, 7, seed)));
    markets.push_back(GenerateMarket(MTurkLikeConfig(10, seed)));
    markets.push_back(GenerateMarket(UpworkLikeConfig(10, seed)));
  }
  markets.push_back(EdgeValueMarket("edge-values"));
  markets.push_back(EdgeValueMarket(""));
  return markets;
}

/// A delta script over `m`'s entities: arrivals, an epoch, then churn
/// of every kind with epochs between.
std::vector<ScriptEntry> ScriptEntries(const LaborMarket& m,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptEntry> entries;
  for (const Worker& w : m.workers()) {
    ScriptEntry& e = entries.emplace_back();
    e.delta.kind = DeltaKind::kAddWorker;
    e.delta.id = 1 + w.id;
    e.delta.worker = w;
  }
  for (const Task& t : m.tasks()) {
    ScriptEntry& e = entries.emplace_back();
    e.delta.kind = DeltaKind::kAddTask;
    e.delta.id = 1000 + t.id;
    e.delta.task = t;
  }
  entries.emplace_back().epoch = true;
  for (int i = 0; i < 12; ++i) {
    Delta& d = entries.emplace_back().delta;
    d.kind = static_cast<DeltaKind>(3 + rng.NextBounded(6));
    const bool worker = d.kind == DeltaKind::kRemoveWorker ||
                        d.kind == DeltaKind::kWorkerCapacity;
    d.id = worker ? 1 + rng.NextBounded(m.NumWorkers())
                  : 1000 + rng.NextBounded(m.NumTasks());
    d.capacity = static_cast<int>(rng.NextBounded(4));
    d.amount = rng.NextDouble(0.0, 3.0);
    if (i % 4 == 3) entries.emplace_back().epoch = true;
  }
  return entries;
}

std::string FormatScript(const std::vector<ScriptEntry>& entries) {
  std::string out;
  for (const ScriptEntry& e : entries) {
    out += e.epoch ? std::string("epoch") : FormatDelta(e.delta);
    out += '\n';
  }
  return out;
}

/// The script as a file: with a comment line and a blank line.
std::string ScriptText(const LaborMarket& m, std::uint64_t seed) {
  return "# script over " + m.name() + "\n" +
         FormatScript(ScriptEntries(m, seed)) + "\n# end\n";
}

/// Runs a MarketService over `script` and returns its serialized state,
/// with the deltas after the last-but-one epoch left pending.
std::string ServiceStateText(const std::string& script) {
  std::string error;
  const std::optional<std::vector<ScriptEntry>> entries =
      ParseDeltaScript(script, &error);
  EXPECT_TRUE(entries.has_value()) << error;
  MarketService service(ServiceConfig{});
  EXPECT_TRUE(service.Start(&error)) << error;
  for (const ScriptEntry& e : *entries) {
    if (!e.epoch) {
      service.Submit(e.delta);
    } else if (&e != &entries->back()) {
      EXPECT_TRUE(service.RunEpoch(&error)) << error;
    }
  }
  return SerializeServiceState(service.state());
}

struct Input {
  Format format;
  std::string text;
  std::size_t market = 0;  ///< index into the base markets
  std::string family;
};

struct Corpus {
  std::vector<LaborMarket> markets = BaseMarkets();
  std::vector<Input> inputs;

  Corpus() {
    std::vector<Input> bases;
    for (std::size_t i = 0; i < markets.size(); ++i) {
      const LaborMarket& m = markets[i];
      const std::string script = ScriptText(m, 40 + i);
      std::ostringstream assignment;
      reference::WriteAssignment(m, GreedySolver().Solve({&m, {}}),
                                 assignment);
      bases.push_back({Format::kMarket, MarketText(m), i, "base"});
      bases.push_back({Format::kAssignment, assignment.str(), i, "base"});
      bases.push_back({Format::kScript, script, i, "base"});
      bases.push_back(
          {Format::kSnapshot, ServiceStateText(script), i, "base"});
    }
    for (const Input& b : bases) {
      inputs.push_back(b);
      if (b.format == Format::kSnapshot) inputs.back().text = Sealed(b.text);
    }
    // market_io_fuzz_test's families, with its seeds, over every format.
    // Snapshot bodies are resealed so the mutation reaches the parser.
    constexpr std::uint64_t kSeedsPerFamily = 80;
    for (Format format : {Format::kMarket, Format::kAssignment,
                          Format::kScript, Format::kSnapshot}) {
      std::vector<const Input*> of_format;
      for (const Input& b : bases) {
        if (b.format == format) of_format.push_back(&b);
      }
      for (std::uint64_t seed = 0; seed < kSeedsPerFamily; ++seed) {
        const Input& base = *of_format[seed % of_format.size()];
        const auto add = [&](std::string family, std::string text) {
          if (format == Format::kSnapshot) text = Sealed(text);
          inputs.push_back({format, std::move(text), base.market,
                            std::move(family)});
        };
        {
          Rng rng(seed * 7 + 1);
          auto lines = SplitLines(base.text);
          const std::size_t drops = 1 + rng.NextBounded(5);
          for (std::size_t i = 0; i < drops && !lines.empty(); ++i) {
            lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                            rng.NextBounded(lines.size())));
          }
          add("drop", JoinLines(lines));
        }
        {
          Rng rng(seed * 11 + 2);
          auto lines = SplitLines(base.text);
          const std::size_t idx = rng.NextBounded(lines.size());
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(idx),
                       lines[idx]);
          add("duplicate", JoinLines(lines));
        }
        {
          Rng rng(seed * 13 + 3);
          add("truncate",
              base.text.substr(0, rng.NextBounded(base.text.size())));
        }
        {
          Rng rng(seed * 17 + 4);
          std::string text = base.text;
          const std::size_t mutations = 1 + rng.NextBounded(20);
          for (std::size_t i = 0; i < mutations; ++i) {
            text[rng.NextBounded(text.size())] =
                static_cast<char>(32 + rng.NextBounded(95));
          }
          add("mutate", std::move(text));
        }
      }
    }
    AddHostile();
    AddBoundary();
  }

  /// One exemplar per declared class and format, on the edge-value
  /// market (index markets.size() - 2) and its script and snapshot.
  /// Inputs both readers must treat alike: each range rule broken once,
  /// ceilings, and sections with two different repeats, so the first in
  /// line order is the one reported.
  void AddBoundary() {
    const std::size_t mi = markets.size() - 2;
    const std::string market = MarketText(markets[mi]);
    const auto market_case = [&](std::size_t line, const std::string& text) {
      inputs.push_back(
          {Format::kMarket, ReplaceLine(market, line, text), mi, "boundary"});
    };
    for (const char* w :
         {"w -1 0 0.5 0.5", "w 1 -0.1 0.5 0.5", "w 1 0 0 0.5",
          "w 1 0 1.0000000000000002 0.5", "w 1 0 0.5 -0.1", "w 1 0 0.5 1.1",
          "w 1 0 0.5 0.5 -0.5", "w 0 0 1 0 0 0 0 0",
          "w 1 0 4.9406564584124654e-324 1 0 0 0 0", "w 99999999999 0 1 1"}) {
      market_case(4, w);
    }
    for (const char* t :
         {"t -1 0 1 0 0", "t 1 -1 1 0 0", "t 1 0 -1 0 0", "t 1 0 1 -0.1 0",
          "t 1 0 1 1.5 0", "t 1 0 1 1 4294967296", "t 0 0 0 1 4294967295",
          "t 1 0 1 0.5 0 nan"}) {
      market_case(7, t);
    }
    for (const char* e :
         {"e 0 0 1.5 0.5", "e 0 0 -0.1 0.5", "e 0 0 0.5 -1", "e 2 0 0.5 0.5",
          "e 0 2 0.5 0.5", "e 1 0 1 0", "e 0 0 inf 1"}) {
      market_case(11, e);
    }
    market_case(8, "edges 5");
    market_case(2, "workers 50000001");
    market_case(2, "workers 10000000000000000000");
    std::string long_line = "w 1 0 1 1";
    for (std::size_t i = 0; i <= kMaxSkillDims; ++i) long_line += " 0";
    market_case(4, long_line);
    // Two different repeated pairs; row order would find (0, 1) first.
    inputs.push_back({Format::kMarket,
                      "mbta-market v1\nname x\nworkers 2\nw 1 0 1 1\n"
                      "w 1 0 1 1\ntasks 2\nt 1 0 1 0 0\nt 1 0 1 0 0\n"
                      "edges 4\ne 1 1 0.5 0.5\ne 0 1 0.5 0.5\n"
                      "e 1 1 0.5 0.5\ne 0 1 0.5 0.5\n",
                      mi, "boundary"});

    for (const std::string& line : std::vector<std::string>{
             "add-worker 9 1 0 0 1", "add-worker 9 1 0 1 1.5",
          "add-task 9 1 0 1 2 0", "worker-capacity 1 -1",
          "task-payment 1000 -1",
          "task-value 1000 nan", "add-worker 9 1 0 1 1 -1", "launch 1",
          "add-task 9 1 0 1 0.5 4294967296", "rm-task", "epoch 1",
          "add-worker 9" + long_line.substr(1)}) {
      inputs.push_back({Format::kScript, line + "\nepoch\n", mi, "boundary"});
    }

    const std::string body = ServiceStateText(ScriptText(markets[0], 7));
    const std::vector<std::string> lines = SplitLines(body);
    std::vector<std::size_t> w_lines, t_lines, a_lines;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].starts_with("w ")) w_lines.push_back(i);
      if (lines[i].starts_with("t ")) t_lines.push_back(i);
      if (lines[i].starts_with("a ")) a_lines.push_back(i);
    }
    ASSERT_GE(w_lines.size(), 4u);
    ASSERT_GE(t_lines.size(), 4u);
    ASSERT_GE(a_lines.size(), 2u);
    const auto snapshot_case = [&](std::vector<std::string> edited) {
      inputs.push_back({Format::kSnapshot, Sealed(JoinLines(edited)), 0,
                        "boundary"});
    };
    const auto with_id = [](const std::string& line, const std::string& id) {
      const std::size_t sp = line.find(' ', 2);
      return line.substr(0, 2) + id + line.substr(sp);
    };
    std::vector<std::string> e = lines;
    // Repeats of ids 77 and 55, with 77's repeat first in line order.
    e[w_lines[0]] = with_id(e[w_lines[0]], "77");
    e[w_lines[1]] = with_id(e[w_lines[1]], "55");
    e[w_lines[2]] = with_id(e[w_lines[2]], "77");
    e[w_lines[3]] = with_id(e[w_lines[3]], "55");
    snapshot_case(e);
    e = lines;
    // Repeats of ids 5 and 9, the smaller id's first in line order.
    e[t_lines[0]] = with_id(e[t_lines[0]], "5");
    e[t_lines[1]] = with_id(e[t_lines[1]], "5");
    e[t_lines[2]] = with_id(e[t_lines[2]], "9");
    e[t_lines[3]] = with_id(e[t_lines[3]], "9");
    snapshot_case(e);
    e = lines;
    std::swap(e[a_lines[0]], e[a_lines[1]]);
    snapshot_case(e);
    e = lines;
    e[a_lines[0]] = "a 123456 1000";
    snapshot_case(e);
    e = lines;
    e[w_lines[0]] = e[w_lines[0]].substr(0, e[w_lines[0]].find(' ', 2)) +
                    " 1 0 0 1";
    snapshot_case(e);
    e = lines;
    for (std::string& l : e) {
      if (l.starts_with("pending ")) l = "pending 10000001";
    }
    snapshot_case(e);
  }

  void AddHostile() {
    const std::size_t mi = markets.size() - 2;
    const std::string market = MarketText(markets[mi]);
    const auto market_case = [&](std::size_t line, const std::string& text) {
      inputs.push_back(
          {Format::kMarket, ReplaceLine(market, line, text), mi, "hostile"});
    };
    // Lines: 0 header, 1 name, 2 workers, 3-4 w, 5 tasks, 6-7 t, 8 edges,
    // 9-11 e.
    market_case(3, "w 3.5 1 0.5 0.5");
    market_case(4, "w 1e0 0 0.5 0.5");
    market_case(6, "t 1.5 0.5 1 0.5 0");
    market_case(7, "t 1 0.5 1 0.5 -1");
    market_case(9, "e 0 1.5 0.5 0.5");
    market_case(9, "e 0 0 0.5 0.5 7");
    market_case(10, "e 0 1 0.5.3 0.5");
    market_case(4, "w +1 0 0.5 0.5");
    market_case(4, "w 1 0 0.5 0.5 1e-400");
    market_case(2, "workers 2 junk");
    market_case(2, "workers 2x");
    market_case(2, "workers 2.0");
    market_case(0, "mbta-market v1   ");
    market_case(4, "  w 1 0 0.5 0.5");
    market_case(1, "name");

    const LaborMarket& m = markets[mi];
    std::ostringstream assignment;
    Assignment a;
    a.edges = {0, 2};
    reference::WriteAssignment(m, a, assignment);
    for (const char* line : {"a 0 0.5", "a 1 1 1", "a +1 1", "a 1 1x",
                             " a 1 1"}) {
      inputs.push_back({Format::kAssignment,
                        ReplaceLine(assignment.str(), 3, line), mi,
                        "hostile"});
    }
    inputs.push_back({Format::kAssignment,
                      ReplaceLine(assignment.str(), 1, "pairs 2.5"), mi,
                      "hostile"});

    for (const char* line :
         {"add-task 7 2.5 1 1 0.5 0 1", "add-worker 9 2.5 0.1 0.9 0.8",
          "add-worker -1 1 0 1 1", "rm-worker -1", "add-task 8 1 1 1 0.5 -2",
          "add-worker 9 +1 0 1 1", "task-payment 3 1e-400",
          "add-worker 9 1 0 1 1 0.5.5", "worker-capacity 5 2.5"}) {
      inputs.push_back({Format::kScript,
                        std::string("add-worker 1 1 0 1 1\nepoch\n") + line +
                            "\nepoch\n",
                        mi, "hostile"});
    }

    // A snapshot that still holds tasks and pairs after its churn.
    const std::string body = ServiceStateText(ScriptText(markets[0], 7));
    const std::vector<std::string> lines = SplitLines(body);
    const auto snapshot_case = [&](std::string_view tag,
                                   const std::string& text) {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].starts_with(tag)) {
          inputs.push_back({Format::kSnapshot,
                            Sealed(ReplaceLine(body, i, text)), 0,
                            "hostile"});
          return;
        }
      }
      ADD_FAILURE() << "no line starting '" << tag << "'";
    };
    snapshot_case("w ", "w 1 2.5 0.1 0.9 0.8");
    snapshot_case("t ", "t 1000 2.5 1 1 0.5 0 1");
    snapshot_case("t ", "t -1000 1 1 1 0.5 0");
    snapshot_case("a ", "a -1 1000");
    snapshot_case("pairs ", "pairs -0");
    snapshot_case("epoch ", "epoch +1");
    snapshot_case("w ", "w 1 1 0 1 1 1e-400");
    inputs.push_back({Format::kSnapshot,
                      body + "checksum +" + std::to_string(Crc32(body)) + "\n",
                      0, "hostile"});
  }
};

TEST(TextCodecDifferentialTest, ReadersAgreeOutsideTheDeclaredClasses) {
  const Corpus corpus;
  ASSERT_GE(corpus.inputs.size(), 1200u);
  std::size_t counts[kNumClasses] = {};
  std::size_t agreed = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < corpus.inputs.size(); ++i) {
    const Input& input = corpus.inputs[i];
    const LaborMarket& market = corpus.markets[input.market];
    const Outcome now = ReadNew(input.format, input.text, market);
    const Outcome old = ReadOld(input.format, input.text, market);
    accepted += now.ok ? 1 : 0;
    if (now == old) {
      ++agreed;
      continue;
    }
    const std::optional<Class> why =
        Attribute(input.format, input.text, now, old, market);
    if (why.has_value()) {
      ++counts[*why];
      continue;
    }
    ADD_FAILURE() << "unattributed disagreement on input " << i << " ("
                  << input.family << ", format "
                  << static_cast<int>(input.format) << ")\nnew: "
                  << (now.ok ? "accepted" : now.error)
                  << "\nold: " << (old.ok ? "accepted" : old.error)
                  << "\ninput:\n"
                  << input.text;
  }
  std::remove(SnapshotPath().c_str());
  std::printf("%zu inputs: %zu agree (%zu accepted by the new reader)\n",
              corpus.inputs.size(), agreed, accepted);
  for (int c = 0; c < kNumClasses; ++c) {
    std::printf("  %-55s %zu\n", kClassNames[c], counts[c]);
  }
  // The hostile family exercises every class.
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_GT(counts[c], 0u) << kClassNames[c];
  }
}

TEST(TextCodecDifferentialTest, WritersMatchTheOstreamWriters) {
  for (const LaborMarket& m : BaseMarkets()) {
    std::ostringstream now;
    WriteMarket(m, now);
    EXPECT_EQ(now.str(), MarketText(m)) << m.name();
    const Assignment a = GreedySolver().Solve({&m, {}});
    std::ostringstream now_a;
    std::ostringstream old_a;
    WriteAssignment(m, a, now_a);
    reference::WriteAssignment(m, a, old_a);
    EXPECT_EQ(now_a.str(), old_a.str()) << m.name();
  }
}

TEST(TextCodecDifferentialTest, WriteReadWriteIsByteIdentical) {
  for (const LaborMarket& m : BaseMarkets()) {
    std::ostringstream first;
    WriteMarket(m, first);
    std::string error;
    const std::optional<LaborMarket> read =
        ReadMarket(first.str(), &error);
    ASSERT_TRUE(read.has_value()) << error;
    std::ostringstream second;
    WriteMarket(*read, second);
    EXPECT_EQ(second.str(), first.str()) << m.name();

    const Assignment a = GreedySolver().Solve({&m, {}});
    std::ostringstream a1;
    WriteAssignment(m, a, a1);
    const std::optional<Assignment> ra =
        ReadAssignment(m, a1.str(), &error);
    ASSERT_TRUE(ra.has_value()) << error;
    std::ostringstream a2;
    WriteAssignment(m, *ra, a2);
    EXPECT_EQ(a2.str(), a1.str());

    const std::string script = FormatScript(ScriptEntries(m, 3));
    const auto entries = ParseDeltaScript(script, &error);
    ASSERT_TRUE(entries.has_value()) << error;
    EXPECT_EQ(FormatScript(*entries), script);

    const std::string body = ServiceStateText(script);
    const std::optional<ServiceState> state = ParseServiceState(body, &error);
    ASSERT_TRUE(state.has_value()) << error;
    EXPECT_EQ(SerializeServiceState(*state), body);
    ASSERT_TRUE(WriteSnapshot(*state, SnapshotPath("round_trip"), &error))
        << error;
    const std::optional<ServiceState> loaded =
        ReadSnapshot(SnapshotPath("round_trip"), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(SerializeServiceState(*loaded), body);
  }
  std::remove(SnapshotPath("round_trip").c_str());
}

}  // namespace
}  // namespace mbta
