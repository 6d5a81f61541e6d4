#include "io/market_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <vector>

#include "io/text_codec.h"

namespace mbta {

namespace {

constexpr char kMarketHeader[] = "mbta-market v1";
constexpr char kAssignmentHeader[] = "mbta-assignment v1";

/// Writers format into one string and hand it to the stream in chunks of
/// about this size, so a large market never sits in memory twice.
constexpr std::size_t kWriteChunk = std::size_t{1} << 16;

void Flush(std::string* buf, std::ostream& out) {
  out.write(buf->data(), static_cast<std::streamsize>(buf->size()));
  buf->clear();
}

void EndLine(std::string* buf, std::ostream& out) {
  *buf += '\n';
  if (buf->size() >= kWriteChunk) Flush(buf, out);
}

template <typename Write>
bool WriteToFile(const std::string& path, std::string* error, Write write) {
  std::ofstream out(path);
  if (!out) {
    SetError(error, "cannot open for writing: " + path);
    return false;
  }
  write(out);
  return static_cast<bool>(out);
}

/// Index of the first edge, in file order, whose (worker, task) pair an
/// earlier edge already has; `workers.size()` when none repeats. Edges
/// are bucketed by worker with a stable counting sort and each task is
/// stamped with the last row that reached it: BipartiteGraphBuilder's
/// O(V + E) check, with no hash container.
std::size_t FirstDuplicateEdge(const std::vector<WorkerId>& workers,
                               const std::vector<TaskId>& tasks,
                               std::size_t num_workers,
                               std::size_t num_tasks) {
  std::vector<std::size_t> row_end(num_workers + 1, 0);
  for (WorkerId w : workers) ++row_end[w + 1];
  for (std::size_t w = 0; w < num_workers; ++w) row_end[w + 1] += row_end[w];
  std::vector<std::size_t> by_row(workers.size());
  for (std::size_t e = 0; e < workers.size(); ++e) {
    by_row[row_end[workers[e]]++] = e;
  }
  std::vector<std::size_t> stamp(num_tasks, num_workers);
  std::size_t first = workers.size();
  for (std::size_t w = 0, i = 0; w < num_workers; ++w) {
    for (; i < row_end[w]; ++i) {
      const std::size_t e = by_row[i];
      if (stamp[tasks[e]] == w) first = std::min(first, e);
      stamp[tasks[e]] = w;
    }
  }
  return first;
}

}  // namespace

void WriteMarket(const LaborMarket& market, std::ostream& out) {
  std::string buf;
  buf += kMarketHeader;
  buf += "\nname ";
  buf += market.name();
  buf += '\n';
  AppendKeyword("workers", market.NumWorkers(), &buf);
  for (const Worker& w : market.workers()) {
    buf += "w ";
    AppendWorkerFields(w, &buf);
    EndLine(&buf, out);
  }
  AppendKeyword("tasks", market.NumTasks(), &buf);
  for (const Task& t : market.tasks()) {
    buf += "t ";
    AppendTaskFields(t, &buf);
    EndLine(&buf, out);
  }
  AppendKeyword("edges", market.NumEdges(), &buf);
  for (EdgeId e = 0; e < market.NumEdges(); ++e) {
    buf += "e ";
    AppendNumber(market.EdgeWorker(e), &buf);
    buf += ' ';
    AppendNumber(market.EdgeTask(e), &buf);
    buf += ' ';
    AppendNumber(market.Quality(e), &buf);
    buf += ' ';
    AppendNumber(market.WorkerBenefit(e), &buf);
    EndLine(&buf, out);
  }
  Flush(&buf, out);
}

std::optional<LaborMarket> ReadMarket(std::string_view text,
                                      std::string* error,
                                      FaultInjector* faults) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.NextLine(&line) || line != kMarketHeader) {
    SetError(error, "missing or bad header (want '" +
                        std::string(kMarketHeader) + "')");
    return std::nullopt;
  }
  // The writer spells an empty name "name ", which the line rule trims.
  if (!lines.NextLine(&line) ||
      (line != "name" && !line.starts_with("name "))) {
    SetError(error, "expected 'name <name>'");
    return std::nullopt;
  }
  LaborMarketBuilder builder;
  builder.SetName(std::string(line.size() > 5 ? line.substr(5) : ""));

  std::size_t num_workers = 0;
  if (!ExpectCount(lines, "workers", kMaxEntities, &num_workers, error) ||
      !ReadSection(lines, num_workers, "worker", faults, error,
                   [&](std::string_view l, std::string*) {
                     FieldCursor fields(l);
                     Worker w;
                     if (!fields.Expect("w") ||
                         !ParseWorkerFields(fields, &w) || !ValidWorker(w)) {
                       return false;
                     }
                     builder.AddWorker(std::move(w));
                     return true;
                   })) {
    return std::nullopt;
  }

  std::size_t num_tasks = 0;
  if (!ExpectCount(lines, "tasks", kMaxEntities, &num_tasks, error) ||
      !ReadSection(lines, num_tasks, "task", faults, error,
                   [&](std::string_view l, std::string*) {
                     FieldCursor fields(l);
                     Task t;
                     if (!fields.Expect("t") || !ParseTaskFields(fields, &t) ||
                         !ValidTask(t)) {
                       return false;
                     }
                     builder.AddTask(std::move(t));
                     return true;
                   })) {
    return std::nullopt;
  }

  std::size_t num_edges = 0;
  if (!ExpectCount(lines, "edges", kMaxPairs, &num_edges, error)) {
    return std::nullopt;
  }
  // Duplicate edges are rejected below, so any count beyond the complete
  // bipartite graph is a lie about the file that follows.
  if (num_edges > num_workers * num_tasks) {
    SetError(error, "edge count exceeds workers * tasks");
    return std::nullopt;
  }
  std::vector<WorkerId> edge_workers;
  std::vector<TaskId> edge_tasks;
  const LineReader edge_lines = lines;
  const bool read = ReadSection(
      lines, num_edges, "edge", faults, error,
      [&](std::string_view l, std::string*) {
        FieldCursor fields(l);
        std::uint64_t w = 0, t = 0;
        EdgeAttributes attr;
        if (!fields.Expect("e") || !fields.Take(&w) || !fields.Take(&t) ||
            !fields.Take(&attr.quality) ||
            !fields.Take(&attr.worker_benefit) || !fields.Done() ||
            w >= num_workers || t >= num_tasks || attr.quality < 0.0 ||
            attr.quality > 1.0 || attr.worker_benefit < 0.0) {
          return false;
        }
        edge_workers.push_back(static_cast<WorkerId>(w));
        edge_tasks.push_back(static_cast<TaskId>(t));
        builder.AddEdge(edge_workers.back(), edge_tasks.back(), attr);
        return true;
      });
  // A repeated pair is reported at its own line, ahead of any later bad
  // line, as a line-at-a-time check would.
  const std::size_t dup =
      FirstDuplicateEdge(edge_workers, edge_tasks, num_workers, num_tasks);
  if (dup < edge_workers.size()) {
    LineReader again = edge_lines;
    for (std::size_t i = 0; i <= dup; ++i) again.NextLine(&line);
    SetError(error, "duplicate edge: " + std::string(line));
    return std::nullopt;
  }
  if (!read) return std::nullopt;
  return builder.Build();
}

bool WriteMarketToFile(const LaborMarket& market, const std::string& path,
                       std::string* error) {
  return WriteToFile(path, error,
                     [&](std::ostream& out) { WriteMarket(market, out); });
}

std::optional<LaborMarket> ReadMarketFromFile(const std::string& path,
                                              std::string* error,
                                              FaultInjector* faults) {
  std::string text;
  if (!ReadFile(path, &text)) {
    SetError(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  return ReadMarket(text, error, faults);
}

void WriteAssignment(const LaborMarket& market, const Assignment& a,
                     std::ostream& out) {
  std::string buf;
  buf += kAssignmentHeader;
  buf += '\n';
  AppendKeyword("pairs", a.edges.size(), &buf);
  for (EdgeId e : a.edges) {
    buf += "a ";
    AppendNumber(market.EdgeWorker(e), &buf);
    buf += ' ';
    AppendNumber(market.EdgeTask(e), &buf);
    EndLine(&buf, out);
  }
  Flush(&buf, out);
}

std::optional<Assignment> ReadAssignment(const LaborMarket& market,
                                         std::string_view text,
                                         std::string* error,
                                         FaultInjector* faults) {
  LineReader lines(text);
  std::string_view line;
  if (!lines.NextLine(&line) || line != kAssignmentHeader) {
    SetError(error, "missing or bad header (want '" +
                        std::string(kAssignmentHeader) + "')");
    return std::nullopt;
  }
  Assignment a;
  std::size_t pairs = 0;
  if (!ExpectCount(lines, "pairs", kMaxPairs, &pairs, error) ||
      !ReadSection(lines, pairs, "pair", faults, error,
                   [&](std::string_view l, std::string* why) {
                     FieldCursor fields(l);
                     std::uint64_t w = 0, t = 0;
                     if (!fields.Expect("a") || !fields.Take(&w) ||
                         !fields.Take(&t) || !fields.Done() ||
                         w >= market.NumWorkers() || t >= market.NumTasks()) {
                       return false;
                     }
                     const EdgeId e = market.graph().FindEdge(
                         static_cast<VertexId>(w), static_cast<VertexId>(t));
                     if (e == kInvalidEdge) {
                       *why = "pair is not an eligible edge: " + std::string(l);
                       return false;
                     }
                     a.edges.push_back(e);
                     return true;
                   })) {
    return std::nullopt;
  }
  if (!IsFeasible(market, a)) {
    SetError(error, "assignment violates capacities or repeats a pair");
    return std::nullopt;
  }
  return a;
}

bool WriteAssignmentToFile(const LaborMarket& market, const Assignment& a,
                           const std::string& path, std::string* error) {
  return WriteToFile(path, error, [&](std::ostream& out) {
    WriteAssignment(market, a, out);
  });
}

std::optional<Assignment> ReadAssignmentFromFile(const LaborMarket& market,
                                                 const std::string& path,
                                                 std::string* error,
                                                 FaultInjector* faults) {
  std::string text;
  if (!ReadFile(path, &text)) {
    SetError(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  return ReadAssignment(market, text, error, faults);
}

}  // namespace mbta
